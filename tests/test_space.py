"""Geometry and scenario tests.

The collision predicate is checked against an exact rational-arithmetic
clipper (fractions.Fraction, no rounding) plus a dense sampling probe, and
the edge-cost integral against a midpoint-rule numeric integration, so the
production float code never gets to grade its own homework.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rrtsharp.space import (
    DEFAULT_SAMPLE_BUDGET,
    SAMPLE_BLOCK,
    AxisBox,
    CostZone,
    SamplingBudgetError,
    Scenario,
    ScenarioError,
    SeededRng,
    edge_cost,
    heuristic,
    load_scenario,
    sample_free,
    segment_obstacle_free,
    validate_scenario,
)
from rrtsharp.scenarios import BUNDLED, scenario_path


def exact_segment_hits_interior(a, b, lo, hi):
    """Reference clipper in exact rational arithmetic."""
    t0, t1 = Fraction(0), Fraction(1)
    for i in range(len(a)):
        ai = Fraction(a[i])
        di = Fraction(b[i]) - ai
        if di == 0:
            if not (Fraction(lo[i]) < ai < Fraction(hi[i])):
                return False
            continue
        u = (Fraction(lo[i]) - ai) / di
        v = (Fraction(hi[i]) - ai) / di
        if u > v:
            u, v = v, u
        if u > t0:
            t0 = u
        if v < t1:
            t1 = v
    return t0 < t1


def dense_probe_hits_interior(a, b, lo, hi, steps=4001):
    """One-sided probe: True means the open box is definitely entered."""
    for k in range(steps + 1):
        t = k / steps
        p = [ai + t * (bi - ai) for ai, bi in zip(a, b)]
        if all(l < x < h for x, l, h in zip(p, lo, hi)):
            return True
    return False


def box(lo, hi):
    return AxisBox(tuple(map(float, lo)), tuple(map(float, hi)))


def empty_world(dim=2):
    return Scenario(
        bounds=box([0.0] * dim, [1.0] * dim),
        obstacles=(),
        zones=(),
        x_init=(0.1,) * dim,
        goal=box([0.8] * dim, [0.9] * dim),
    )


# ---------------------------------------------------------------- boxes


def test_axisbox_rejects_degenerate():
    with pytest.raises(ScenarioError):
        box([0, 0], [1, 0])
    with pytest.raises(ScenarioError):
        box([0, 0, 0], [1, 1])


def test_axisbox_containment_semantics():
    b = box([0, 0], [1, 1])
    assert b.contains((0.0, 0.5))
    assert not b.contains_interior((0.0, 0.5))
    assert b.contains_interior((0.5, 0.5))
    assert not b.contains((1.0001, 0.5))


def test_axisbox_volume_and_clipping():
    b = box([0, 0], [2, 3])
    assert b.volume() == 6.0
    assert b.clipped_volume(box([1, 1], [5, 5])) == 1.0 * 2.0
    assert b.clipped_volume(box([2, 0], [3, 1])) == 0.0  # face contact
    assert b.overlaps_interior(box([1.5, 2.5], [2.5, 3.5]))
    assert not b.overlaps_interior(box([2, 0], [3, 1]))


# ------------------------------------------------------------ collision


def test_segment_face_touch_is_free():
    sc = Scenario(
        bounds=box([0, 0], [10, 10]),
        obstacles=(box([2, 2], [4, 4]),),
        zones=(),
        x_init=(0.0, 0.0),
        goal=box([8, 8], [9, 9]),
    )
    # Sliding along the obstacle face: allowed.
    assert segment_obstacle_free((2.0, 1.0), (2.0, 5.0), sc)
    assert segment_obstacle_free((1.0, 4.0), (5.0, 4.0), sc)
    # Clipping a corner point only: allowed.
    assert segment_obstacle_free((1.0, 5.0), (3.0, 3.0), sc) is False
    assert segment_obstacle_free((1.0, 5.0), (2.0, 4.0), sc)
    # Straight through: blocked.
    assert not segment_obstacle_free((1.0, 3.0), (5.0, 3.0), sc)
    # Entirely inside: blocked.
    assert not segment_obstacle_free((2.5, 2.5), (3.5, 3.5), sc)
    # Endpoint on the face, leaving outward: allowed.
    assert segment_obstacle_free((4.0, 3.0), (8.0, 3.0), sc)
    # Endpoint strictly inside: blocked.
    assert not segment_obstacle_free((3.0, 3.0), (8.0, 3.0), sc)


def test_segment_degenerate_axis_cases():
    sc = Scenario(
        bounds=box([0, 0], [10, 10]),
        obstacles=(box([2, 2], [4, 4]),),
        zones=(),
        x_init=(0.0, 0.0),
        goal=box([8, 8], [9, 9]),
    )
    # Zero-length segments.
    assert not segment_obstacle_free((3.0, 3.0), (3.0, 3.0), sc)
    assert segment_obstacle_free((2.0, 3.0), (2.0, 3.0), sc)
    assert segment_obstacle_free((1.0, 1.0), (1.0, 1.0), sc)
    # Axis-parallel segment inside the slab.
    assert not segment_obstacle_free((3.0, 0.0), (3.0, 10.0), sc)


def test_segment_collision_matches_exact_rational_clipper():
    rng = np.random.default_rng(42)
    grid = 2.0**-16
    agree_hits = 0
    for _ in range(400):
        dim = int(rng.integers(2, 4))
        lo = np.round(rng.uniform(0.1, 0.5, dim) / grid) * grid
        hi = lo + np.round(rng.uniform(0.05, 0.4, dim) / grid) * grid + grid
        a = np.round(rng.uniform(0, 1, dim) / grid) * grid
        b = np.round(rng.uniform(0, 1, dim) / grid) * grid
        sc = Scenario(
            bounds=box([-1] * dim, [2] * dim),
            obstacles=(box(lo, hi),),
            zones=(),
            x_init=(-0.5,) * dim,
            goal=box([1.5] * dim, [1.8] * dim),
        )
        got_free = segment_obstacle_free(tuple(a), tuple(b), sc)
        want_hit = exact_segment_hits_interior(tuple(a), tuple(b), tuple(lo), tuple(hi))
        assert got_free == (not want_hit), (a, b, lo, hi)
        if dense_probe_hits_interior(tuple(a), tuple(b), tuple(lo), tuple(hi)):
            # The probe proves interior entry; both must agree.
            assert want_hit and not got_free
            agree_hits += 1
    assert agree_hits > 50  # the case mix actually exercised hits


def test_multiple_obstacles_any_hit_blocks():
    sc = Scenario(
        bounds=box([0, 0], [10, 10]),
        obstacles=(box([1, 1], [2, 2]), box([5, 5], [6, 6])),
        zones=(),
        x_init=(0.0, 0.0),
        goal=box([9, 9], [9.5, 9.5]),
    )
    assert not segment_obstacle_free((0.0, 0.0), (7.0, 7.0), sc)
    assert segment_obstacle_free((0.0, 3.0), (4.0, 3.0), sc)


# ------------------------------------------------------- box cull (within)

# Coordinates on a 1/8 grid put star endpoints on box faces and give
# candidates coordinates equal to x_new's (axis-parallel segments, di == 0);
# the offsets keep every grid value exact far from the origin.
GRID = st.integers(0, 8).map(lambda k: k / 8)


@st.composite
def boxed_stars(draw):
    """(full scenario, x_new, candidates) for a random star among random
    obstacles and zones, all inside [offset, offset + 1]^d."""
    d = draw(st.integers(2, 5))
    offset = draw(st.sampled_from([0.0, 1e5, 1e7]))
    coord = st.one_of(GRID, st.floats(0.0, 1.0))

    def grid_box():
        lo, hi = [], []
        for _ in range(d):
            i = draw(st.integers(0, 7))
            j = draw(st.integers(i + 1, 8))
            lo.append(offset + i / 8)
            hi.append(offset + j / 8)
        return box(lo, hi)

    x_new = tuple(offset + draw(coord) for _ in range(d))
    candidates = [
        tuple(x if draw(st.booleans()) else offset + draw(coord) for x in x_new)
        for _ in range(draw(st.integers(1, 8)))
    ]
    obstacles = tuple(grid_box() for _ in range(draw(st.integers(0, 6))))
    zones = tuple(
        CostZone(grid_box(), draw(st.sampled_from([0.25, 0.5, 2.0, 3.0])))
        for _ in range(draw(st.integers(0, 4)))
    )
    sc = Scenario(
        bounds=box([offset] * d, [offset + 1] * d),
        obstacles=obstacles,
        zones=zones,
        x_init=(offset,) * d,
        goal=box([offset + 0.875] * d, [offset + 1] * d),
    )
    return sc, x_new, candidates


@settings(max_examples=400, deadline=None, database=None)
@given(boxed_stars())
def test_within_star_box_keeps_collisions_and_costs_bit_identical(star):
    sc, x_new, candidates = star
    lo = tuple(map(min, x_new, *candidates))
    hi = tuple(map(max, x_new, *candidates))
    local = sc.within(lo, hi)
    assert set(local.obstacles) <= set(sc.obstacles)
    assert set(local.zones) <= set(sc.zones)
    for p in candidates:
        for a, b in ((p, x_new), (x_new, p)):
            assert segment_obstacle_free(a, b, local) == segment_obstacle_free(a, b, sc)
            assert edge_cost(a, b, local).hex() == edge_cost(a, b, sc).hex()


def test_within_drops_separated_boxes_and_keeps_order():
    near, touching, far = box([1, 1], [2, 2]), box([3, 0], [4, 1]), box([5, 5], [6, 6])
    zone_in, zone_out = CostZone(box([0, 2], [1, 3]), 2.0), CostZone(box([0, 4], [1, 5]), 2.0)
    sc = Scenario(
        bounds=box([0, 0], [10, 10]),
        obstacles=(far, near, touching),
        zones=(zone_out, zone_in),
        x_init=(0.0, 0.0),
        goal=box([8, 8], [9, 9]),
    )
    local = sc.within((0.5, 0.5), (3.0, 2.5))
    # ``touching`` only meets the star box on its face x = 3.
    assert local.obstacles == (near,)
    assert local.zones == (zone_in,)
    assert local.default_coefficient == sc.default_coefficient
    both = sc.within((0.0, 0.0), (10.0, 10.0))
    assert both.obstacles == (far, near, touching)
    assert both.zones == (zone_out, zone_in)
    bare = sc.within((7.0, 0.0), (8.0, 1.0))
    assert bare.obstacles == () and bare.zones == ()


# ------------------------------------------------------------ edge cost


def numeric_edge_cost(a, b, scenario, bins=800_000):
    """Midpoint-rule line integral of the coefficient field."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    length = float(np.linalg.norm(b - a))
    if length == 0.0:
        return 0.0
    t = (np.arange(bins) + 0.5) / bins
    pts = a[None, :] + t[:, None] * (b - a)[None, :]
    coef = np.full(bins, scenario.default_coefficient)
    for zone in scenario.zones:
        lo = np.asarray(zone.box.lo)
        hi = np.asarray(zone.box.hi)
        inside = np.all((pts > lo) & (pts < hi), axis=1)
        coef[inside] = zone.coefficient
    return float(coef.mean() * length)


def zoned_world():
    return Scenario(
        bounds=box([0, 0], [1, 1]),
        obstacles=(),
        zones=(
            CostZone(box([0.0, 0.25], [1.0, 0.5]), 2.5),
            CostZone(box([0.0, 0.5], [1.0, 0.75]), 0.75),
        ),
        x_init=(0.5, 0.1),
        goal=box([0.4, 0.9], [0.6, 0.95]),
    )


def test_edge_cost_no_zones_is_scaled_length():
    sc = empty_world()
    a, b = (0.1, 0.2), (0.7, 0.9)
    assert edge_cost(a, b, sc) == pytest.approx(math.dist(a, b), abs=1e-15)


def test_edge_cost_exact_hand_cases():
    sc = zoned_world()
    # Vertical unit-ish segment crossing both bands completely.
    got = edge_cost((0.5, 0.0), (0.5, 1.0), sc)
    want = 1.0 * 0.25 + 2.5 * 0.25 + 0.75 * 0.25 + 1.0 * 0.25
    assert got == pytest.approx(want, abs=1e-12)
    # Entirely inside the cheap band.
    got = edge_cost((0.2, 0.55), (0.8, 0.7), sc)
    assert got == pytest.approx(0.75 * math.dist((0.2, 0.55), (0.8, 0.7)), abs=1e-12)
    # Segment lying on the shared face of the two bands: open clipping
    # means neither band applies.
    got = edge_cost((0.2, 0.5), (0.8, 0.5), sc)
    assert got == pytest.approx(0.6, abs=1e-12)


def test_edge_cost_matches_numeric_integration():
    sc = zoned_world()
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = tuple(rng.uniform(0, 1, 2))
        b = tuple(rng.uniform(0, 1, 2))
        got = edge_cost(a, b, sc)
        want = numeric_edge_cost(a, b, sc)
        assert got == pytest.approx(want, abs=2e-4), (a, b)


def test_edge_cost_numeric_integration_5d():
    sc = Scenario(
        bounds=box([0] * 5, [1] * 5),
        obstacles=(),
        zones=(CostZone(box([0.2] * 5, [0.7] * 5), 3.0),),
        x_init=(0.1,) * 5,
        goal=box([0.8] * 5, [0.9] * 5),
    )
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = tuple(rng.uniform(0, 1, 5))
        b = tuple(rng.uniform(0, 1, 5))
        assert edge_cost(a, b, sc) == pytest.approx(
            numeric_edge_cost(a, b, sc), abs=2e-4
        )


def test_edge_cost_symmetry_is_bitwise():
    sc = zoned_world()
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = tuple(rng.uniform(0, 1, 2))
        b = tuple(rng.uniform(0, 1, 2))
        assert edge_cost(a, b, sc) == edge_cost(b, a, sc)


def test_edge_cost_zero_length():
    sc = zoned_world()
    assert edge_cost((0.3, 0.3), (0.3, 0.3), sc) == 0.0


def test_edge_cost_lower_bound_by_min_coefficient():
    sc = zoned_world()
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = tuple(rng.uniform(0, 1, 2))
        b = tuple(rng.uniform(0, 1, 2))
        assert edge_cost(a, b, sc) >= sc.min_coefficient * math.dist(a, b) - 1e-12


# ------------------------------------------------------------ heuristic


def test_heuristic_zero_inside_goal():
    sc = empty_world()
    assert heuristic((0.85, 0.85), sc) == 0.0
    assert heuristic((0.8, 0.9), sc) == 0.0  # on the face


def test_heuristic_is_distance_to_goal_box():
    sc = empty_world()
    assert heuristic((0.8, 0.5), sc) == pytest.approx(0.3, abs=1e-15)
    assert heuristic((0.5, 0.5), sc) == pytest.approx(
        math.dist((0.5, 0.5), (0.8, 0.8)), abs=1e-15
    )


def test_heuristic_admissible_and_consistent_with_zones():
    sc = zoned_world()
    assert sc.min_coefficient == 0.75
    rng = np.random.default_rng(13)
    goal_lo = np.asarray(sc.goal.lo)
    goal_hi = np.asarray(sc.goal.hi)
    for _ in range(200):
        x = tuple(rng.uniform(0, 1, 2))
        y = tuple(rng.uniform(0, 1, 2))
        gpt = tuple(rng.uniform(goal_lo, goal_hi))
        # Admissible: never exceeds the cost of going straight to any goal
        # point.
        assert heuristic(x, sc) <= edge_cost(x, gpt, sc) + 1e-12
        # Consistent: satisfies the triangle inequality through any y.
        assert heuristic(x, sc) <= edge_cost(x, y, sc) + heuristic(y, sc) + 1e-12


# ------------------------------------------------------------- sampling


def test_seeded_rng_reproducible():
    lo, hi = np.zeros(3), np.ones(3)

    def draw(rng):
        return rng.uniform_point(lo, hi).tolist()

    a = SeededRng(12345)
    b = SeededRng(12345)
    assert [draw(a) for _ in range(20)] == [draw(b) for _ in range(20)]
    c = SeededRng(12346)
    assert draw(a) != draw(c)
    assert draw(SeededRng((9, 1))) == draw(SeededRng((9, 1)))
    assert draw(SeededRng((9, 1))) != draw(SeededRng((9, 2)))


def test_sample_free_avoids_obstacle_interiors():
    sc = load_scenario(scenario_path("d2_boxes"))
    rng = SeededRng(0)
    for _ in range(500):
        p = sample_free(rng, sc)
        assert sc.bounds.contains(p)
        assert not any(ob.contains_interior(p) for ob in sc.obstacles)


def test_sample_free_budget_error():
    full = box([0, 0], [1, 1])
    sc = Scenario(
        bounds=full,
        obstacles=(full,),  # interior rejection leaves only the faces
        zones=(),
        x_init=(0.0, 0.0),
        goal=box([0.4, 0.4], [0.6, 0.6]),
    )
    with pytest.raises(SamplingBudgetError):
        sample_free(SeededRng(1), sc, max_rejections=50)


def per_call_sample_free(rng, scenario, max_rejections=DEFAULT_SAMPLE_BUDGET):
    """Reference rejection sampler: one ``uniform_point`` draw per try, each
    obstacle tested with ``contains_interior``."""
    lo = np.asarray(scenario.bounds.lo)
    hi = np.asarray(scenario.bounds.hi)
    for _ in range(max_rejections + 1):
        p = tuple(rng.uniform_point(lo, hi).tolist())
        if not any(ob.contains_interior(p) for ob in scenario.obstacles):
            return p
    raise SamplingBudgetError("reference budget exhausted")


def sample_stream(sample, rng, scenario, budgets):
    """Each call's point as float hex strings, or "budget" where it raised."""
    out = []
    for m in budgets:
        try:
            out.append(tuple(x.hex() for x in sample(rng, scenario, m)))
        except SamplingBudgetError:
            out.append("budget")
    return out


def counted_draws(rng):
    """Count the rng's ``uniform_point`` draws (in an instance attribute)."""
    drawn = [0]
    draw = rng.uniform_point

    def counting(lo, hi):
        drawn[0] += 1
        return draw(lo, hi)

    rng.uniform_point = counting
    return drawn


def slab_world(width):
    """The unit square, all but the slab 0 <= x <= width blocked."""
    return Scenario(
        bounds=box([0, 0], [1, 1]),
        obstacles=(box([width, 0], [1, 1]),),
        zones=(),
        x_init=(0.0, 0.5),
        goal=box([0, 0.4], [width, 0.6]),
    )


@pytest.mark.parametrize("name", BUNDLED)
def test_sample_free_matches_per_call_draws(name):
    # Block drawing must return, bit for bit, the points of one uniform
    # draw per try; that is a property of numpy's generator, pinned here
    # over more than three blocks.
    sc = load_scenario(scenario_path(name))
    budgets = [DEFAULT_SAMPLE_BUDGET] * (3 * SAMPLE_BLOCK + 1)
    ref = SeededRng((61, 0))
    drawn = counted_draws(ref)
    want = sample_stream(per_call_sample_free, ref, sc, budgets)
    assert drawn[0] > 3 * SAMPLE_BLOCK
    assert sample_stream(sample_free, SeededRng((61, 0)), sc, budgets) == want


def test_sample_free_matches_per_call_with_small_budgets_and_after_errors():
    # Budget -1 tries no draw and 0 exactly one.  One rng keeps serving the
    # per-call stream after budget errors, which leave it where the per-call
    # sampler would stop.
    sc = slab_world(0.1)
    budgets = [-1, 0, 2, 30, 5] * 200
    ref = SeededRng(23)
    drawn = counted_draws(ref)
    want = sample_stream(per_call_sample_free, ref, sc, budgets)
    assert drawn[0] > 3 * SAMPLE_BLOCK
    assert set(want[0::5]) == {"budget"}
    assert 0 < want[1::5].count("budget") < 200
    assert sample_stream(sample_free, SeededRng(23), sc, budgets) == want


def test_sample_free_budget_is_exact_across_block_boundaries():
    # In a thin free slab, find a seed whose first free draw has index
    # n > 2 blocks: n rejections are allowed, n - 1 are not, and after the
    # error the next call returns the per-call sampler's next free point.
    sc = slab_world(1.0 / (4 * SAMPLE_BLOCK))
    lo, hi = np.asarray(sc.bounds.lo), np.asarray(sc.bounds.hi)
    obstacle = sc.obstacles[0]

    def first_free(seed):
        rng = SeededRng(seed)
        for n in itertools.count():
            if not obstacle.contains_interior(tuple(rng.uniform_point(lo, hi).tolist())):
                return n

    seed, n = next((s, n) for s in range(50) if (n := first_free(s)) > 2 * SAMPLE_BLOCK)
    assert sample_free(SeededRng(seed), sc, n) == per_call_sample_free(SeededRng(seed), sc, n)
    rng, ref = SeededRng(seed), SeededRng(seed)
    with pytest.raises(SamplingBudgetError, match=f"after {n - 1} consecutive"):
        sample_free(rng, sc, n - 1)
    with pytest.raises(SamplingBudgetError):
        per_call_sample_free(ref, sc, n - 1)
    nxt = per_call_sample_free(ref, sc, 10**6)
    assert sample_free(rng, sc, 10**6) == nxt
    assert nxt[0] <= sc.goal.hi[0]


def test_sample_free_refreshes_on_new_obstacles_and_refuses_new_bounds():
    # Pending rows are re-tested when the obstacles change, so the points
    # stay those of the per-call sampler; rows drawn over other bounds are
    # never handed out.
    wide, narrow = slab_world(0.5), slab_world(0.1)
    budgets = [DEFAULT_SAMPLE_BUDGET] * 40
    rng, ref = SeededRng(29), SeededRng(29)
    for sc in (wide, narrow, load_scenario(scenario_path("d2_boxes")), wide):
        assert sample_stream(sample_free, rng, sc, budgets) == sample_stream(
            per_call_sample_free, ref, sc, budgets
        )
    bigger = Scenario(
        bounds=box([0, 0], [2, 1]),
        obstacles=wide.obstacles,
        zones=(),
        x_init=wide.x_init,
        goal=wide.goal,
    )
    with pytest.raises(ValueError, match="bounds changed"):
        sample_free(rng, bigger)
    fresh = SeededRng(29)
    assert sample_free(fresh, bigger) == per_call_sample_free(SeededRng(29), bigger)


def test_sample_free_uniform_over_free_space():
    """Chi-squared fit of the empirical cell histogram to free-area weights."""
    sc = load_scenario(scenario_path("d2_boxes"))
    rng = SeededRng(2718)
    n = 20000
    cells = 4
    counts = np.zeros((cells, cells))
    for _ in range(n):
        x, y = sample_free(rng, sc)
        counts[min(int(x * cells), cells - 1), min(int(y * cells), cells - 1)] += 1

    def free_area(cx, cy):
        lo = (cx / cells, cy / cells)
        hi = ((cx + 1) / cells, (cy + 1) / cells)
        area = (hi[0] - lo[0]) * (hi[1] - lo[1])
        for ob in sc.obstacles:
            w = min(hi[0], ob.hi[0]) - max(lo[0], ob.lo[0])
            h = min(hi[1], ob.hi[1]) - max(lo[1], ob.lo[1])
            if w > 0 and h > 0:
                area -= w * h
        return area

    weights = np.array([[free_area(i, j) for j in range(cells)] for i in range(cells)])
    expected = weights / weights.sum() * n
    mask = expected.ravel() > 0
    result = stats.chisquare(counts.ravel()[mask], expected.ravel()[mask])
    assert result.pvalue > 0.001


# ------------------------------------------------------------ scenarios


def test_load_scenario_roundtrip(tmp_path):
    data = {
        "dimension": 2,
        "bounds": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [{"min": [0.4, 0.4], "max": [0.6, 0.6]}],
        "zones": [{"min": [0.0, 0.7], "max": [1.0, 0.9], "coefficient": 2.0}],
        "x_init": [0.1, 0.1],
        "goal": {"min": [0.8, 0.1], "max": [0.9, 0.2]},
        "metadata": {"name": "unit"},
    }
    path = tmp_path / "world.json"
    path.write_text(json.dumps(data))
    sc = load_scenario(path)
    assert sc.dimension == 2
    assert len(sc.obstacles) == 1
    assert sc.zones[0].coefficient == 2.0
    assert sc.x_init == (0.1, 0.1)
    assert sc.metadata["name"] == "unit"
    # A parsed dict loads the same way.
    sc2 = load_scenario(data)
    assert sc2 == sc


def test_load_scenario_error_names_offending_field(tmp_path):
    base = {
        "dimension": 2,
        "bounds": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [],
        "zones": [],
        "x_init": [0.1, 0.1],
        "goal": {"min": [0.8, 0.1], "max": [0.9, 0.2]},
    }

    bad = dict(base)
    del bad["goal"]
    with pytest.raises(ScenarioError, match="goal"):
        load_scenario(bad)

    bad = dict(base, surprise=1)
    with pytest.raises(ScenarioError, match="surprise"):
        load_scenario(bad)

    bad = dict(base, dimension=1)
    with pytest.raises(ScenarioError, match="dimension"):
        load_scenario(bad)

    bad = dict(base, bounds={"min": [0, 0], "max": [0, 1]})
    with pytest.raises(ScenarioError, match="bounds"):
        load_scenario(bad)

    bad = dict(base, x_init=[5.0, 5.0])
    with pytest.raises(ScenarioError, match="x_init"):
        load_scenario(bad)

    bad = dict(base, obstacles=[{"min": [0.05, 0.05], "max": [0.2, 0.2]}])
    with pytest.raises(ScenarioError, match=r"obstacles\[0\]"):
        load_scenario(bad)

    bad = dict(base, goal={"min": [0.8, 0.1], "max": [1.2, 0.2]})
    with pytest.raises(ScenarioError, match="goal"):
        load_scenario(bad)

    bad = dict(
        base,
        zones=[
            {"min": [0.0, 0.0], "max": [0.5, 0.5], "coefficient": 2.0},
            {"min": [0.4, 0.4], "max": [0.9, 0.9], "coefficient": 3.0},
        ],
    )
    with pytest.raises(ScenarioError, match=r"zones\[1\]"):
        load_scenario(bad)

    bad = dict(base, zones=[{"min": [0, 0], "max": [1, 1], "coefficient": -1}])
    with pytest.raises(ScenarioError, match=r"zones\[0\]"):
        load_scenario(bad)

    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="scenario file"):
        load_scenario(path)
    with pytest.raises(ScenarioError, match="scenario file"):
        load_scenario(tmp_path / "missing.json")


NON_FINITE_FIELDS = [
    # (path into the scenario, field name the error must carry)
    (("bounds", "max", 0), "bounds.max[0]"),
    (("bounds", "min", 1), "bounds.min[1]"),
    (("obstacles", 0, "min", 0), "obstacles[0].min[0]"),
    (("zones", 0, "max", 1), "zones[0].max[1]"),
    (("x_init", 0), "x_init[0]"),
    (("goal", "min", 1), "goal.min[1]"),
]


def finite_world():
    return {
        "dimension": 2,
        "bounds": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [{"min": [0.4, 0.4], "max": [0.6, 0.6]}],
        "zones": [{"min": [0.0, 0.7], "max": [1.0, 0.9], "coefficient": 2.0}],
        "x_init": [0.1, 0.1],
        "goal": {"min": [0.8, 0.1], "max": [0.9, 0.2]},
    }


def set_path(data, path, value):
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize(
    "token",
    ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
    ids=["NaN", "Infinity", "-Infinity", "int-1e400"],
)
@pytest.mark.parametrize("path, field", NON_FINITE_FIELDS, ids=[f for _, f in NON_FINITE_FIELDS])
def test_loader_rejects_non_finite_numbers(tmp_path, path, field, token):
    # Python's json reads NaN and Infinity as floats, and a long integer
    # literal as an int too large for a float; the loader takes none of them.
    data = finite_world()
    set_path(data, path, "@")
    file = tmp_path / "world.json"
    file.write_text(json.dumps(data).replace('"@"', token))
    with pytest.raises(ScenarioError) as info:
        load_scenario(file)
    assert str(info.value) == f"{field}: must be a finite number"


@pytest.mark.parametrize("coefficient", [math.inf, 10**400], ids=["inf", "huge-int"])
def test_loader_rejects_infinite_zone_coefficient(coefficient):
    data = finite_world()
    data["zones"][0]["coefficient"] = coefficient
    with pytest.raises(ScenarioError) as info:
        load_scenario(data)
    assert str(info.value) == "zones[0].coefficient: must be a finite number"


def numeric_fields(data):
    """(path, field name) of every float-valued field of a scenario dict."""
    fields = []

    def point(path, name):
        node = data
        for key in path:
            node = node[key]
        fields.extend((path + (k,), f"{name}[{k}]") for k in range(len(node)))

    for top in ("bounds", "goal"):
        for end in ("min", "max"):
            point((top, end), f"{top}.{end}")
    for i in range(len(data["obstacles"])):
        for end in ("min", "max"):
            point(("obstacles", i, end), f"obstacles[{i}].{end}")
    for i in range(len(data["zones"])):
        for end in ("min", "max"):
            point(("zones", i, end), f"zones[{i}].{end}")
        fields.append((("zones", i, "coefficient"), f"zones[{i}].coefficient"))
    point(("x_init",), "x_init")
    return fields


LOADER_WORLDS = [finite_world()] + [
    json.loads(scenario_path(name).read_text()) for name in BUNDLED
]


@st.composite
def corrupted_worlds(draw):
    """(scenario dict with one numeric field made non-finite or too large
    for a float, that field's name)."""
    data = json.loads(json.dumps(draw(st.sampled_from(LOADER_WORLDS))))
    path, field = draw(st.sampled_from(numeric_fields(data)))
    bad = draw(st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(min_value=2**1024),
        st.integers(max_value=-(2**1024)),
    ))
    set_path(data, path, bad)
    return data, field


@settings(max_examples=300, deadline=None, database=None)
@given(corrupted_worlds())
def test_loader_rejects_any_non_finite_or_overflowing_number(world):
    # Every float field of every bundled world: the error names the field.
    data, field = world
    with pytest.raises(ScenarioError) as info:
        load_scenario(data)
    message = str(info.value)
    assert message.startswith(f"{field}: ")
    if not field.endswith("coefficient"):
        assert message == f"{field}: must be a finite number"


def test_zones_may_share_faces():
    data = {
        "dimension": 2,
        "bounds": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [],
        "zones": [
            {"min": [0.0, 0.0], "max": [0.5, 1.0], "coefficient": 2.0},
            {"min": [0.5, 0.0], "max": [1.0, 1.0], "coefficient": 3.0},
        ],
        "x_init": [0.1, 0.1],
        "goal": {"min": [0.8, 0.1], "max": [0.9, 0.2]},
    }
    sc = load_scenario(data)
    assert len(sc.zones) == 2


def test_x_init_on_obstacle_face_is_legal():
    data = {
        "dimension": 2,
        "bounds": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [{"min": [0.1, 0.1], "max": [0.3, 0.3]}],
        "zones": [],
        "x_init": [0.1, 0.2],
        "goal": {"min": [0.8, 0.1], "max": [0.9, 0.2]},
    }
    sc = load_scenario(data)
    assert sc.x_init == (0.1, 0.2)


def test_free_volume_subtracts_clipped_obstacles():
    sc = Scenario(
        bounds=box([0, 0], [1, 1]),
        obstacles=(box([0.5, 0.5], [2.0, 2.0]),),  # clipped to a quarter
        zones=(),
        x_init=(0.1, 0.1),
        goal=box([0.1, 0.8], [0.2, 0.9]),
    )
    assert sc.free_volume() == pytest.approx(0.75, abs=1e-15)


def test_min_coefficient_includes_default():
    sc = zoned_world()
    assert sc.min_coefficient == 0.75
    assert empty_world().min_coefficient == 1.0


def test_bundled_scenarios_load_and_validate():
    assert len(BUNDLED) == 6
    for name in BUNDLED:
        sc = load_scenario(scenario_path(name))
        validate_scenario(sc)
        assert sc.metadata.get("name") == name
        if name.startswith("d2"):
            assert sc.dimension == 2
        else:
            assert sc.dimension == 5
        if "zones" in name:
            assert sc.zones
        if "boxes" in name or "clutter" in name:
            assert sc.obstacles
