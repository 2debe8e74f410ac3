"""Planner tests: keys, inclusion gates, consistency propagation.

The centrepiece is a four-vertex hand construction where a late shortcut
improves a mid-chain vertex: the rewiring baseline updates only that vertex
and leaves its child's stored cost stale, while the consistent-tree planner
propagates the improvement and lands exactly on the Dijkstra distances.
"""

import math
from collections import Counter

import pytest

from rrtsharp import bench, planner
from rrtsharp.nngraph import Graph
from rrtsharp.planner import (
    AlgorithmVariant,
    ExtendStatus,
    InvariantViolation,
    PlannerParams,
    RRTStarState,
    VertexCategory,
    classify_values,
    compute_key,
    extend,
    gamma_rrg,
    make_planner_state,
    plan,
    plan_rrtstar,
    reduce_inconsistency,
    rrtstar_extend,
    run_planner,
    update_queue,
)
from rrtsharp.pqueue import INFINITE_KEY, Key, key_lt
from rrtsharp.space import (
    AxisBox,
    Scenario,
    SeededRng,
    edge_cost,
    heuristic,
    load_scenario,
    segment_obstacle_free,
)
from rrtsharp.scenarios import scenario_path

INF = math.inf


def box(lo, hi):
    return AxisBox(tuple(map(float, lo)), tuple(map(float, hi)))


def open_world(goal_lo, goal_hi, bound=2.0):
    return Scenario(
        bounds=box([0.0, 0.0], [bound, bound]),
        obstacles=(),
        zones=(),
        x_init=(0.0, 0.0),
        goal=box(goal_lo, goal_hi),
    )


def fresh_state(scenario, variant=AlgorithmVariant.RRTSHARP_V0, eta=0.6, gamma=10.0):
    params = PlannerParams(eta=eta, gamma=gamma)
    return make_planner_state(scenario, variant, params, seed=0)


# ------------------------------------------------------------- categories


def test_classify_values_covers_all_categories():
    assert classify_values(1.0, 1.0) is VertexCategory.CONSISTENT_FINITE
    assert classify_values(INF, INF) is VertexCategory.CONSISTENT_INFINITE
    assert classify_values(2.0, 1.5) is VertexCategory.INCONSISTENT_FINITE
    assert classify_values(1.5, 2.0) is VertexCategory.INCONSISTENT_FINITE
    assert (
        classify_values(INF, 3.0) is VertexCategory.INCONSISTENT_INF_G_FINITE_LMC
    )
    with pytest.raises(InvariantViolation):
        classify_values(3.0, INF)


def test_variant_parse_aliases_and_error():
    assert AlgorithmVariant.parse("v2") is AlgorithmVariant.RRTSHARP_V2
    assert AlgorithmVariant.parse("RRTSHARP-V3") is AlgorithmVariant.RRTSHARP_V3
    assert AlgorithmVariant.parse("rrtsharp") is AlgorithmVariant.RRTSHARP_V0
    assert AlgorithmVariant.parse(" rrtstar ") is AlgorithmVariant.RRTSTAR_BASELINE
    with pytest.raises(ValueError, match="rrtsharp-v2"):
        AlgorithmVariant.parse("bogus")


def test_gamma_rrg_matches_formula():
    for dim, obstacles in ((2, ()), (5, ()), (2, (box([0, 0], [0.5, 0.5]),))):
        sc = Scenario(
            bounds=box([0.0] * dim, [1.0] * dim),
            obstacles=obstacles,
            zones=(),
            x_init=(0.9,) * dim,
            goal=box([0.7] * dim, [0.8] * dim),
        )
        mu = 1.0 - (0.25 if obstacles else 0.0)
        zeta = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
        want = 2.0 * (1.0 + 1.0 / dim) ** (1.0 / dim) * (mu / zeta) ** (1.0 / dim)
        assert gamma_rrg(sc) == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------------ keys


def test_compute_key_uses_min_of_g_and_lmc():
    sc = open_world([1.7, 1.7], [1.9, 1.9])
    state = fresh_state(sc)
    # Bootstrap vertex: g = inf, lmc = 0, h = distance to goal box corner.
    h0 = heuristic((0.0, 0.0), sc)
    assert h0 == pytest.approx(math.dist((0.0, 0.0), (1.7, 1.7)), rel=1e-12)
    assert compute_key(state, 0) == Key(h0, 0.0)
    reduce_inconsistency(state)
    assert state.graph.g[0] == 0.0
    assert compute_key(state, 0) == Key(h0, 0.0)


def test_goal_key_infinite_without_goal_vertices():
    sc = open_world([1.7, 1.7], [1.9, 1.9])
    state = fresh_state(sc)
    assert state.goal_key() == INFINITE_KEY
    assert state.best_goal() == (None, INF)


def test_update_queue_three_way():
    sc = open_world([1.7, 1.7], [1.9, 1.9])
    state = fresh_state(sc)
    # Bootstrap: inconsistent, so it must be queued.
    assert state.queue.contains(0)
    # Make it consistent by hand: update_queue must remove it.
    state.graph.g[0] = 0.0
    update_queue(state, 0)
    assert not state.queue.contains(0)
    # Inconsistent again with a new key: re-inserted.
    state.graph.g[0] = 5.0
    update_queue(state, 0)
    assert state.queue.contains(0)
    k = state.queue.key_of(0)
    assert k == compute_key(state, 0)
    # Same membership, new key: updated in place.
    state.graph.lmc[0] = -1.0
    update_queue(state, 0)
    assert state.queue.key_of(0) == compute_key(state, 0) != k


# --------------------------------------------------------- inclusion gates


def test_gate_unreachable_neighborhood_only_v0_includes():
    """Before the start vertex commits, no candidate has finite g: only the
    seeded variant adds the (consistent-infinite) vertex."""
    sc = open_world([1.7, 1.7], [1.9, 1.9])
    for variant, want in [
        (AlgorithmVariant.RRTSHARP_V0, ExtendStatus.EXTENDED),
        (AlgorithmVariant.RRTSHARP_V1, ExtendStatus.REJECTED),
        (AlgorithmVariant.RRTSHARP_V2, ExtendStatus.REJECTED),
        (AlgorithmVariant.RRTSHARP_V3, ExtendStatus.REJECTED),
    ]:
        state = fresh_state(sc, variant)  # no reduce: g(start) still inf
        status, vid = extend(state, (0.3, 0.0))
        assert status is want, variant
        if variant is AlgorithmVariant.RRTSHARP_V0:
            assert state.graph.lmc[vid] == INF
            assert state.graph.parent[vid] == 0
            category = classify_values(state.graph.g[vid], state.graph.lmc[vid])
            assert category is VertexCategory.CONSISTENT_INFINITE
        else:
            assert len(state.graph) == 1


def test_gate_unpromising_parent_splits_v1_from_v2():
    """A finite-cost parent whose key trails the goal key: V1 still connects,
    V2 and V3 both refuse."""
    sc = open_world([0.3, 0.3], [0.5, 0.5])
    results = {}
    for variant in (
        AlgorithmVariant.RRTSHARP_V1,
        AlgorithmVariant.RRTSHARP_V2,
        AlgorithmVariant.RRTSHARP_V3,
    ):
        state = fresh_state(sc, variant)
        reduce_inconsistency(state)
        # Commit a detour vertex straight up, pre-goal.
        status, u1 = extend(state, (0.0, 1.4))
        assert status is ExtendStatus.EXTENDED
        reduce_inconsistency(state)
        assert state.graph.g[u1] == pytest.approx(0.6, abs=1e-12)
        # A goal vertex appears; goal key becomes finite.
        status, g2 = extend(state, (0.35, 0.35))
        assert status is ExtendStatus.EXTENDED
        reduce_inconsistency(state)
        assert state.is_goal[g2]
        gk = state.goal_key()
        assert gk.k1 == pytest.approx(math.dist((0, 0), (0.35, 0.35)), abs=1e-12)
        # The detour vertex is now unpromising but has finite g.
        assert not key_lt(compute_key(state, u1), gk)
        assert math.isfinite(state.graph.g[u1])
        # Extend beyond the detour vertex: its child can only hang off it.
        status, _ = extend(state, (0.0, 1.3))
        results[variant] = status
    assert results[AlgorithmVariant.RRTSHARP_V1] is ExtendStatus.EXTENDED
    assert results[AlgorithmVariant.RRTSHARP_V2] is ExtendStatus.REJECTED
    assert results[AlgorithmVariant.RRTSHARP_V3] is ExtendStatus.REJECTED


def test_gate_unpromising_new_vertex_splits_v2_from_v3():
    """Promising parent, unpromising new vertex: V2 includes, V3 refuses."""
    sc = open_world([0.3, 0.0], [0.5, 0.2])
    results = {}
    for variant in (AlgorithmVariant.RRTSHARP_V2, AlgorithmVariant.RRTSHARP_V3):
        state = fresh_state(sc, variant)
        reduce_inconsistency(state)
        status, g1 = extend(state, (0.4, 0.1))
        assert status is ExtendStatus.EXTENDED
        reduce_inconsistency(state)
        assert state.is_goal[g1]
        gk = state.goal_key()
        # The start vertex stays promising (it is on the optimal path).
        assert key_lt(compute_key(state, 0), gk)
        status, _ = extend(state, (0.0, 0.5))
        results[variant] = status
    assert results[AlgorithmVariant.RRTSHARP_V2] is ExtendStatus.EXTENDED
    assert results[AlgorithmVariant.RRTSHARP_V3] is ExtendStatus.REJECTED


def test_duplicate_sample_rejected():
    sc = open_world([1.7, 1.7], [1.9, 1.9])
    state = fresh_state(sc)
    reduce_inconsistency(state)
    status, _ = extend(state, (0.0, 0.0))
    assert status is ExtendStatus.REJECTED
    assert len(state.graph) == 1


def test_collision_blocked_extension():
    sc = Scenario(
        bounds=box([0, 0], [2, 2]),
        obstacles=(box([0.2, -0.0], [0.4, 2.0]),),
        zones=(),
        x_init=(0.0, 1.0),
        goal=box([1.7, 1.7], [1.9, 1.9]),
    )
    state = fresh_state(sc)
    reduce_inconsistency(state)
    status, _ = extend(state, (0.6, 1.0))
    assert status is ExtendStatus.COLLISION_BLOCKED
    assert len(state.graph) == 1


def test_v3_inclusion_log_all_promising():
    sc = load_scenario(scenario_path("d2_empty"))
    result = run_planner(
        sc, AlgorithmVariant.RRTSHARP_V3, 400, seed=1, history_stride=50, eta=0.15
    )
    log = result.state.inclusion_log
    assert log
    for vid, key, gk_at_inclusion in log:
        assert key_lt(key, gk_at_inclusion), vid


# ------------------------------------------------- propagation vs staleness


def drive_sharp(scenario, samples, eta=0.6, gamma=10.0):
    state = fresh_state(scenario, AlgorithmVariant.RRTSHARP_V0, eta, gamma)
    reduce_inconsistency(state)
    for x in samples:
        status, _ = extend(state, x)
        assert status is ExtendStatus.EXTENDED
        reduce_inconsistency(state)
    return state


def drive_star(scenario, samples, eta=0.6, gamma=10.0):
    state = fresh_state(scenario, AlgorithmVariant.RRTSTAR_BASELINE, eta, gamma)
    assert isinstance(state, RRTStarState)
    assert (state.graph.g[0], state.graph.lmc[0]) == (0.0, 0.0)
    for x in samples:
        status, _ = rrtstar_extend(state, x)
        assert status is ExtendStatus.EXTENDED
    return state


def test_shortcut_propagates_to_grandchild_only_in_consistent_tree():
    sc = open_world([1.7, 1.7], [1.9, 1.9])
    a, b, c, d = (0.5, 0.1), (0.88, 0.55), (0.95, 1.0), (0.45, 0.3)
    samples = [a, b, c, d]

    sharp = drive_sharp(sc, samples)
    star = drive_star(sc, samples)
    assert sharp.graph.positions == star.graph.positions

    # Chain costs before the shortcut: start -> a -> b -> c.
    g_a = math.dist((0, 0), a)
    old_b = g_a + math.dist(a, b)
    old_c = old_b + math.dist(b, c)
    # The shortcut d (a child of the start) improves b and, transitively, c.
    g_d = math.dist((0, 0), d)
    new_b = g_d + math.dist(d, b)
    new_c = new_b + math.dist(b, c)
    assert new_b < old_b

    ids = {pos: vid for vid, pos in enumerate(sharp.graph.positions)}
    vb, vc, vd = ids[b], ids[c], ids[d]

    # Both planners rewire b itself through d.
    assert sharp.graph.parent[vb] == vd
    assert star.graph.parent[vb] == vd
    assert sharp.graph.g[vb] == pytest.approx(new_b, abs=1e-12)
    assert star.graph.g[vb] == pytest.approx(new_b, abs=1e-12)

    # The consistent tree pushed the improvement down to c...
    assert sharp.graph.g[vc] == pytest.approx(new_c, abs=1e-12)
    # ...while the baseline left c's stored cost stale at the old value.
    assert star.graph.g[vc] == pytest.approx(old_c, abs=1e-12)
    assert star.graph.g[vc] > new_c + 0.05

    # Against the independent shortest-path oracle: the consistent tree is
    # exact on every vertex, the baseline is not.
    dist = bench.dijkstra(sharp.graph, sc, 0)
    for vid in range(len(sharp.graph)):
        assert sharp.graph.g[vid] == pytest.approx(dist[vid], abs=1e-12)
    dist_star = bench.dijkstra(star.graph, sc, 0)
    assert star.graph.g[vc] > dist_star[vc] + 0.05

    # Stored values in the consistent tree are all committed (g == lmc).
    for vid in range(len(sharp.graph)):
        assert sharp.graph.g[vid] == sharp.graph.lmc[vid]
        assert not sharp.queue.contains(vid)


def test_pre_goal_variants_build_identical_graphs():
    sc = load_scenario(scenario_path("d2_boxes"))
    runs = {}
    for variant in (
        AlgorithmVariant.RRTSHARP_V0,
        AlgorithmVariant.RRTSHARP_V1,
        AlgorithmVariant.RRTSHARP_V2,
        AlgorithmVariant.RRTSHARP_V3,
    ):
        result = plan(sc, variant, 120, seed=3, history_stride=40, eta=0.15)
        first_goal = min(result.state.goal_ids, default=None)
        runs[variant] = (result.graph.positions, first_goal)
    positions0, goal0 = runs[AlgorithmVariant.RRTSHARP_V0]
    # No variant found the goal this early; the graphs must coincide...
    if all(goal is None for _, goal in runs.values()):
        for positions, _ in runs.values():
            assert positions == positions0
    else:
        # ...otherwise at least the prefixes up to the first goal vertex do.
        cut = min(goal for _, goal in runs.values() if goal is not None)
        for positions, _ in runs.values():
            assert positions[:cut] == positions0[:cut]


# ------------------------------------------------------------ whole runs


def test_committed_costs_match_dijkstra_on_promising_set():
    for name, seed in (("d2_boxes", 0), ("d2_zones", 1), ("d2_empty", 2)):
        sc = load_scenario(scenario_path(name))
        result = plan(
            sc, AlgorithmVariant.RRTSHARP_V1, 400, seed=seed, history_stride=100,
            eta=0.15,
        )
        state = result.state
        dist = bench.dijkstra(result.graph, sc, 0)
        gk = state.goal_key()
        checked = 0
        for vid in range(len(result.graph)):
            if key_lt(compute_key(state, vid), gk):
                assert abs(result.graph.g[vid] - dist[vid]) <= 1e-9
                checked += 1
        assert checked > 0


@pytest.mark.parametrize(
    "name, variant",
    [
        ("d2_zones", AlgorithmVariant.RRTSHARP_V2),
        ("d2_clutter", AlgorithmVariant.RRTSTAR_BASELINE),
    ],
    ids=["d2_zones-v2", "d2_clutter-rrtstar"],
)
def test_cached_edge_costs_match_geometry(name, variant):
    sc = load_scenario(scenario_path(name))
    graph = run_planner(sc, variant, 400, (5, 0), 100, eta=0.15).graph
    entries = 0
    for u, (nbrs, costs) in enumerate(zip(graph.neighbors, graph.costs)):
        assert len(costs) == len(nbrs)
        for v, c in zip(nbrs, costs):
            assert c == edge_cost(graph.positions[u], graph.positions[v], sc)
        entries += len(nbrs)
    assert entries == 2 * graph.edge_count > 0


@pytest.mark.parametrize(
    "name, variant, iterations",
    [
        ("d2_clutter", AlgorithmVariant.RRTSHARP_V0, 600),
        ("d2_zones", AlgorithmVariant.RRTSHARP_V2, 600),
        ("d5_boxes", AlgorithmVariant.RRTSTAR_BASELINE, 8000),
    ],
    ids=["d2_clutter-v0", "d2_zones-v2", "d5_boxes-rrtstar"],
)
def test_connections_match_full_scenario_recomputation(name, variant, iterations, monkeypatch):
    # The extension front checks and costs the edges of a large enough star
    # against the obstacles and zones near it only; every kept id and cost
    # must equal a per-candidate recomputation against the whole scenario,
    # and many edges must have been costed against a culled scenario.
    sc = load_scenario(scenario_path(name))
    boxes = len(sc.obstacles) + len(sc.zones)
    front = planner._connections
    seen = Counter()

    def culled_edge_cost(a, b, scenario):
        seen["culled" if len(scenario.obstacles) + len(scenario.zones) < boxes else "full"] += 1
        return edge_cost(a, b, scenario)

    def checked(state, x_rand):
        status, x_new, v_nearest, free_pairs = front(state, x_rand)
        if status is None:
            graph = state.graph
            positions = graph.positions
            candidates = graph.near(x_new, len(graph))
            if v_nearest not in candidates:
                candidates = sorted(candidates + [v_nearest])
            want = [
                (u, edge_cost(positions[u], x_new, sc).hex())
                for u in candidates
                if u == v_nearest or segment_obstacle_free(positions[u], x_new, sc)
            ]
            assert [(u, c.hex()) for u, c in free_pairs] == want
            seen["stars"] += 1
        return (status, x_new, v_nearest, free_pairs)

    monkeypatch.setattr(planner, "_connections", checked)
    monkeypatch.setattr(planner, "edge_cost", culled_edge_cost)
    run_planner(sc, variant, iterations, (3, 0), 100, eta=0.15)
    assert seen["stars"] > 300
    assert seen["culled"] > 1000


@pytest.mark.parametrize(
    "name, variant",
    [("d2_clutter", AlgorithmVariant.RRTSTAR_BASELINE), ("d2_zones", AlgorithmVariant.RRTSHARP_V2)],
    ids=["d2_clutter-rrtstar", "d2_zones-v2"],
)
def test_insert_builds_the_adjacency_of_one_add_edge_per_pair(name, variant, monkeypatch):
    # _insert adds a new vertex's whole row in one call; the adjacency must
    # be the one add_edge per connection, in free_pairs order, would build.
    sc = load_scenario(scenario_path(name))
    front = planner._connections
    last = []
    rows = {0: []}

    def captured(state, x_rand):
        out = front(state, x_rand)
        last[:] = [out[3]]
        return out

    def record(state, _it):
        vid = len(state.graph) - 1
        if vid not in rows:
            rows[vid] = last[0]

    monkeypatch.setattr(planner, "_connections", captured)
    graph = run_planner(sc, variant, 1500, (5, 0), 100, eta=0.15, on_iteration=record).graph
    assert sorted(rows) == list(range(len(graph)))
    rebuilt = Graph(sc.dimension, graph.gamma, graph.eta)
    for p in graph.positions:
        rebuilt.insert_vertex(p)
    for vid in range(len(graph)):
        for u, c in rows[vid]:
            rebuilt.add_edge(vid, u, c)
    assert rebuilt.edge_count == graph.edge_count > 10_000
    assert [a.tobytes() for a in graph.neighbors] == [a.tobytes() for a in rebuilt.neighbors]
    assert [a.tobytes() for a in graph.costs] == [a.tobytes() for a in rebuilt.costs]


@pytest.mark.parametrize("name", ["d2_zones", "d2_clutter"])
def test_rrtstar_reported_cost_reads_cached_costs(name, monkeypatch):
    # The baseline's reported cost sums the best path's cached edge costs; it
    # must equal the edge_cost sum from geometry, added from the goal back,
    # bit for bit, and compute no edge cost itself.
    sc = load_scenario(scenario_path(name))
    calls = Counter()
    geometric_cost = planner.edge_cost

    def counted_edge_cost(a, b, scenario):
        calls["edge_cost"] += 1
        return geometric_cost(a, b, scenario)

    monkeypatch.setattr(planner, "edge_cost", counted_edge_cost)
    checked = []

    def observer(state, iteration):
        if iteration % 50:
            return
        before = calls["edge_cost"]
        reported = state.reported_cost()
        assert calls["edge_cost"] == before
        best_vid, best = state.best_goal()
        if best_vid is None:
            assert reported == INF
            return
        path = planner._walk_best_path(state.graph, best_vid)
        positions = state.graph.positions
        want = 0.0
        for k in range(len(path) - 1, 0, -1):
            want += geometric_cost(positions[path[k - 1]], positions[path[k]], sc)
        assert reported == want
        checked.append(reported)

    run_planner(
        sc, AlgorithmVariant.RRTSTAR_BASELINE, 800, (5, 0), 100, eta=0.15,
        on_iteration=observer,
    )
    assert len(checked) >= 4


def test_make_planner_state_draws_no_sample():
    # The first block of samples is drawn by the run loop's first
    # sample_free call, not while the state is set up.
    sc = load_scenario(scenario_path("d2_clutter"))
    for variant in AlgorithmVariant:
        state = make_planner_state(sc, variant, PlannerParams(eta=0.15, gamma=1.0), seed=(4, 0))
        fresh = SeededRng((4, 0))
        assert state.rng._gen.bit_generator.state == fresh._gen.bit_generator.state


def test_plan_deterministic_for_fixed_seed():
    sc = load_scenario(scenario_path("d2_empty"))
    r1 = plan(sc, AlgorithmVariant.RRTSHARP_V0, 300, seed=7, history_stride=50, eta=0.15)
    r2 = plan(sc, AlgorithmVariant.RRTSHARP_V0, 300, seed=7, history_stride=50, eta=0.15)
    assert r1.graph.positions == r2.graph.positions
    assert r1.graph.g == r2.graph.g
    assert r1.best_cost == r2.best_cost
    assert r1.cost_history.costs() == r2.cost_history.costs()
    r3 = plan(sc, AlgorithmVariant.RRTSHARP_V0, 300, seed=8, history_stride=50, eta=0.15)
    assert r3.graph.positions != r1.graph.positions


def test_best_cost_is_exact_path_edge_sum():
    sc = load_scenario(scenario_path("d2_empty"))
    result = plan(sc, AlgorithmVariant.RRTSHARP_V0, 1500, seed=0, history_stride=100, eta=0.15)
    assert math.isfinite(result.best_cost)
    assert result.best_path[0] == 0
    assert sc.goal.contains(result.graph.positions[result.best_path[-1]])
    total = 0.0
    for u, v in zip(result.best_path, result.best_path[1:]):
        total += edge_cost(result.graph.positions[u], result.graph.positions[v], sc)
    assert total == result.best_cost  # bitwise: same additions, same order
    for u, v in zip(result.best_path, result.best_path[1:]):
        assert result.graph.parent[v] == u


def test_history_iterations_and_monotone_costs():
    sc = load_scenario(scenario_path("d2_empty"))
    result = plan(sc, AlgorithmVariant.RRTSHARP_V1, 250, seed=4, history_stride=50, eta=0.15)
    assert result.cost_history.iterations() == [0, 50, 100, 150, 200, 250]
    costs = result.cost_history.costs()
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    assert costs[0] == INF


def test_plan_zero_iterations():
    sc = load_scenario(scenario_path("d2_empty"))
    result = plan(sc, AlgorithmVariant.RRTSHARP_V2, 0, seed=0, history_stride=10, eta=0.15)
    assert result.best_path == []
    assert result.best_cost == INF
    assert result.cost_history.samples[0][0] == 0
    assert result.cost_history.costs() == [INF]
    assert len(result.graph) == 1


def test_plan_argument_validation():
    sc = load_scenario(scenario_path("d2_empty"))
    with pytest.raises(ValueError):
        plan(sc, AlgorithmVariant.RRTSHARP_V0, -1, seed=0, eta=0.15)
    with pytest.raises(ValueError):
        plan(sc, AlgorithmVariant.RRTSHARP_V0, 10, seed=0, history_stride=0, eta=0.15)


BOTH_FAMILIES = pytest.mark.parametrize(
    "variant",
    [AlgorithmVariant.RRTSHARP_V0, AlgorithmVariant.RRTSTAR_BASELINE],
    ids=["v0", "rrtstar"],
)


@BOTH_FAMILIES
@pytest.mark.parametrize(
    "eta, gamma",
    [(math.nan, None), (INF, None), (0.0, None), (0.15, math.nan), (0.15, -1.0)],
    ids=["eta-nan", "eta-inf", "eta-0", "gamma-nan", "gamma-neg"],
)
def test_non_finite_or_nonpositive_radii_rejected(variant, eta, gamma):
    sc = load_scenario(scenario_path("d2_clutter"))
    with pytest.raises(ValueError, match="finite and positive"):
        run_planner(sc, variant, 50, 0, 10, eta=eta, gamma=gamma)


@BOTH_FAMILIES
def test_run_loop_reaches_steps_through_module_globals(monkeypatch, variant):
    """Tracers patch these planner module attributes; the run loop must look
    each one up when it calls it, for either family."""
    calls = Counter()
    outcomes = Counter()

    def count(name):
        original = getattr(planner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = original(*args, **kwargs)
            if name.endswith("extend"):
                outcomes[out[0]] += 1
            return out

        monkeypatch.setattr(planner, name, wrapper)

    for name in ("sample_free", "extend", "rrtstar_extend", "reduce_inconsistency"):
        count(name)
    sc = load_scenario(scenario_path("d2_empty"))
    result = run_planner(sc, variant, 50, 0, 10, eta=0.15)
    baseline = variant is AlgorithmVariant.RRTSTAR_BASELINE
    assert calls["sample_free"] == 50
    assert calls["rrtstar_extend" if baseline else "extend"] == 50
    assert calls["extend" if baseline else "rrtstar_extend"] == 0
    assert calls["reduce_inconsistency"] == (0 if baseline else 51)
    assert outcomes[ExtendStatus.EXTENDED] + 1 == len(result.graph)


def test_observer_called_every_iteration():
    sc = load_scenario(scenario_path("d2_empty"))
    seen = []
    plan(
        sc, AlgorithmVariant.RRTSHARP_V0, 25, seed=0, history_stride=5, eta=0.15,
        on_iteration=lambda state, it: seen.append(it),
    )
    assert seen == list(range(1, 26))


# --------------------------------------------------------------- baseline


def test_rrtstar_run_contract():
    sc = load_scenario(scenario_path("d2_empty"))
    result = plan_rrtstar(sc, 1500, seed=0, history_stride=100, eta=0.15)
    graph = result.graph
    assert math.isfinite(result.best_cost)
    # Every vertex is committed by construction; dumps reuse the same
    # category space as the consistent-tree planner.
    for vid in range(len(graph)):
        assert graph.g[vid] == graph.lmc[vid]
        assert classify_values(graph.g[vid], graph.lmc[vid]) in (
            VertexCategory.CONSISTENT_FINITE,
            VertexCategory.CONSISTENT_INFINITE,
        )
    # The reported cost is the realizable edge sum along the parent chain.
    total = 0.0
    for u, v in zip(result.best_path, result.best_path[1:]):
        assert graph.parent[v] == u
        total += edge_cost(graph.positions[u], graph.positions[v], sc)
    assert total == pytest.approx(result.best_cost, abs=1e-12)
    assert result.best_path[0] == 0


def test_rrtstar_deterministic_and_matches_shared_stream():
    sc = load_scenario(scenario_path("d2_empty"))
    r1 = plan_rrtstar(sc, 200, seed=5, history_stride=50, eta=0.15)
    r2 = plan_rrtstar(sc, 200, seed=5, history_stride=50, eta=0.15)
    assert r1.graph.positions == r2.graph.positions
    assert r1.best_cost == r2.best_cost


def test_run_planner_dispatch():
    sc = load_scenario(scenario_path("d2_empty"))
    r_star = run_planner(sc, AlgorithmVariant.RRTSTAR_BASELINE, 50, 0, 10, eta=0.15)
    assert isinstance(r_star.state, RRTStarState)
    r_sharp = run_planner(sc, AlgorithmVariant.RRTSHARP_V1, 50, 0, 10, eta=0.15)
    assert r_sharp.state.variant is AlgorithmVariant.RRTSHARP_V1
