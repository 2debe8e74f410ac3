"""Tests of the benchmark's own checkers and tracer.

    python3 -m pytest perfbench/tests -q

The float checkers are compared with exact rational arithmetic
(fractions.Fraction) on random and on face-grazing segments, and every
workload's check must reject a tampered result.
"""

import copy
import dataclasses
import json
import math
import random
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from rrtsharp import bench, planner, space  # noqa: E402
from rrtsharp.nngraph import Graph  # noqa: E402
from rrtsharp.pqueue import IndexedQueue  # noqa: E402
from rrtsharp.scenarios import scenario_path  # noqa: E402
from tracing import Tracer  # noqa: E402

# Dyadic grid: differences and quotients of grid coordinates stay exact
# enough that equal parameters compute to equal floats.
GRID = [k / 8 for k in range(9)]


def exact_hits_open_box(a, b, lo, hi):
    """Exact: does some t in [0, 1] put a + t(b - a) strictly inside?"""
    t0, t1 = Fraction(0), Fraction(1)
    for ai, bi, l, h in zip(a, b, lo, hi):
        ai, di = Fraction(ai), Fraction(bi) - Fraction(ai)
        if di == 0:
            if not Fraction(l) < ai < Fraction(h):
                return False
            continue
        u, v = (Fraction(l) - ai) / di, (Fraction(h) - ai) / di
        t0, t1 = max(t0, min(u, v)), min(t1, max(u, v))
    return t0 < t1


def exact_weighted(a, b, world):
    """Exact integral of the coefficient over t in [0, 1]: the default
    everywhere plus, per zone, (coefficient - default) times the length of
    the parameter interval clipped to the zone's open interior."""
    default = Fraction(world.default_coefficient)
    total = default
    for lo, hi, coef in world.zones:
        t0, t1 = Fraction(0), Fraction(1)
        for ai, bi, l, h in zip(a, b, lo, hi):
            ai, di = Fraction(ai), Fraction(bi) - Fraction(ai)
            if di == 0:
                if not Fraction(l) < ai < Fraction(h):
                    t1 = t0
                continue
            u, v = (Fraction(l) - ai) / di, (Fraction(h) - ai) / di
            t0, t1 = max(t0, min(u, v)), min(t1, max(u, v))
        if t0 < t1:
            total += (Fraction(coef) - default) * (t1 - t0)
    return total


def random_box(rng, d):
    lo, hi = [], []
    for _ in range(d):
        x, y = sorted(rng.uniform(0, 1) for _ in range(2))
        lo.append(x)
        hi.append(y)
    return tuple(lo), tuple(hi)


def grazing_cases(d=2):
    """Segments and boxes on the dyadic grid: segments along faces, through
    corners and ending on faces, mixed with crossing ones."""
    rng = random.Random(7)
    for _ in range(4000):
        lo, hi = [], []
        for _ in range(d):
            i, j = sorted(rng.sample(range(9), 2))
            lo.append(GRID[i])
            hi.append(GRID[j])
        a = tuple(rng.choice(GRID) for _ in range(d))
        b = tuple(rng.choice(GRID) for _ in range(d))
        yield a, b, tuple(lo), tuple(hi)


def touches_closed_box(a, b, lo, hi):
    t0, t1 = Fraction(0), Fraction(1)
    for ai, bi, l, h in zip(a, b, lo, hi):
        ai, di = Fraction(ai), Fraction(bi) - Fraction(ai)
        if di == 0:
            if not Fraction(l) <= ai <= Fraction(h):
                return False
            continue
        u, v = (Fraction(l) - ai) / di, (Fraction(h) - ai) / di
        t0, t1 = max(t0, min(u, v)), min(t1, max(u, v))
    return t0 <= t1


@pytest.mark.parametrize("d", [2, 5])
def test_segment_test_matches_exact_on_random_segments(d):
    rng = random.Random(d)
    for _ in range(3000):
        lo, hi = random_box(rng, d)
        a = tuple(rng.uniform(-0.2, 1.2) for _ in range(d))
        b = tuple(rng.uniform(-0.2, 1.2) for _ in range(d))
        assert checks.segment_hits_open_box(a, b, lo, hi) == exact_hits_open_box(a, b, lo, hi)


@pytest.mark.parametrize("d", [2, 3])
def test_segment_test_matches_exact_on_face_grazing_segments(d):
    grazing = 0
    for a, b, lo, hi in grazing_cases(d):
        expect = exact_hits_open_box(a, b, lo, hi)
        assert checks.segment_hits_open_box(a, b, lo, hi) == expect, (a, b, lo, hi)
        grazing += touches_closed_box(a, b, lo, hi) and not expect
    assert grazing > 100  # the set really exercises face and corner contact


def zones_world(zones):
    return checks.World(obstacles=(), zones=tuple(zones), x_init=(0.0, 0.0), goal=((0.9, 0.9), (1.0, 1.0)))


def test_line_integral_matches_exact_on_random_segments():
    world = checks.load_world(scenario_path("d2_zones"))
    rng = random.Random(3)
    for _ in range(3000):
        a = (rng.uniform(0, 1), rng.uniform(0, 1))
        b = (rng.uniform(0, 1), rng.uniform(0, 1))
        got = checks.weighted_parameter_length(a, b, world)
        assert math.isclose(got, exact_weighted(a, b, world), rel_tol=1e-12)


def test_line_integral_matches_exact_on_face_grazing_segments():
    rng = random.Random(11)
    coefs = [0.5, 2.0, 3.0, 0.25]
    for a, b, lo, hi in grazing_cases():
        # A second zone sharing the first one's upper face on axis 0.
        if hi[0] == 1.0:
            continue
        lo2 = (hi[0],) + lo[1:]
        hi2 = (min(1.0, hi[0] + 0.25),) + hi[1:]
        world = zones_world([(lo, hi, rng.choice(coefs)), (lo2, hi2, rng.choice(coefs))])
        got = checks.weighted_parameter_length(a, b, world)
        assert math.isclose(got, exact_weighted(a, b, world), rel_tol=1e-12), (a, b, lo, hi)


def test_line_integral_agrees_with_planner_edge_cost():
    sc = space.load_scenario(scenario_path("d2_zones"))
    world = checks.load_world(scenario_path("d2_zones"))
    rng = random.Random(5)
    for _ in range(2000):
        a = (rng.uniform(0, 1), rng.uniform(0, 1))
        b = tuple(x + rng.uniform(-0.15, 0.15) for x in a)
        assert math.isclose(checks.line_integral(a, b, world), space.edge_cost(a, b, sc), rel_tol=1e-12)


# ------------------------------------------------------ workload checks

SMALL = {
    "zones2d": dict(iterations=400, runs=2),
    "boxes5d": dict(iterations=1500),
    "clutter2d-compare": dict(runs=2),
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def small_run(request, tmp_path_factory):
    """A shortened instance of each workload with its passing outputs."""
    wl = dataclasses.replace(workloads.WORKLOADS[request.param], **SMALL[request.param])
    op = workloads.Operation(wl, 3, tmp_path_factory.mktemp(wl.name))
    out = op()
    world = checks.load_world(op.scenario_file)
    assert workloads.check_workload(wl, world, out) == []
    return wl, world, out


def tampered(out, world, how):
    """Deep copy of the outcome with its first solved run altered."""
    out = copy.deepcopy(out)
    res = next(r.result for r in out.runs if r.result.best_path)
    path, graph = res.best_path, res.graph
    if how == "cost":
        res.best_cost *= 1.0 + 1e-6
    elif how == "vertex":
        # zones2d has no obstacles: its vertex goes into the middle of a zone.
        lo, hi = world.obstacles[0] if world.obstacles else world.zones[0][:2]
        graph.positions[path[len(path) // 2]] = tuple((l + h) / 2 for l, h in zip(lo, hi))
    elif how == "edge":
        u, v = path[-2], path[-1]
        for x, y in ((u, v), (v, u)):
            graph.neighbors[x] = array("q", [n for n in graph.neighbors[x] if n != y])
        graph.edge_count -= 1
    return out


def test_check_rejects_nudged_cost(small_run):
    wl, world, out = small_run
    fails = workloads.check_workload(wl, world, tampered(out, world, "cost"))
    assert any("line integral" in f for f in fails)


def test_check_rejects_path_vertex_moved_into_obstacle(small_run):
    wl, world, out = small_run
    fails = workloads.check_workload(wl, world, tampered(out, world, "vertex"))
    assert fails
    if world.obstacles:
        assert any("enters obstacle" in f for f in fails)


def test_check_rejects_dropped_edge(small_run):
    wl, world, out = small_run
    fails = workloads.check_workload(wl, world, tampered(out, world, "edge"))
    assert any("not in the graph" in f for f in fails)


def test_compare_check_rejects_tampered_stats(small_run):
    wl, world, out = small_run
    if not wl.compare:
        pytest.skip("single-run workload")
    *rows, last = out.stats_csv.splitlines()
    cells = last.split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-6))
    bad = dataclasses.replace(out, stats_csv="\n".join([*rows, ",".join(cells)]))
    assert workloads.check_workload(wl, world, bad)


def test_compare_runs_carry_the_seeds_compare_gave_them(small_run):
    wl, _world, out = small_run
    if not wl.compare:
        pytest.skip("single-run workload")
    scenario = space.load_scenario(scenario_path(wl.scenario))
    for r in out.runs[1 :: wl.runs]:
        again = bench.run_planner(
            scenario, planner.AlgorithmVariant.parse(r.variant), wl.iterations, r.seed,
            wl.stride, eta=workloads.ETA,
        )
        assert workloads.fingerprint([workloads.Labeled(r.variant, r.seed, again)]) == (
            workloads.fingerprint([r])
        )


# ------------------------------------------------------------- tracing


def test_tracer_restores_every_attribute_and_matches_untraced():
    wl = dataclasses.replace(workloads.WORKLOADS["zones2d"], iterations=300, runs=1)
    op = workloads.Operation(wl, 1, None)
    plain = op()
    owners = (planner, bench, Graph, IndexedQueue, space.SeededRng)
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer()
    with tracer.installed():
        traced = op()
    assert [dict(vars(o)) for o in owners] == before
    assert workloads.round_digest(traced) == workloads.round_digest(plain)
    graph = traced.runs[0].result.graph
    assert traced.sizes == [(len(graph), graph.edge_count)]
    assert tracer.extended() + 1 == len(graph)
    m = tracer.metrics(traced.sizes)
    assert m["space.sample_free.calls"] == m["nngraph.nearest.calls"] == 300
    assert m["planner.extend.accept_ratio"] == pytest.approx((len(graph) - 1) / 300)


def test_benchmark_json_lists_what_the_worker_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.E2E_UNITS
    tracer = Tracer()
    with tracer.installed():
        pass
    names = list(tracer.metrics([])) + ["trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: worker.per_layer_unit(n) for n in names
    }
