"""Benchmark-harness tests.

dijkstra() is itself an oracle for the planner, so here it gets its own
independent check: a Bellman-Ford relaxation sweep over the same graph.
"""

import math
from array import array

import pytest

from rrtsharp.bench import (
    dijkstra,
    run_trials,
    stats_csv_rows,
    time_ratio,
    trial_seed,
    verify_consistency,
)
from rrtsharp.planner import (
    AlgorithmVariant,
    plan,
    run_planner,
)
from rrtsharp.space import AxisBox, Scenario, SeededRng, edge_cost, load_scenario
from rrtsharp.scenarios import scenario_path

INF = math.inf


def bellman_ford(graph, scenario, source=0):
    n = len(graph)
    dist = [INF] * n
    dist[source] = 0.0
    edges = []
    for u, v in graph.undirected_edges():
        w = edge_cost(graph.positions[u], graph.positions[v], scenario)
        edges.append((u, v, w))
    for _ in range(n - 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


# -------------------------------------------------------------- dijkstra


def test_dijkstra_matches_bellman_ford():
    for name, seed in (("d2_boxes", 0), ("d2_zones", 3)):
        sc = load_scenario(scenario_path(name))
        result = plan(
            sc, AlgorithmVariant.RRTSHARP_V0, 250, seed=seed, history_stride=50,
            eta=0.15,
        )
        got = dijkstra(result.graph, sc, 0)
        want = bellman_ford(result.graph, sc, 0)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            if math.isinf(a):
                assert math.isinf(b)
            else:
                assert a == pytest.approx(b, abs=1e-12)


def test_dijkstra_hand_graph():
    sc = Scenario(
        bounds=AxisBox((0.0, 0.0), (10.0, 10.0)),
        obstacles=(),
        zones=(),
        x_init=(0.0, 0.0),
        goal=AxisBox((9.0, 9.0), (9.5, 9.5)),
    )
    from rrtsharp.nngraph import Graph

    g = Graph(2, gamma=1.0, eta=1.0)
    g.insert_vertex((0.0, 0.0))  # 0
    g.insert_vertex((3.0, 4.0))  # 1: dist 5 from 0
    g.insert_vertex((6.0, 8.0))  # 2: dist 5 from 1, 10 from 0
    g.insert_vertex((9.0, 0.0))  # 3: disconnected
    g.add_edge(0, 1, 5.0)
    g.add_edge(1, 2, 5.0)
    g.add_edge(0, 2, 10.0)
    dist = dijkstra(g, sc, 0)
    assert dist[0] == 0.0
    assert dist[1] == pytest.approx(5.0, abs=1e-12)
    assert dist[2] == pytest.approx(10.0, abs=1e-12)
    assert math.isinf(dist[3])


def test_dijkstra_ignores_cached_edge_costs():
    # The oracle recomputes every edge cost from geometry, so corrupting the
    # planner's cached costs must not move a single distance.
    sc = load_scenario(scenario_path("d2_zones"))
    result = plan(
        sc, AlgorithmVariant.RRTSHARP_V0, 300, seed=2, history_stride=100, eta=0.15
    )
    graph = result.graph
    before = dijkstra(graph, sc, 0)
    assert sum(math.isfinite(d) for d in before) > 1
    for row in graph.costs:
        row[:] = array("d", [1e9] * len(row))
    assert dijkstra(graph, sc, 0) == before


# ---------------------------------------------------------- consistency


def test_verify_consistency_clean_run():
    sc = load_scenario(scenario_path("d2_boxes"))
    result = plan(
        sc, AlgorithmVariant.RRTSHARP_V0, 400, seed=0, history_stride=100, eta=0.15
    )
    report = verify_consistency(result.state)
    assert report.ok
    assert report.violations == []


def test_verify_consistency_flags_corrupted_g():
    sc = load_scenario(scenario_path("d2_empty"))
    result = plan(
        sc, AlgorithmVariant.RRTSHARP_V0, 600, seed=0, history_stride=100, eta=0.15
    )
    state = result.state
    # Corrupt a committed promising vertex: it becomes inconsistent without
    # being queued, which trips both checks.
    victim = result.best_path[1]
    state.graph.g[victim] += 0.5
    report = verify_consistency(state)
    assert not report.ok
    kinds = {what for _, what in report.violations}
    assert "queue membership does not match inconsistency" in kinds
    assert any(vid == victim for vid, _ in report.violations)


def test_verify_consistency_no_goal_everything_must_be_consistent():
    sc = load_scenario(scenario_path("d2_boxes"))
    result = plan(
        sc, AlgorithmVariant.RRTSHARP_V1, 40, seed=0, history_stride=10, eta=0.15
    )
    state = result.state
    assert not state.goal_ids  # 40 iterations never reach the goal corner
    assert verify_consistency(state).ok
    state.graph.g[0] = 123.0
    report = verify_consistency(state)
    assert not report.ok
    assert any("no goal" in what for _, what in report.violations)


# --------------------------------------------------------------- trials


def test_trial_seed_is_variant_independent():
    assert trial_seed(42, 3) == (42, 3)
    a = SeededRng(trial_seed(42, 3))
    b = SeededRng(trial_seed(42, 3))
    assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]


def test_matched_trials_share_sample_streams_across_variants():
    """Before any goal vertex exists every algorithm accepts the same
    extensions, so matched-seed graphs coincide across all five."""
    sc = load_scenario(scenario_path("d2_boxes"))
    runs = [
        run_planner(sc, variant, 40, trial_seed(11, 0), 10, eta=0.15)
        for variant in AlgorithmVariant
    ]
    positions0 = runs[0].graph.positions
    for r in runs[1:]:
        assert r.graph.positions == positions0


def test_run_trials_aggregation_matches_manual_two_pass():
    sc = load_scenario(scenario_path("d2_empty"))
    variants = [AlgorithmVariant.RRTSHARP_V0, AlgorithmVariant.RRTSTAR_BASELINE]
    trials = 3
    iters = 400
    stats = run_trials(sc, variants, trials, iters, base_seed=5, eta=0.15,
                       history_stride=100)
    for variant in variants:
        st = stats[variant]
        assert st.trial_count == trials
        assert st.failed_trials == 0
        assert st.iterations == [0, 100, 200, 300, 400]
        histories = [
            run_planner(sc, variant, iters, trial_seed(5, t), 100, eta=0.15)
            .cost_history
            for t in range(trials)
        ]
        for idx in range(len(st.iterations)):
            costs = [h.samples[idx][2] for h in histories]
            finite = [c for c in costs if math.isfinite(c)]
            if finite:
                mean = sum(finite) / len(finite)
                var = sum((c - mean) ** 2 for c in finite) / len(finite)
            else:
                mean, var = INF, 0.0
            assert st.mean_cost[idx] == pytest.approx(mean, abs=1e-12) or (
                math.isinf(mean) and math.isinf(st.mean_cost[idx])
            )
            assert st.variance[idx] == pytest.approx(var, abs=1e-12)
            assert st.unsolved_fraction[idx] == (len(costs) - len(finite)) / len(costs)


def test_run_trials_single_trial_zero_variance():
    sc = load_scenario(scenario_path("d2_empty"))
    stats = run_trials(
        sc, [AlgorithmVariant.RRTSHARP_V0], 1, 600, base_seed=0, eta=0.15,
        history_stride=200,
    )
    st = stats[AlgorithmVariant.RRTSHARP_V0]
    assert st.trial_count == 1
    assert all(v == 0.0 for v in st.variance)
    assert math.isfinite(st.mean_cost[-1])
    assert st.unsolved_fraction[-1] == 0.0


def test_run_trials_unsolved_grid_points_report_infinite_mean():
    sc = load_scenario(scenario_path("d2_boxes"))
    stats = run_trials(
        sc, [AlgorithmVariant.RRTSHARP_V1], 2, 30, base_seed=1, eta=0.15,
        history_stride=10,
    )
    st = stats[AlgorithmVariant.RRTSHARP_V1]
    # 30 iterations cannot cross the walls: every grid point is unsolved.
    assert all(math.isinf(m) for m in st.mean_cost)
    assert all(v == 0.0 for v in st.variance)
    assert all(u == 1.0 for u in st.unsolved_fraction)


def test_run_trials_counts_failed_trials():
    full = AxisBox((0.0, 0.0), (1.0, 1.0))
    sc = Scenario(
        bounds=full,
        obstacles=(full,),  # rejection sampling can never succeed
        zones=(),
        x_init=(0.0, 0.0),
        goal=AxisBox((0.4, 0.4), (0.6, 0.6)),
    )
    stats = run_trials(
        sc, [AlgorithmVariant.RRTSHARP_V0], 2, 10, base_seed=0, eta=0.15,
    )
    st = stats[AlgorithmVariant.RRTSHARP_V0]
    assert st.failed_trials == 2
    assert st.trial_count == 0
    assert st.iterations == []


def test_run_trials_rejects_nonpositive_trials():
    sc = load_scenario(scenario_path("d2_empty"))
    with pytest.raises(ValueError):
        run_trials(sc, [AlgorithmVariant.RRTSHARP_V0], 0, 10, base_seed=0, eta=0.15)


# ----------------------------------------------------------------- csv


def test_stats_csv_rows_shape():
    sc = load_scenario(scenario_path("d2_empty"))
    stats = run_trials(
        sc, [AlgorithmVariant.RRTSHARP_V0], 2, 100, base_seed=0, eta=0.15,
        history_stride=50,
    )
    rows = stats_csv_rows(stats)
    assert rows[0] == "variant,iteration,mean_cost,variance,unsolved_fraction,mean_elapsed_s"
    assert len(rows) == 1 + 3  # header + grid points 0, 50, 100
    for row in rows[1:]:
        fields = row.split(",")
        assert fields[0] == "rrtsharp-v0"
        int(fields[1])
        float(fields[2])
        float(fields[3])
        float(fields[4])
        float(fields[5])


# ---------------------------------------------------------------- timing


def test_time_ratio_positive_and_aligned():
    sc = load_scenario(scenario_path("d2_empty"))
    ratios = time_ratio(
        sc, [AlgorithmVariant.RRTSHARP_V2], 1, 120, base_seed=0, eta=0.15,
        history_stride=40,
    )
    pairs = ratios[AlgorithmVariant.RRTSHARP_V2]
    assert [it for it, _ in pairs] == [40, 80, 120]
    assert all(r > 0.0 for _, r in pairs)
