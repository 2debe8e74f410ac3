"""Trial harness, oracles and invariant checks for the planners.

``run_trials`` repeats matched-seed runs across algorithm variants and
aggregates anytime costs on a fixed iteration grid.  ``dijkstra`` is an
independent shortest-path oracle over the grown graph (it reads positions and
adjacency only, never the planner's g/lmc fields).  ``verify_consistency``
checks the consistent-tree postcondition and the queue/inconsistency
biconditional on a live planner state.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .nngraph import Graph
from .planner import (
    AlgorithmVariant,
    CostHistory,
    PlannerState,
    compute_key,
    run_planner,
)
from .pqueue import key_lt
from .space import SamplingBudgetError, Scenario, edge_cost

__all__ = [
    "CostHistory",
    "TrialStats",
    "run_trials",
    "dijkstra",
    "verify_consistency",
    "ConsistencyReport",
    "time_ratio",
    "stats_csv_rows",
]

INF = math.inf


@dataclass
class TrialStats:
    """Aggregate anytime statistics for one variant over repeated trials.

    Lists are aligned with ``iterations`` (multiples of the history stride).
    ``mean_cost`` and ``variance`` (population variance) cover only the
    trials whose best cost is finite at that grid point; ``unsolved_fraction``
    is the share of (successful) trials still at infinite cost.  Trials that
    raised are counted in ``failed_trials`` and excluded from the grid.
    """

    variant: AlgorithmVariant
    iterations: list[int] = field(default_factory=list)
    mean_cost: list[float] = field(default_factory=list)
    variance: list[float] = field(default_factory=list)
    unsolved_fraction: list[float] = field(default_factory=list)
    mean_elapsed_s: list[float] = field(default_factory=list)
    trial_count: int = 0
    failed_trials: int = 0


def trial_seed(base_seed: int, trial: int) -> tuple[int, int]:
    """Seed material for one trial.

    Deliberately independent of the variant so matched trials see identical
    sample sequences across algorithms.
    """
    return (base_seed, trial)


def _aggregate(
    variant: AlgorithmVariant, histories: list[CostHistory], failed: int
) -> TrialStats:
    stats = TrialStats(variant=variant, trial_count=len(histories), failed_trials=failed)
    if not histories:
        return stats
    length = min(len(h.samples) for h in histories)
    for idx in range(length):
        iteration = histories[0].samples[idx][0]
        costs = [h.samples[idx][2] for h in histories]
        elapsed = [h.samples[idx][1] for h in histories]
        finite = [c for c in costs if math.isfinite(c)]
        if finite:
            mean = sum(finite) / len(finite)
            var = sum((c - mean) ** 2 for c in finite) / len(finite)
        else:
            mean = INF
            var = 0.0
        stats.iterations.append(iteration)
        stats.mean_cost.append(mean)
        stats.variance.append(var)
        stats.unsolved_fraction.append((len(costs) - len(finite)) / len(costs))
        stats.mean_elapsed_s.append(sum(elapsed) / len(elapsed))
    return stats


def run_trials(
    scenario: Scenario,
    variants: list[AlgorithmVariant],
    trials: int,
    max_iterations: int,
    base_seed: int,
    *,
    eta: float,
    gamma: float | None = None,
    history_stride: int = 10,
) -> dict[AlgorithmVariant, TrialStats]:
    """Run ``trials`` matched-seed runs of every variant and aggregate.

    Trial t of every variant is seeded from (base_seed, t), so all variants
    consume identical sample streams for a given t.  Runs execute serially;
    a trial that raises a planner error is recorded as failed and skipped.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    out: dict[AlgorithmVariant, TrialStats] = {}
    for variant in variants:
        histories: list[CostHistory] = []
        failed = 0
        for t in range(trials):
            try:
                result = run_planner(
                    scenario,
                    variant,
                    max_iterations,
                    trial_seed(base_seed, t),
                    history_stride,
                    eta=eta,
                    gamma=gamma,
                )
            except SamplingBudgetError:
                failed += 1
                continue
            histories.append(result.cost_history)
        out[variant] = _aggregate(variant, histories, failed)
    return out


def dijkstra(graph: Graph, scenario: Scenario, source: int = 0) -> list[float]:
    """Shortest cost-to-come from ``source`` over the graph's adjacency.

    Independent oracle: consumes only positions, neighbor lists and the
    scenario cost model, never the planner's stored g/lmc values.
    """
    n = len(graph)
    dist = [INF] * n
    if n == 0:
        return dist
    dist[source] = 0.0
    positions = graph.positions
    neighbors = graph.neighbors
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        pu = positions[u]
        for v in neighbors[u]:
            nd = d + edge_cost(pu, positions[v], scenario)
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


@dataclass
class ConsistencyReport:
    ok: bool
    violations: list[tuple[int, str]] = field(default_factory=list)


def verify_consistency(state: PlannerState) -> ConsistencyReport:
    """Check the consistent-tree postcondition on a live state.

    After any reduce_inconsistency return these must hold:
    * every vertex whose key strictly precedes the goal key has g == lmc;
    * a vertex sits in the queue if and only if g != lmc.
    The goal key is recomputed from scratch here rather than read from the
    planner's cache.
    """
    graph = state.graph
    g = graph.g
    lmc = graph.lmc
    gk = None
    for vid in state.goal_ids:
        k = compute_key(state, vid)
        if gk is None or key_lt(k, gk):
            gk = k
    violations: list[tuple[int, str]] = []
    for vid in range(len(graph)):
        inconsistent = g[vid] != lmc[vid]
        if gk is not None and key_lt(compute_key(state, vid), gk) and inconsistent:
            violations.append((vid, "promising vertex not consistent"))
        if gk is None and inconsistent:
            violations.append((vid, "inconsistent vertex with no goal in graph"))
        if inconsistent != state.queue.contains(vid):
            violations.append((vid, "queue membership does not match inconsistency"))
    return ConsistencyReport(ok=not violations, violations=violations)


def time_ratio(
    stats: dict[AlgorithmVariant, TrialStats], baseline: TrialStats
) -> dict[AlgorithmVariant, list[tuple[int, float]]]:
    """Per-variant elapsed-time ratios against the rewiring baseline.

    The ratio at each positive grid iteration is the variant's
    ``mean_elapsed_s`` over the baseline's, so it comes from the trials that
    ``run_trials`` already timed.  Wall-clock comes from a monotonic timer,
    so ratios carry timer noise and are strictly positive.
    """
    out: dict[AlgorithmVariant, list[tuple[int, float]]] = {}
    for variant, st in stats.items():
        grid = zip(st.iterations, st.mean_elapsed_s, baseline.mean_elapsed_s)
        out[variant] = [(it, t / base) for it, t, base in grid if it > 0 and base > 0.0]
    return out


def stats_csv_rows(stats: dict[AlgorithmVariant, TrialStats]) -> list[str]:
    """Render TrialStats as CSV lines (header first)."""
    rows = ["variant,iteration,mean_cost,variance,unsolved_fraction,mean_elapsed_s"]
    for variant, st in stats.items():
        for idx, iteration in enumerate(st.iterations):
            rows.append(
                f"{variant.value},{iteration},{st.mean_cost[idx]!r},"
                f"{st.variance[idx]!r},{st.unsolved_fraction[idx]!r},"
                f"{st.mean_elapsed_s[idx]!r}"
            )
    return rows
