"""Incremental planners over the shared geometric graph.

Both planner families grow the same random geometric graph: sample, steer,
collision gate, r-disc neighborhood (``_connections``).  They differ only in
how costs are updated after each extension:

* The consistent-tree family (``extend``, variants V0..V3) keeps ``g`` (the
  committed cost-to-come) and ``lmc`` (the one-step lookahead over the
  neighbors) per vertex, queues every vertex where the two disagree under a
  two-component key, and ``reduce_inconsistency`` drains the queue until
  every vertex that could still improve the best known goal cost has
  g == lmc.  V1..V3 reject progressively more of the newly steered
  vertices; V0 keeps everything that passes the collision gate.
* The rewiring baseline (``rrtstar_extend``) picks the cheapest parent in
  the neighborhood and offers the new vertex as a parent to it, with no
  propagation beyond one hop, so descendants' stored costs go stale.

``plan`` (also ``run_planner``) runs any variant and returns the final
graph, the best path and a cost history sampled on a fixed iteration
stride; ``plan_rrtstar`` is shorthand for the baseline.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .nngraph import NO_PARENT, Graph, steer
from .pqueue import INFINITE_KEY, IndexedQueue, Key, key_lt
from .space import (
    DEFAULT_SAMPLE_BUDGET,
    Point,
    Scenario,
    SeededRng,
    edge_cost,
    heuristic,
    sample_free,
    segment_obstacle_free,
)

INF = math.inf

# Collision-free connections of a steered point: (vertex id, edge cost).
Pairs = list[tuple[int, float]]


class InvariantViolation(RuntimeError):
    """An internal planner invariant failed; indicates a bug, not bad input."""


class AlgorithmVariant(Enum):
    RRTSTAR_BASELINE = "rrtstar"
    RRTSHARP_V0 = "rrtsharp-v0"
    RRTSHARP_V1 = "rrtsharp-v1"
    RRTSHARP_V2 = "rrtsharp-v2"
    RRTSHARP_V3 = "rrtsharp-v3"

    @classmethod
    def parse(cls, token: str) -> "AlgorithmVariant":
        aliases = {
            "rrtstar": cls.RRTSTAR_BASELINE,
            "rrtsharp": cls.RRTSHARP_V0,
            "rrtsharp-v0": cls.RRTSHARP_V0,
            "v0": cls.RRTSHARP_V0,
            "rrtsharp-v1": cls.RRTSHARP_V1,
            "v1": cls.RRTSHARP_V1,
            "rrtsharp-v2": cls.RRTSHARP_V2,
            "v2": cls.RRTSHARP_V2,
            "rrtsharp-v3": cls.RRTSHARP_V3,
            "v3": cls.RRTSHARP_V3,
        }
        key = token.strip().lower()
        if key not in aliases:
            raise ValueError(
                f"unknown algorithm {token!r}; valid names: "
                + ", ".join(v.value for v in cls)
            )
        return aliases[key]


class VertexCategory(Enum):
    CONSISTENT_FINITE = "CONSISTENT_FINITE"
    CONSISTENT_INFINITE = "CONSISTENT_INFINITE"
    INCONSISTENT_FINITE = "INCONSISTENT_FINITE"
    INCONSISTENT_INF_G_FINITE_LMC = "INCONSISTENT_INF_G_FINITE_LMC"


def classify_values(g: float, lmc: float) -> VertexCategory:
    """Map a (g, lmc) pair onto its vertex category.

    A finite g with infinite lmc cannot arise (g is only ever assigned from
    lmc, and lmc never increases), so that combination raises.
    """
    if g == lmc:
        if math.isinf(g):
            return VertexCategory.CONSISTENT_INFINITE
        return VertexCategory.CONSISTENT_FINITE
    if math.isinf(lmc):
        raise InvariantViolation(f"finite g={g} with infinite lmc")
    if math.isinf(g):
        return VertexCategory.INCONSISTENT_INF_G_FINITE_LMC
    return VertexCategory.INCONSISTENT_FINITE


class ExtendStatus(Enum):
    EXTENDED = "extended"
    REJECTED = "rejected"
    COLLISION_BLOCKED = "collision_blocked"


@dataclass
class PlannerParams:
    eta: float
    gamma: float
    sample_budget: int = DEFAULT_SAMPLE_BUDGET


@dataclass
class CostHistory:
    """Anytime cost samples: (iteration, elapsed_seconds, best_cost)."""

    samples: list[tuple[int, float, float]] = field(default_factory=list)

    def iterations(self) -> list[int]:
        return [s[0] for s in self.samples]

    def costs(self) -> list[float]:
        return [s[2] for s in self.samples]


def gamma_rrg(scenario: Scenario) -> float:
    """Connection-radius constant from the scenario's free volume.

    gamma = 2 * (1 + 1/d)^(1/d) * (mu_free / zeta_d)^(1/d), where zeta_d is
    the unit-ball volume.  Obstacle volume is subtracted from the bounds
    volume to estimate mu_free.
    """
    d = scenario.dimension
    mu = scenario.free_volume()
    zeta = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    return 2.0 * (1.0 + 1.0 / d) ** (1.0 / d) * (mu / zeta) ** (1.0 / d)


class RunState:
    """Mutable run state shared by both planner families.

    Exposes the graph and goal bookkeeping so observers (snapshot dumps,
    invariant checkers) can inspect a live run between iterations.  Each
    family supplies what ``plan`` calls: ``step`` (one extension toward a
    sample), ``settle`` (work after each extension) and ``reported_cost``.
    """

    def __init__(
        self,
        scenario: Scenario,
        variant: AlgorithmVariant,
        params: PlannerParams,
        rng: SeededRng,
    ) -> None:
        self.scenario = scenario
        self.variant = variant
        self.params = params
        self.rng = rng
        self.graph = Graph(scenario.dimension, params.gamma, params.eta)
        self.is_goal: list[bool] = []
        self.goal_ids: list[int] = []
        self.iteration = 0

    def _register_vertex(self, vid: int, position: Point) -> None:
        in_goal = self.scenario.goal.contains(position)
        self.is_goal.append(in_goal)
        if in_goal:
            self.goal_ids.append(vid)


class PlannerState(RunState):
    """Run state of the consistent-tree planner: adds the key queue, the
    heuristic per vertex and the cached goal key."""

    def __init__(
        self,
        scenario: Scenario,
        variant: AlgorithmVariant,
        params: PlannerParams,
        rng: SeededRng,
    ) -> None:
        super().__init__(scenario, variant, params, rng)
        self.queue = IndexedQueue()
        self.h: list[float] = []
        # (vid, key at inclusion, goal key at inclusion); audit trail for the
        # inclusion gates.
        self.inclusion_log: list[tuple[int, Key, Key]] = []
        self._goal_key = INFINITE_KEY
        self._goal_best = -1
        self._goal_dirty = False

    def _register_vertex(self, vid: int, position: Point) -> None:
        self.h.append(heuristic(position, self.scenario))
        super()._register_vertex(vid, position)
        if self.is_goal[vid]:
            self._goal_dirty = True

    def goal_key(self) -> Key:
        """Minimum key over current goal vertices; (inf, inf) when none."""
        if self._goal_dirty:
            best = INFINITE_KEY
            best_vid = -1
            g = self.graph.g
            lmc = self.graph.lmc
            for vid in self.goal_ids:
                m = lmc[vid] if lmc[vid] < g[vid] else g[vid]
                k = Key(m + self.h[vid], m)
                if key_lt(k, best):
                    best = k
                    best_vid = vid
            self._goal_key = best
            self._goal_best = best_vid
            self._goal_dirty = False
        return self._goal_key

    def best_goal(self) -> tuple[int | None, float]:
        """Goal vertex with the lowest cost-to-come estimate and that cost."""
        key = self.goal_key()
        if self._goal_best < 0 or math.isinf(key.k2):
            return (None, INF)
        return (self._goal_best, key.k2)

    def step(self, x_rand: Point) -> None:
        extend(self, x_rand)

    def settle(self) -> None:
        reduce_inconsistency(self)

    def reported_cost(self) -> float:
        """The best goal vertex's cost-to-come (its parent chain's edge sum)."""
        return self.best_goal()[1]


class RRTStarState(RunState):
    """Run state of the rewiring baseline.  Vertex costs live in the graph's
    g/lmc slots, kept equal, so snapshots and dumps share the consistent-tree
    code paths; every baseline vertex is CONSISTENT_FINITE by construction."""

    def best_goal(self) -> tuple[int | None, float]:
        """Goal vertex with the lowest stored cost (stale values included)."""
        best_vid = None
        best = INF
        g = self.graph.g
        for vid in self.goal_ids:
            if g[vid] < best:
                best = g[vid]
                best_vid = vid
        return (best_vid, best)

    def step(self, x_rand: Point) -> None:
        rrtstar_extend(self, x_rand)

    def settle(self) -> None:
        """Nothing to do: rewiring finishes inside ``rrtstar_extend``."""

    def reported_cost(self) -> float:
        """Edge-cost sum along the best goal vertex's parent chain, added from
        the goal back: the realizable cost, which differs from the stored one
        when a rewire upstream left the chain's stored values stale."""
        best_vid, best = self.best_goal()
        if best_vid is None or math.isinf(best):
            return INF
        positions = self.graph.positions
        path = _walk_best_path(self.graph, best_vid)
        total = 0.0
        for k in range(len(path) - 1, 0, -1):
            total += edge_cost(positions[path[k - 1]], positions[path[k]], self.scenario)
        return total


def compute_key(state: PlannerState, vid: int) -> Key:
    """Queue key of a vertex: (min(g, lmc) + h, min(g, lmc))."""
    g = state.graph.g[vid]
    lmc = state.graph.lmc[vid]
    m = lmc if lmc < g else g
    return Key(m + state.h[vid], m)


def update_queue(state: PlannerState, vid: int) -> None:
    """Synchronise one vertex's queue membership with its consistency.

    Inconsistent vertices are inserted or repositioned under their current
    key; consistent vertices are removed if present.
    """
    g = state.graph.g[vid]
    lmc = state.graph.lmc[vid]
    q = state.queue
    if g != lmc:
        key = compute_key(state, vid)
        if q.contains(vid):
            q.update(vid, key)
        else:
            q.insert(vid, key)
    elif q.contains(vid):
        q.remove(vid)


def _connections(
    state: RunState, x_rand: Point
) -> tuple[ExtendStatus | None, Point, int, Pairs]:
    """The extension front both families share.

    Steers from the nearest vertex toward ``x_rand`` and returns
    ``(status, x_new, v_nearest, free_pairs)``; ``status`` is None unless
    the extension is REJECTED or COLLISION_BLOCKED.  The candidates are the
    r-disc neighborhood plus the nearest vertex itself, so the steering edge
    always exists when a vertex is kept; ``free_pairs`` holds the
    collision-free ones with their exact edge costs, ascending id.
    """
    graph = state.graph
    scenario = state.scenario
    positions = graph.positions

    v_nearest = graph.nearest(x_rand)
    p_nearest = positions[v_nearest]
    x_new = steer(p_nearest, x_rand, state.params.eta)
    if x_new == p_nearest:
        return (ExtendStatus.REJECTED, x_new, v_nearest, [])
    if not segment_obstacle_free(p_nearest, x_new, scenario):
        return (ExtendStatus.COLLISION_BLOCKED, x_new, v_nearest, [])

    candidates = graph.near(x_new, len(graph))
    if v_nearest not in candidates:
        candidates.append(v_nearest)
        candidates.sort()

    free_pairs: Pairs = []
    for u in candidates:
        if u != v_nearest and not segment_obstacle_free(positions[u], x_new, scenario):
            continue
        free_pairs.append((u, edge_cost(positions[u], x_new, scenario)))
    return (None, x_new, v_nearest, free_pairs)


def _cheapest_parent(
    g: list[float], free_pairs: Pairs, best_cost: float = INF, best_parent: int = NO_PARENT
) -> tuple[float, int]:
    """Lowest g[u] + cost over the connections, starting from the given
    incumbent; ties keep the incumbent, then the lowest id."""
    for u, c in free_pairs:
        cand = g[u] + c
        if cand < best_cost:
            best_cost = cand
            best_parent = u
    return (best_cost, best_parent)


def _insert(state: RunState, x_new: Point, lmc: float, parent: int, free_pairs: Pairs) -> int:
    """Add a vertex with its lmc, parent and every connection; returns its id."""
    graph = state.graph
    vid = graph.insert_vertex(x_new)
    graph.lmc[vid] = lmc
    graph.parent[vid] = parent
    state._register_vertex(vid, x_new)
    for u, c in free_pairs:
        graph.add_edge(vid, u, c)
    return vid


def extend(state: PlannerState, x_rand: Point) -> tuple[ExtendStatus, int | None]:
    """Steer toward a sample and try to add the resulting vertex.

    Variants differ in how the new vertex's lmc is seeded and in the
    inclusion gate:

    * V0 seeds lmc/parent from the nearest vertex and always includes.
    * V1 starts from scratch and includes only if some neighbor with finite
      g provided a parent.
    * V2 additionally requires that parent's key to precede the goal key.
    * V3 requires the new vertex's own key to precede the goal key.

    A rejection leaves the graph untouched.
    """
    blocked, x_new, v_nearest, free_pairs = _connections(state, x_rand)
    if blocked is not None:
        return (blocked, None)

    g = state.graph.g
    variant = state.variant
    if variant is AlgorithmVariant.RRTSHARP_V0:
        cost_nearest = next(c for u, c in free_pairs if u == v_nearest)
        best_lmc, best_parent = _cheapest_parent(
            g, free_pairs, g[v_nearest] + cost_nearest, v_nearest
        )
    else:
        best_lmc, best_parent = _cheapest_parent(g, free_pairs)

    gk = state.goal_key()
    if variant is AlgorithmVariant.RRTSHARP_V1:
        include = best_parent != NO_PARENT
    elif variant is AlgorithmVariant.RRTSHARP_V2:
        include = best_parent != NO_PARENT and key_lt(
            compute_key(state, best_parent), gk
        )
    elif variant is AlgorithmVariant.RRTSHARP_V3:
        h_new = heuristic(x_new, state.scenario)
        include = key_lt(Key(best_lmc + h_new, best_lmc), gk)
    else:
        include = True
    if not include:
        return (ExtendStatus.REJECTED, None)

    vid = _insert(state, x_new, best_lmc, best_parent, free_pairs)
    state.inclusion_log.append((vid, compute_key(state, vid), gk))
    update_queue(state, vid)
    return (ExtendStatus.EXTENDED, vid)


def rrtstar_extend(state: RRTStarState, x_rand: Point) -> tuple[ExtendStatus, int | None]:
    """One baseline iteration: choose the cheapest parent in the
    neighborhood, insert, then rewire neighbors through the new vertex.

    Rewiring updates only the immediate neighbor's stored cost and parent;
    descendants keep stale costs until some later rewire reaches them.
    """
    blocked, x_new, _, free_pairs = _connections(state, x_rand)
    if blocked is not None:
        return (blocked, None)

    graph = state.graph
    g = graph.g
    best_cost, best_parent = _cheapest_parent(g, free_pairs)
    vid = _insert(state, x_new, best_cost, best_parent, free_pairs)
    g[vid] = best_cost

    for u, c in free_pairs:
        cand = best_cost + c
        if cand < g[u]:
            g[u] = cand
            graph.lmc[u] = cand
            graph.parent[u] = vid
    return (ExtendStatus.EXTENDED, vid)


def reduce_inconsistency(state: PlannerState) -> int:
    """Drain the queue of every vertex whose key strictly precedes the goal
    key, committing g := lmc and relaxing its neighbors over the edge costs
    cached in the graph's adjacency.

    With no goal vertex the goal key is (inf, inf) and the loop empties the
    queue entirely.  Returns the number of vertices committed.
    """
    graph = state.graph
    q = state.queue
    g = graph.g
    lmc = graph.lmc
    parent = graph.parent
    neighbors = graph.neighbors
    costs = graph.costs
    is_goal = state.is_goal

    pops = 0
    while True:
        vid, kmin = q.findmin()
        if vid is None or not key_lt(kmin, state.goal_key()):
            break
        q.remove(vid)
        new_g = lmc[vid]
        g[vid] = new_g
        if is_goal[vid]:
            state._goal_dirty = True
        for s, c in zip(neighbors[vid], costs[vid]):
            cand = new_g + c
            if cand < lmc[s]:
                lmc[s] = cand
                parent[s] = vid
                if is_goal[s]:
                    state._goal_dirty = True
                update_queue(state, s)
        pops += 1
    return pops


@dataclass
class PlanResult:
    """Final graph, best path (vertex ids from start to goal) and its cost,
    plus the anytime cost history.  ``state`` keeps the full run state for
    inspection."""

    graph: Graph
    best_path: list[int]
    best_cost: float
    cost_history: CostHistory
    state: RunState


def _walk_best_path(graph: Graph, best_vid: int | None) -> list[int]:
    if best_vid is None:
        return []
    path = [best_vid]
    cur = best_vid
    limit = len(graph)
    while graph.parent[cur] != NO_PARENT:
        cur = graph.parent[cur]
        path.append(cur)
        if len(path) > limit:
            raise InvariantViolation("parent walk exceeded vertex count")
    if cur != 0:
        raise InvariantViolation("best path does not terminate at the start vertex")
    path.reverse()
    return path


def make_planner_state(
    scenario: Scenario,
    variant: AlgorithmVariant,
    params: PlannerParams,
    seed: int | tuple[int, ...],
) -> PlannerState | RRTStarState:
    """Fresh state of the variant's family holding the start vertex, committed
    at cost 0 for the baseline and queued for its first commit otherwise."""
    baseline = variant is AlgorithmVariant.RRTSTAR_BASELINE
    family = RRTStarState if baseline else PlannerState
    state = family(scenario, variant, params, SeededRng(seed))
    x_init = tuple(map(float, scenario.x_init))
    vid = _insert(state, x_init, 0.0, NO_PARENT, [])
    if baseline:
        state.graph.g[vid] = 0.0
    else:
        update_queue(state, vid)
    return state


def plan(
    scenario: Scenario,
    variant: AlgorithmVariant,
    max_iterations: int,
    seed: int | tuple[int, ...],
    history_stride: int = 10,
    *,
    eta: float,
    gamma: float | None = None,
    sample_budget: int = DEFAULT_SAMPLE_BUDGET,
    on_iteration: Callable[[RunState, int], None] | None = None,
) -> PlanResult:
    """Run any variant, the baseline included, for a fixed iteration budget.

    Each iteration draws one collision-free sample, attempts an extension
    and settles the state.  The cost history is sampled at iteration 0 and
    every ``history_stride`` iterations with the state's reported cost,
    which equals the edge-cost sum along the returned path.
    ``on_iteration`` (if given) runs at the end of each iteration.
    """
    if max_iterations < 0:
        raise ValueError("max_iterations must be >= 0")
    if history_stride < 1:
        raise ValueError("history_stride must be >= 1")
    params = PlannerParams(
        eta=eta,
        gamma=gamma if gamma is not None else gamma_rrg(scenario),
        sample_budget=sample_budget,
    )
    state = make_planner_state(scenario, variant, params, seed)
    t0 = time.perf_counter()
    state.settle()
    history = CostHistory()
    history.samples.append((0, time.perf_counter() - t0, state.reported_cost()))
    for it in range(1, max_iterations + 1):
        state.iteration = it
        x_rand = sample_free(state.rng, scenario, params.sample_budget)
        state.step(x_rand)
        state.settle()
        if it % history_stride == 0:
            history.samples.append(
                (it, time.perf_counter() - t0, state.reported_cost())
            )
        if on_iteration is not None:
            on_iteration(state, it)
    best_vid, _ = state.best_goal()
    return PlanResult(
        graph=state.graph,
        best_path=_walk_best_path(state.graph, best_vid),
        best_cost=state.reported_cost(),
        cost_history=history,
        state=state,
    )


# The library and benchmark entry point; ``plan`` takes every variant.
run_planner = plan


def plan_rrtstar(
    scenario: Scenario,
    max_iterations: int,
    seed: int | tuple[int, ...],
    history_stride: int = 10,
    **kwargs,
) -> PlanResult:
    """``plan`` for the rewiring baseline."""
    baseline = AlgorithmVariant.RRTSTAR_BASELINE
    return plan(scenario, baseline, max_iterations, seed, history_stride, **kwargs)
