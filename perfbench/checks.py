"""Output checks computed apart from the planner.

Nothing here calls into ``rrtsharp``: the geometry is read from the scenario
JSON, edge costs come from this module's own line integral, collision from
its own segment-versus-open-box test and shortest paths from its own
Dijkstra.  The planner's results are only read (positions, adjacency, path,
costs, history).

Every check returns a list of failure messages; an empty list means the
result passed.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

REL_TOL = 1e-9


@dataclass(frozen=True)
class World:
    """Scenario geometry as plain tuples, read straight from the JSON file."""

    obstacles: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]
    zones: tuple[tuple[tuple[float, ...], tuple[float, ...], float], ...]
    x_init: tuple[float, ...]
    goal: tuple[tuple[float, ...], tuple[float, ...]]
    default_coefficient: float = 1.0

    @property
    def min_coefficient(self) -> float:
        return min([self.default_coefficient] + [c for _, _, c in self.zones])


def load_world(path) -> World:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)

    def box(raw):
        return (tuple(map(float, raw["min"])), tuple(map(float, raw["max"])))

    return World(
        obstacles=tuple(box(ob) for ob in data["obstacles"]),
        zones=tuple(box(z) + (float(z["coefficient"]),) for z in data["zones"]),
        x_init=tuple(map(float, data["x_init"])),
        goal=box(data["goal"]),
    )


def segment_hits_open_box(a, b, lo, hi) -> bool:
    """True when some point of the closed segment a-b lies in the open box.

    The points a + t(b - a) strictly inside the box along axis i form an open
    parameter interval (all of R or nothing when the segment is parallel to
    that axis).  The segment enters the box when the intersection of those
    intervals with the closed range [0, 1] is non-empty; because every
    interval but [0, 1] is open, that is exactly ``lower < upper``.
    """
    lower, upper = 0.0, 1.0
    for ai, bi, l, h in zip(a, b, lo, hi):
        di = bi - ai
        if di == 0.0:
            if not l < ai < h:
                return False
            continue
        enter, leave = (l - ai) / di, (h - ai) / di
        if di < 0.0:
            enter, leave = leave, enter
        lower = max(lower, enter)
        upper = min(upper, leave)
    return lower < upper


def _coefficient_at(p, world: World) -> float:
    for lo, hi, coef in world.zones:
        if all(l < x < h for x, l, h in zip(p, lo, hi)):
            return coef
    return world.default_coefficient


def weighted_parameter_length(a, b, world: World) -> float:
    """Integral of the coefficient over t in [0, 1] along a + t(b - a).

    The segment is cut at every parameter where it crosses a zone face; the
    field is constant on each piece, so it is read at the piece's midpoint.
    A piece lying on a face belongs to no open zone and costs the default.
    """
    cuts = {0.0, 1.0}
    for lo, hi, _ in world.zones:
        span = list(zip(a, b, lo, hi))
        if any(max(ai, bi) <= l or min(ai, bi) >= h for ai, bi, l, h in span):
            continue  # the segment's bounding box misses the open zone
        for ai, bi, l, h in span:
            di = bi - ai
            if di != 0.0:
                for face in (l, h):
                    t = (face - ai) / di
                    if 0.0 < t < 1.0:
                        cuts.add(t)
    ts = sorted(cuts)
    total = 0.0
    for t0, t1 in zip(ts, ts[1:]):
        tm = 0.5 * (t0 + t1)
        mid = tuple(ai + tm * (bi - ai) for ai, bi in zip(a, b))
        total += _coefficient_at(mid, world) * (t1 - t0)
    return total


def line_integral(a, b, world: World) -> float:
    """Cost of the straight segment a-b: weighted parameter length x length."""
    length = math.sqrt(sum((bi - ai) ** 2 for ai, bi in zip(a, b)))
    if length == 0.0:
        return 0.0
    return weighted_parameter_length(a, b, world) * length


def dijkstra_to_goal(positions, neighbors, world: World) -> float:
    """Shortest cost from vertex 0 to any vertex inside the closed goal box."""
    n = len(positions)
    dist = [math.inf] * n
    dist[0] = 0.0
    cost: dict[tuple[int, int], float] = {}
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        pu = positions[u]
        for v in neighbors[u]:
            key = (u, v) if u < v else (v, u)
            c = cost.get(key)
            if c is None:
                c = cost[key] = line_integral(pu, positions[v], world)
            nd = d + c
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    lo, hi = world.goal
    return min(
        (dist[v] for v in range(n) if in_closed_box(positions[v], lo, hi)),
        default=math.inf,
    )


def in_closed_box(p, lo, hi) -> bool:
    return all(l <= x <= h for x, l, h in zip(p, lo, hi))


def distance_to_box(p, lo, hi) -> float:
    return math.sqrt(sum(max(l - x, 0.0, x - h) ** 2 for x, l, h in zip(p, lo, hi)))


def close(x: float, y: float) -> bool:
    """Equal within REL_TOL; infinities only equal themselves."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return x == y
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


@dataclass
class PlanOutput:
    """What the checks read from one planner run."""

    rrtstar: bool
    best_cost: float
    best_path: list[int]
    positions: list
    neighbors: list
    history_costs: list[float]


def check_plan(out: PlanOutput, world: World, eta: float) -> list[str]:
    """Every property one run must satisfy, against this module's oracles."""
    fails: list[str] = []
    path, pos, cost = out.best_path, out.positions, out.best_cost
    if not path or not math.isfinite(cost):
        return [f"no solution (best cost {cost!r})"]
    if path[0] != 0 or tuple(pos[0]) != world.x_init:
        fails.append("path does not start at x_init")
    if not in_closed_box(pos[path[-1]], *world.goal):
        fails.append("path does not end in the goal box")
    total = 0.0
    for u, v in zip(path, path[1:]):
        a, b = pos[u], pos[v]
        if v not in out.neighbors[u]:
            fails.append(f"path edge {u}-{v} is not in the graph")
        if math.dist(a, b) > eta * (1.0 + REL_TOL):
            fails.append(f"path edge {u}-{v} is longer than eta")
        for k, (lo, hi) in enumerate(world.obstacles):
            if segment_hits_open_box(a, b, lo, hi):
                fails.append(f"path edge {u}-{v} enters obstacle {k}")
        total += line_integral(a, b, world)
    if not close(total, cost):
        fails.append(f"best cost {cost!r} != line integral along path {total!r}")
    bound = world.min_coefficient * distance_to_box(world.x_init, *world.goal)
    if cost < bound * (1.0 - REL_TOL):
        fails.append(f"best cost {cost!r} below the straight-line bound {bound!r}")
    shortest = dijkstra_to_goal(pos, out.neighbors, world)
    if out.rrtstar:
        if cost < shortest * (1.0 - REL_TOL):
            fails.append(f"best cost {cost!r} below graph shortest path {shortest!r}")
    else:
        if not close(cost, shortest):
            fails.append(f"best cost {cost!r} != graph shortest path {shortest!r}")
        hist = out.history_costs
        if any(later > earlier for earlier, later in zip(hist, hist[1:])):
            fails.append("anytime best cost rose")
    if out.history_costs and not close(out.history_costs[-1], cost):
        fails.append("last history sample differs from the best cost")
    return fails
