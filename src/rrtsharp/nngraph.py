"""Growing geometric graph over sampled vertices.

Vertices are numbered 0, 1, 2, ... in insertion order (vertex 0 is the start
state).  Each vertex carries a position, the two cost-to-come estimates g and
lmc, a parent pointer and an adjacency list of 32-bit neighbor ids with a
parallel list of edge costs.

Positions are mirrored into raw-coordinate columns, one contiguous float64
row per axis.  A neighbor query fills a preallocated scratch vector with the
squared distances from every vertex, computed per axis from coordinate
differences, so its rounding error is relative to each distance and not to
the size of the world.  The vectorized pass only preselects: its bound is
widened by a relative slack of 1e-9, and every vertex it keeps is re-checked
with ``math.dist``, so ``nearest`` (lowest id on ties) and ``near`` return
exactly what a linear scan with ``math.dist`` returns, wherever the world
lies.

An extension asks for ``nearest(x_rand)`` and then ``near(x_new, n)``.  When
no vertex has been inserted in between, ``near`` reuses the vector
``nearest`` left: by the triangle inequality every vertex within r of x_new
lies within ``r + dist(x_rand, x_new)`` of x_rand, so one pass over the
graph serves both queries.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, TextIO

import numpy as np

from .space import Point

INF = math.inf

NO_PARENT = -1

# A vectorized squared distance errs by a few ulps relative to itself (only
# underflow adds an absolute error, below _FLOOR); preselection widens every
# bound by _SLACK relative plus _FLOOR so no vertex the exact re-check would
# keep is missed.
_SLACK = 1e-9
_FLOOR = 1e-300


def steer(from_point: Point, toward: Point, eta: float) -> Point:
    """Pull ``toward`` back to within eta of ``from_point``.

    Returns ``toward`` unchanged when it is already within eta, otherwise the
    point at distance eta along the straight segment.
    """
    dist = math.dist(from_point, toward)
    if dist <= eta:
        return toward
    scale = eta / dist
    return tuple(f + scale * (t - f) for f, t in zip(from_point, toward))


class Graph:
    """Vertex store plus r-disc adjacency for a growing random graph.

    The connection radius for a graph of n vertices is
    ``min(gamma * (log(n)/n)**(1/d), eta)`` with natural log; gamma comes from
    the free-space volume (see planner.gamma_rrg) and eta caps the radius at
    the steering range.
    """

    def __init__(self, dimension: int, gamma: float, eta: float) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        if not (math.isfinite(gamma) and gamma > 0 and math.isfinite(eta) and eta > 0):
            raise ValueError("gamma and eta must be finite and positive")
        self.dimension = dimension
        self.gamma = gamma
        self.eta = eta
        self.positions: list[Point] = []
        self.g: list[float] = []
        self.lmc: list[float] = []
        self.parent: list[int] = []
        # neighbors[u][k] is the k-th neighbor of u and costs[u][k] the cost
        # of edge {u, neighbors[u][k]}, stored once per direction.
        self.neighbors: list[array] = []
        self.costs: list[array] = []
        self.edge_count = 0
        self._cap = 256
        self._cols = np.empty((dimension, self._cap), dtype=np.float64)
        # After nearest(q), _d2 holds every vertex's squared distance to
        # _scanned = q until the next insert_vertex (None: no reusable scan).
        self._d2 = np.empty(self._cap, dtype=np.float64)
        self._tmp = np.empty(self._cap, dtype=np.float64)
        self._scanned: Point | None = None

    def __len__(self) -> int:
        return len(self.positions)

    def _grow(self) -> None:
        n = len(self.positions)
        self._cap *= 2
        cols = np.empty((self.dimension, self._cap), dtype=np.float64)
        cols[:, :n] = self._cols[:, :n]
        self._cols = cols
        self._d2 = np.empty(self._cap, dtype=np.float64)
        self._tmp = np.empty(self._cap, dtype=np.float64)

    def insert_vertex(self, p: Point) -> int:
        """Append a vertex with g = lmc = inf and no parent; returns its id."""
        if len(p) != self.dimension:
            raise ValueError("point dimension mismatch")
        if type(p) is not tuple or type(p[0]) is not float:
            p = tuple(float(c) for c in p)
        vid = len(self.positions)
        if vid == self._cap:
            self._grow()
        self.positions.append(p)
        self.g.append(INF)
        self.lmc.append(INF)
        self.parent.append(NO_PARENT)
        self.neighbors.append(array("i"))
        self.costs.append(array("d"))
        self._cols[:, vid] = p
        self._scanned = None
        return vid

    def add_edge(self, u: int, v: int, cost: float) -> None:
        """Record the undirected edge {u, v} with its cost in both adjacency
        lists; ``cost`` must not depend on the direction of travel."""
        self.neighbors[u].append(v)
        self.costs[u].append(cost)
        self.neighbors[v].append(u)
        self.costs[v].append(cost)
        self.edge_count += 1

    def add_edges(self, v: int, pairs: list[tuple[int, float]]) -> None:
        """``add_edge(v, u, cost)`` for every ``(u, cost)`` in ``pairs``, in
        order, in one call."""
        neighbors = self.neighbors
        costs = self.costs
        row = neighbors[v]
        row_costs = costs[v]
        for u, c in pairs:
            row.append(u)
            row_costs.append(c)
            neighbors[u].append(v)
            costs[u].append(c)
        self.edge_count += len(pairs)

    def _scan(self, x: Point) -> np.ndarray:
        """Fill the scratch vector with every vertex's squared distance to x."""
        n = len(self.positions)
        cols = self._cols
        d2 = self._d2[:n]
        tmp = self._tmp[:n]
        np.subtract(cols[0, :n], x[0], out=d2)
        np.multiply(d2, d2, out=d2)
        for k in range(1, self.dimension):
            np.subtract(cols[k, :n], x[k], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(d2, tmp, out=d2)
        return d2

    def nearest(self, x: Point) -> int:
        """Vertex id minimising Euclidean distance to x; ties pick lowest id."""
        if not self.positions:
            raise ValueError("nearest() on empty graph")
        d2 = self._scan(x)
        self._scanned = tuple(x)
        best = int(d2.argmin())
        cand = np.flatnonzero(d2 <= d2[best] * (1.0 + _SLACK) + _FLOOR)
        if len(cand) > 1:
            positions = self.positions
            best_d = INF
            for vid in cand.tolist():
                d = math.dist(positions[vid], x)
                if d < best_d:
                    best, best_d = vid, d
        return best

    def radius(self, n: int) -> float:
        """Connection radius for vertex count n (0.0 when n <= 1)."""
        if n <= 1:
            return 0.0
        return min(self.gamma * (math.log(n) / n) ** (1.0 / self.dimension), self.eta)

    def near(self, x: Point, n: int) -> list[int]:
        """Ids of vertices with 0 < dist(v, x) < radius(n), ascending.

        ``n`` is the vertex count used for the radius; callers pass the
        current count.  Vertices exactly at x are excluded.  Right after
        ``nearest(q)``, with no vertex inserted since, the preselection reuses
        q's scan with the bound ``r + dist(q, x)``; otherwise it scans for x.
        Either way every candidate is re-checked with exact distances, so the
        result matches a linear scan.
        """
        r = self.radius(n)
        if r <= 0.0 or not self.positions:
            return []
        q = self._scanned
        if q is None:
            d2 = self._scan(x)
            reach = r
        else:
            d2 = self._d2[: len(self.positions)]
            reach = r + math.dist(q, x)
        cand = np.flatnonzero(d2 <= reach * reach * (1.0 + _SLACK) + _FLOOR)
        positions = self.positions
        out: list[int] = []
        for vid in cand.tolist():
            if 0.0 < math.dist(positions[vid], x) < r:
                out.append(vid)
        return out

    def undirected_edges(self) -> Iterable[tuple[int, int]]:
        """Each undirected edge once, as (u, v) with u < v, ascending."""
        for u in range(len(self.positions)):
            for v in self.neighbors[u]:
                if u < v:
                    yield (u, v)


def dump_graph(graph: Graph, out: TextIO, category_of: Callable[[int], str]) -> None:
    """Write the line-oriented tree dump.

    One vertex per line: ``id, coords..., g, lmc, parent_id, category`` with
    parent_id -1 when unset, followed by one ``u, v`` line per undirected
    edge.  Floats use repr so values round-trip exactly.
    """
    for vid in range(len(graph)):
        coords = ", ".join(repr(c) for c in graph.positions[vid])
        out.write(
            f"{vid}, {coords}, {graph.g[vid]!r}, {graph.lmc[vid]!r}, "
            f"{graph.parent[vid]}, {category_of(vid)}\n"
        )
    for u, v in graph.undirected_edges():
        out.write(f"{u}, {v}\n")


@dataclass
class ParsedDump:
    """Structured form of a tree dump, as read back by parse_graph_dump."""

    vertices: list[dict]
    edges: list[tuple[int, int]]


def parse_graph_dump(lines: Iterable[str]) -> ParsedDump:
    """Parse dump_graph output.

    Vertex lines have at least six comma-separated fields, edge lines exactly
    two; the two sections need no separator.
    """
    vertices: list[dict] = []
    edges: list[tuple[int, int]] = []
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) == 2:
            edges.append((int(parts[0]), int(parts[1])))
            continue
        if len(parts) < 6:
            raise ValueError(f"malformed dump line: {line!r}")
        vertices.append(
            {
                "id": int(parts[0]),
                "position": tuple(float(p) for p in parts[1:-4]),
                "g": float(parts[-4]),
                "lmc": float(parts[-3]),
                "parent": int(parts[-2]),
                "category": parts[-1],
            }
        )
    return ParsedDump(vertices=vertices, edges=edges)
