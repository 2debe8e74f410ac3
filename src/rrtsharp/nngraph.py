"""Growing geometric graph over sampled vertices.

Vertices are numbered 0, 1, 2, ... in insertion order (vertex 0 is the start
state).  Each vertex carries a position, the two cost-to-come estimates g and
lmc, a parent pointer and an adjacency list of 32-bit neighbor ids with a
parallel list of edge costs.  Positions are mirrored into a contiguous numpy
buffer, stored relative to vertex 0 so squared distances do not cancel far
from the origin, and nearest/near queries run as vectorized scans over it; a
candidate produced by the vectorized pass is re-checked with exact float
arithmetic so results match a plain linear scan.
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


@dataclass(frozen=True)
class VertexView:
    """Read-only snapshot of one vertex, for tests and debugging."""

    vid: int
    position: Point
    g: float
    lmc: float
    parent: int
    neighbors: tuple[int, ...]


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
        if gamma <= 0 or eta <= 0:
            raise ValueError("gamma and eta must be positive")
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
        self._origin: np.ndarray | None = None
        self._cap = 256
        self._buf = np.empty((self._cap, dimension), dtype=np.float64)
        self._sqnorm = np.empty(self._cap, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.positions)

    def _grow(self) -> None:
        self._cap *= 2
        buf = np.empty((self._cap, self.dimension), dtype=np.float64)
        buf[: len(self.positions)] = self._buf[: len(self.positions)]
        self._buf = buf
        sq = np.empty(self._cap, dtype=np.float64)
        sq[: len(self.positions)] = self._sqnorm[: len(self.positions)]
        self._sqnorm = sq

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
        row = np.asarray(p, dtype=np.float64)
        if self._origin is None:
            self._origin = row
        row = row - self._origin
        self._buf[vid] = row
        self._sqnorm[vid] = float(row @ row)
        return vid

    def add_edge(self, u: int, v: int, cost: float) -> None:
        """Record the undirected edge {u, v} with its cost in both adjacency
        lists; ``cost`` must not depend on the direction of travel."""
        self.neighbors[u].append(v)
        self.costs[u].append(cost)
        self.neighbors[v].append(u)
        self.costs[v].append(cost)
        self.edge_count += 1

    def _dist2(self, x: Point) -> np.ndarray:
        n = len(self.positions)
        q = np.asarray(x, dtype=np.float64) - self._origin
        d2 = self._sqnorm[:n] - 2.0 * (self._buf[:n] @ q) + float(q @ q)
        return d2

    def nearest(self, x: Point) -> int:
        """Vertex id minimising Euclidean distance to x; ties pick lowest id."""
        if not self.positions:
            raise ValueError("nearest() on empty graph")
        return int(np.argmin(self._dist2(x)))

    def radius(self, n: int) -> float:
        """Connection radius for vertex count n (0.0 when n <= 1)."""
        if n <= 1:
            return 0.0
        return min(self.gamma * (math.log(n) / n) ** (1.0 / self.dimension), self.eta)

    def near(self, x: Point, n: int) -> list[int]:
        """Ids of vertices with 0 < dist(v, x) < radius(n), ascending.

        ``n`` is the vertex count used for the radius; callers pass the
        current count.  Vertices exactly at x are excluded.  The vectorized
        preselection uses a small slack and every candidate is re-checked
        with exact distances, so the result matches a linear scan.
        """
        r = self.radius(n)
        if r <= 0.0 or not self.positions:
            return []
        r2 = r * r
        d2 = self._dist2(x)
        cand = np.nonzero(d2 <= r2 * (1.0 + 1e-9) + 1e-18)[0]
        out: list[int] = []
        for idx in cand:
            vid = int(idx)
            dist = math.dist(self.positions[vid], x)
            if 0.0 < dist < r:
                out.append(vid)
        return out

    def vertex(self, vid: int) -> VertexView:
        return VertexView(
            vid=vid,
            position=self.positions[vid],
            g=self.g[vid],
            lmc=self.lmc[vid],
            parent=self.parent[vid],
            neighbors=tuple(self.neighbors[vid]),
        )

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
