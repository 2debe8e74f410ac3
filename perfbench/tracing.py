"""Per-layer tracing by wrapping each layer's public functions.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
module and class attributes through which the planner reaches each layer
(``rrtsharp.planner.edge_cost``, ``Graph.nearest``, ``IndexedQueue.insert``,
...).  Each wrapper is a span: it counts the call, adds its duration to the
layer's total and to the enclosing span's child time, so a layer's self
time is its total minus the time of the spans it called.  Spans are
aggregated in memory as they close; nothing is recorded per call.
``SeededRng.uniform_point`` is wrapped only to count the draws behind each
sample.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass

from rrtsharp import bench, nngraph, planner, pqueue, space

EXTENDED = planner.ExtendStatus.EXTENDED
REJECTED = planner.ExtendStatus.REJECTED
BLOCKED = planner.ExtendStatus.COLLISION_BLOCKED


@dataclass
class Layer:
    calls: int = 0
    total: float = 0.0
    child: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total - self.child


class Tracer:
    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self.counts: Counter = Counter()
        self.peak_queue = 0
        self._stack: list[list[float]] = []

    def span(self, name, fn, after=None):
        layer = self.layers.setdefault(name, Layer())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                layer.calls += 1
                layer.total += elapsed
                layer.child += frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _extend_done(self, prefix):
        counts = self.counts

        def after(_args, out):
            counts[(prefix, out[0])] += 1

        return after

    def _insert_done(self, args, _out):
        n = len(args[0])
        if n > self.peak_queue:
            self.peak_queue = n

    def _spans(self):
        """(owner, attribute, layer name, hook run on each call's result)."""
        c = self.counts
        q = pqueue.IndexedQueue
        return [
            (planner, "sample_free", "space.sample_free", None),
            (space.SeededRng, "uniform_point", "space.uniform_point", None),
            (planner, "segment_obstacle_free", "space.segment_obstacle_free",
             lambda _a, free: c.update(free=int(free))),
            (planner, "edge_cost", "space.edge_cost", None),
            (nngraph.Graph, "nearest", "nngraph.nearest", None),
            (nngraph.Graph, "near", "nngraph.near",
             lambda _a, out: c.update(near_size=len(out))),
            (q, "insert", "pqueue", self._insert_done),
            (q, "update", "pqueue", None),
            (q, "remove", "pqueue", None),
            (q, "findmin", "pqueue", None),
            (planner, "extend", "planner.extend", self._extend_done("extend")),
            (planner, "rrtstar_extend", "planner.rrtstar_extend", self._extend_done("rrtstar")),
            (planner, "reduce_inconsistency", "planner.reduce_inconsistency",
             lambda _a, pops: c.update(pops=pops)),
            (bench, "run_planner", "bench.run_planner", None),
        ]

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, after in self._spans():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.span(name, original, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def extended(self) -> int:
        return self.counts[("extend", EXTENDED)] + self.counts[("rrtstar", EXTENDED)]

    def metrics(self, sizes) -> dict[str, float]:
        """Per-layer metrics of one traced operation whose planner runs left
        graphs of ``sizes`` (|V|, |E|); those are summed over the runs."""
        L = self.layers
        c = self.counts
        vertices = sum(v for v, _ in sizes)
        edges = sum(e for _, e in sizes)
        sf, sof, ec = L["space.sample_free"], L["space.segment_obstacle_free"], L["space.edge_cost"]
        ext, near = L["planner.extend"], L["nngraph.near"]
        return {
            "space.sample_free.calls": sf.calls,
            "space.sample_free.s": sf.total,
            "space.sample_free.draws_per_sample": _ratio(L["space.uniform_point"].calls, sf.calls),
            "space.segment_obstacle_free.calls": sof.calls,
            "space.segment_obstacle_free.s": sof.total,
            "space.segment_obstacle_free.free_ratio": _ratio(c["free"], sof.calls),
            "space.edge_cost.calls": ec.calls,
            "space.edge_cost.s": ec.total,
            "space.edge_cost.calls_per_edge": _ratio(ec.calls, edges),
            "nngraph.nearest.calls": L["nngraph.nearest"].calls,
            "nngraph.nearest.s": L["nngraph.nearest"].total,
            "nngraph.near.calls": near.calls,
            "nngraph.near.s": near.total,
            "nngraph.near.mean_size": _ratio(c["near_size"], near.calls),
            "nngraph.vertices": vertices,
            "nngraph.edges": edges,
            "pqueue.ops": L["pqueue"].calls,
            "pqueue.s": L["pqueue"].total,
            "pqueue.peak_len": self.peak_queue,
            "planner.extend.self_s": ext.self_s,
            "planner.extend.accept_ratio": _ratio(c[("extend", EXTENDED)], ext.calls),
            "planner.extend.rejected": c[("extend", REJECTED)],
            "planner.extend.collision_blocked": c[("extend", BLOCKED)],
            "planner.reduce_inconsistency.self_s": L["planner.reduce_inconsistency"].self_s,
            "planner.reduce_inconsistency.pops": c["pops"],
            "planner.rrtstar_extend.self_s": L["planner.rrtstar_extend"].self_s,
            "bench.run_planner.calls": L["bench.run_planner"].calls,
        }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
