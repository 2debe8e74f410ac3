"""The benchmark's workloads and the planning operation each one repeats.

Every workload is a closed loop: the worker starts one planning operation,
waits for it to return, and only then starts the next.  All inputs derive
from the benchmark seed ``n``: run ``k`` of an operation draws from planner
seed ``(n, k)``, which is also the seed ``rrtsharp compare --seed n`` gives
its trial ``k``, so every variant sees the same samples in a trial.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

from rrtsharp import AlgorithmVariant, bench, load_scenario, run_planner
from rrtsharp.cli import run_cli
from rrtsharp.scenarios import scenario_path

from checks import REL_TOL, PlanOutput, World, check_plan, close

# Extension step of every workload.
ETA = 0.15


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    variants: tuple[str, ...]
    iterations: int
    # Matched seeds per operation: run_planner calls, or compare's --trials.
    runs: int = 1
    compare: bool = False
    stride: int = 100


WORKLOADS = {
    w.name: w
    for w in (
        # Edge-cost integration inside reduce_inconsistency dominates; no
        # obstacles, so collision checks do no work.  One run's edge-cost
        # work varies by about 12% from seed to seed at any length, so an
        # operation is five runs.  Each needs 2000 iterations: a vertex must
        # land in the small goal box, and one run of ~370 seen first did so
        # at iteration 1260.
        Workload("zones2d", "d2_zones", ("rrtsharp-v2",), 2000, runs=5),
        # O(n) nearest/near scans and obstacle checks dominate; edge cost is
        # a bare distance.  v0 admits every collision-free extension, so |V|
        # stays within a fraction of a percent across seeds (v1's |V| varies
        # by a factor of two at this size, and run_s with it).
        Workload("boxes5d", "d5_boxes", ("rrtsharp-v0",), 20000, stride=1000),
        # Both planner families on the shared extend substrate, through the
        # compare harness; collision checks dominate.  1000 iterations leave
        # a wide margin over the slowest first solution seen (640 of 460
        # trials), so every trial solves.
        Workload(
            "clutter2d-compare",
            "d2_clutter",
            ("rrtsharp-v0", "rrtsharp-v1", "rrtsharp-v2", "rrtsharp-v3", "rrtstar"),
            1000,
            runs=3,
            compare=True,
        ),
    )
}


@dataclass
class Labeled:
    """One planner run of a workload, with the variant and seed it used."""

    variant: str
    seed: tuple[int, int]
    result: object  # rrtsharp.PlanResult


@dataclass
class Outcome:
    """What one planning operation returned."""

    runs: list[Labeled]  # one per (variant, seed): the runs the checks read
    sizes: list[tuple[int, int]]  # (|V|, |E|) of every planner run, repeats included
    stats_csv: str | None = None  # compare's stats.csv


class Operation:
    """One workload's planning operation for one benchmark seed;
    ``__call__`` is the timed operation."""

    def __init__(self, workload: Workload, seed: int, out_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scenario_file = scenario_path(workload.scenario)
        self.out_dir = out_dir
        if not workload.compare:
            self.scenario = load_scenario(self.scenario_file)

    def __call__(self) -> Outcome:
        w = self.workload
        if not w.compare:
            runs = []
            for name in w.variants:
                variant = AlgorithmVariant.parse(name)
                for k in range(w.runs):
                    seed = (self.seed, k)
                    result = run_planner(self.scenario, variant, w.iterations, seed, w.stride, eta=ETA)
                    runs.append(Labeled(name, seed, result))
            return Outcome(runs, [graph_size(r.result) for r in runs])
        argv = [
            "compare",
            "--scenario", str(self.scenario_file),
            "--algo", ",".join(w.variants),
            "--trials", str(w.runs),
            "--iters", str(w.iterations),
            "--seed", str(self.seed),
            "--eta", repr(ETA),
            "--stride", str(w.stride),
            "--out", str(self.out_dir),
        ]
        # Keep the harness's first run of each (variant, trial); of its
        # later repeats only the sizes.
        distinct = len(w.variants) * w.runs
        results: list = []
        sizes: list[tuple[int, int]] = []
        plain = bench.run_planner

        def keep(*args, **kwargs):
            result = plain(*args, **kwargs)
            sizes.append(graph_size(result))
            if len(results) < distinct:
                results.append(result)
            return result

        bench.run_planner = keep
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = run_cli(argv)
        finally:
            bench.run_planner = plain
        if code != 0:
            raise RuntimeError(f"rrtsharp compare exited {code}")
        stats_csv = (self.out_dir / "stats.csv").read_text(encoding="utf-8")
        return Outcome(compare_runs(w, self.seed, results), sizes, stats_csv)


def graph_size(result) -> tuple[int, int]:
    return len(result.graph), result.graph.edge_count


def stats_digest(stats_csv: str) -> str:
    """Digest of stats.csv without its wall-clock column."""
    rows = [line.rsplit(",", 1)[0] for line in stats_csv.splitlines()]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def compare_runs(workload: Workload, seed: int, results: list) -> list[Labeled]:
    """Label the PlanResults compare made through bench.run_planner.
    The harness runs every variant's trials first (variant-major,
    trial-minor); any later calls repeat those runs for timing."""
    labels = [(v, (seed, t)) for v in workload.variants for t in range(workload.runs)]
    return [Labeled(v, s, res) for (v, s), res in zip(labels, results)]


def round_digest(out: Outcome) -> dict:
    """What must repeat exactly from one round of an operation to the next."""
    digest = fingerprint(out.runs)
    if out.stats_csv is not None:
        digest["stats"] = stats_digest(out.stats_csv)
    return digest


def fingerprint(runs: list[Labeled]) -> dict:
    """Deterministic outputs of an operation: the best cost (the mean over
    runs when there are several), total |V| and |E|, and a digest of every
    best path's coordinates."""
    digest = hashlib.sha256()
    for r in runs:
        pos = r.result.graph.positions
        for vid in r.result.best_path:
            digest.update((", ".join(map(repr, pos[vid])) + "\n").encode())
        digest.update(b"--\n")
    costs = [r.result.best_cost for r in runs]
    return {
        "best_cost": repr(sum(costs) / len(costs)),
        "V": sum(len(r.result.graph) for r in runs),
        "E": sum(r.result.graph.edge_count for r in runs),
        "path": digest.hexdigest()[:16],
    }


def plan_output(r: Labeled) -> PlanOutput:
    res = r.result
    return PlanOutput(
        rrtstar=r.variant == "rrtstar",
        best_cost=res.best_cost,
        best_path=list(res.best_path),
        positions=res.graph.positions,
        neighbors=res.graph.neighbors,
        history_costs=[s[2] for s in res.cost_history.samples],
    )


def _parse_stats(stats_csv: str) -> dict[str, list[tuple[int, float, float]]]:
    """variant -> [(iteration, mean_cost, unsolved_fraction)]."""
    out: dict[str, list[tuple[int, float, float]]] = {}
    for line in stats_csv.splitlines()[1:]:
        variant, it, mean, _var, unsolved, _elapsed = line.split(",")
        out.setdefault(variant, []).append((int(it), float(mean), float(unsolved)))
    return out


def check_workload(workload: Workload, world: World, out: Outcome) -> list[str]:
    """Check every run of an operation; for compare, also the harness's
    aggregate against the runs and the v0-versus-rrtstar dominance."""
    runs = out.runs
    fails = []
    for r in runs:
        fails += [f"{r.variant} seed {r.seed}: {m}" for m in check_plan(plan_output(r), world, ETA)]
    if not workload.compare:
        return fails

    by_variant: dict[str, list[Labeled]] = {}
    for r in runs:
        by_variant.setdefault(r.variant, []).append(r)
    for v0, star in zip(by_variant["rrtsharp-v0"], by_variant["rrtstar"]):
        g0, gs = v0.result.graph, star.result.graph
        if (len(g0), g0.edge_count) != (len(gs), gs.edge_count):
            fails.append(f"trial {v0.seed}: v0 and rrtstar grew different graphs")
        for (it, c0), (_, cs) in zip(_history(v0), _history(star)):
            if math.isfinite(cs) and c0 > cs * (1.0 + REL_TOL):
                fails.append(f"trial {v0.seed}: v0 cost {c0!r} above rrtstar {cs!r} at {it}")

    stats = _parse_stats(out.stats_csv)
    for variant, group in by_variant.items():
        histories = [_history(r) for r in group]
        rows = stats.get(variant, [])
        if [row[0] for row in rows] != [it for it, _ in histories[0]]:
            fails.append(f"stats.csv {variant}: grid differs from the runs' histories")
            continue
        for idx, (it, mean, unsolved) in enumerate(rows):
            costs = [h[idx][1] for h in histories]
            finite = [c for c in costs if math.isfinite(c)]
            expect = sum(finite) / len(finite) if finite else math.inf
            if not close(mean, expect):
                fails.append(f"stats.csv {variant} mean at {it}: {mean!r} != {expect!r}")
            if unsolved != (len(costs) - len(finite)) / len(costs):
                fails.append(f"stats.csv {variant} unsolved fraction at {it}")
    for (it, m0, u0), (_, ms, us) in zip(stats.get("rrtsharp-v0", []), stats.get("rrtstar", [])):
        if u0 == 0.0 and us == 0.0 and m0 > ms * (1.0 + REL_TOL):
            fails.append(f"stats.csv: v0 mean {m0!r} above rrtstar {ms!r} at {it}")
    return fails


def _history(r: Labeled) -> list[tuple[int, float]]:
    return [(s[0], s[2]) for s in r.result.cost_history.samples]
