"""Benchmark command line: run, compare and check subcommands.

Exit codes: 0 success, 1 invalid scenario or arguments, 2 sampling budget
exhausted, 3 invariant violation (detected by ``check``, or raised by the
planner in any subcommand).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import bench
from .nngraph import dump_graph
from .planner import (
    AlgorithmVariant,
    InvariantViolation,
    PlannerState,
    RunState,
    classify_values,
    compute_key,
    run_planner,
)
from .pqueue import key_lt
from .space import SamplingBudgetError, Scenario, ScenarioError, load_scenario

DIJKSTRA_TOLERANCE = 1e-9


@dataclass
class RunConfig:
    scenario_path: str
    algo: str = "rrtsharp-v0"
    iters: int = 1000
    seed: int = 0
    trials: int = 1
    eta: float = 0.15
    gamma: float | None = None
    stride: int = 10
    out: str = "out"
    snapshot: list[int] = field(default_factory=list)
    inject_fault: bool = False


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _dump_tree(state: RunState, path: Path) -> None:
    graph = state.graph

    def category(vid: int) -> str:
        return classify_values(graph.g[vid], graph.lmc[vid]).value

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        dump_graph(graph, fh, category)


def cmd_run(config: RunConfig) -> int:
    """One planning run: history.csv, path.txt and tree_<k>.txt snapshots.

    history.csv rows are (iteration, elapsed_s, best_cost).  The elapsed
    column is written as 0.0 so output is byte-reproducible for a fixed
    config; wall-clock timings are available through the library API and
    the compare subcommand.
    """
    try:
        scenario = load_scenario(config.scenario_path)
        variant = AlgorithmVariant.parse(config.algo)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(config.out)
    snapshots = sorted(set(config.snapshot))

    def observer(state: RunState, iteration: int) -> None:
        if iteration in snapshot_set:
            _dump_tree(state, out_dir / f"tree_{iteration}.txt")

    snapshot_set = set(snapshots)
    try:
        result = run_planner(
            scenario,
            variant,
            config.iters,
            config.seed,
            config.stride,
            eta=config.eta,
            gamma=config.gamma,
            on_iteration=observer if snapshots else None,
        )
    except SamplingBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    history_lines = ["iteration,elapsed_s,best_cost"]
    for iteration, _elapsed, cost in result.cost_history.samples:
        history_lines.append(f"{iteration},0.0,{cost!r}")
    _write_lines(out_dir / "history.csv", history_lines)

    path_lines = []
    for vid in result.best_path:
        path_lines.append(", ".join(repr(c) for c in result.graph.positions[vid]))
    _write_lines(out_dir / "path.txt", path_lines)

    print(
        f"{variant.value}: {config.iters} iterations, "
        f"{len(result.graph)} vertices, best cost {result.best_cost!r}"
    )
    return 0


def _parse_variant_list(raw: str) -> list[AlgorithmVariant]:
    variants = []
    for token in raw.split(","):
        token = token.strip()
        if token:
            variants.append(AlgorithmVariant.parse(token))
    if not variants:
        raise ValueError(
            "no algorithm given; valid names: "
            + ", ".join(v.value for v in AlgorithmVariant)
        )
    return variants


def cmd_compare(config: RunConfig) -> int:
    """Matched-seed trials over several variants: stats.csv, time_ratio.csv.

    Time ratios come from the trials behind stats.csv, plus the baseline's
    when it was not requested.  The mean_elapsed_s and ratio columns are
    wall-clock measurements and vary run to run; the cost columns are
    deterministic for a fixed config.  Exits 2, writing nothing, when any
    trial exhausts the sampling budget.
    """
    try:
        scenario = load_scenario(config.scenario_path)
        variants = _parse_variant_list(config.algo)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def trials(chosen: list[AlgorithmVariant]) -> dict[AlgorithmVariant, bench.TrialStats]:
        return bench.run_trials(
            scenario,
            chosen,
            config.trials,
            config.iters,
            config.seed,
            eta=config.eta,
            gamma=config.gamma,
            history_stride=config.stride,
        )

    out_dir = Path(config.out)
    stats = trials(variants)
    baseline = AlgorithmVariant.RRTSTAR_BASELINE
    everything = stats if baseline in stats else {**stats, **trials([baseline])}
    for variant, st in everything.items():
        if st.failed_trials:
            print(
                f"error: {variant.value}: {st.failed_trials} of {config.trials} "
                "trials found no free sample",
                file=sys.stderr,
            )
            return 2
    ratios = bench.time_ratio(stats, everything[baseline])

    _write_lines(out_dir / "stats.csv", bench.stats_csv_rows(stats))

    ratio_lines = ["variant,iteration,time_ratio"]
    for variant, pairs in ratios.items():
        for iteration, ratio in pairs:
            ratio_lines.append(f"{variant.value},{iteration},{ratio!r}")
    _write_lines(out_dir / "time_ratio.csv", ratio_lines)

    for variant in variants:
        st = stats[variant]
        final = st.mean_cost[-1] if st.mean_cost else math.inf
        print(
            f"{variant.value}: {st.trial_count} trials, "
            f"final mean cost {final!r}, failed {st.failed_trials}"
        )
    return 0


def cmd_check(config: RunConfig) -> int:
    """Planner self-check: consistency and Dijkstra equivalence each stride.

    Runs the consistent-tree planner and, every ``stride`` iterations,
    verifies the consistent-tree postcondition, the queue biconditional and
    that promising vertices' g equal the independent Dijkstra distances.
    On violation, dumps the offending tree and exits 3.
    """
    try:
        scenario = load_scenario(config.scenario_path)
        variant = AlgorithmVariant.parse(config.algo)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if variant is AlgorithmVariant.RRTSTAR_BASELINE:
        print("error: check applies to the consistent-tree variants", file=sys.stderr)
        return 1

    out_dir = Path(config.out)
    failures: list[str] = []
    fault_pending = [config.inject_fault]

    def observer(state: PlannerState, iteration: int) -> None:
        if failures or iteration % config.stride != 0:
            return
        if fault_pending[0]:
            # Deliberately corrupt one committed vertex so the checks below
            # must trip; used to prove the checker can fail.
            fault_pending[0] = False
            for vid in range(len(state.graph)):
                if math.isfinite(state.graph.g[vid]):
                    state.graph.g[vid] += 1.0
                    break
        report = bench.verify_consistency(state)
        for vid, what in report.violations:
            failures.append(f"iteration {iteration}: vertex {vid}: {what}")
        dist = bench.dijkstra(state.graph, scenario, 0)
        gk = state.goal_key()
        for vid in range(len(state.graph)):
            if not key_lt(compute_key(state, vid), gk):
                continue
            if abs(state.graph.g[vid] - dist[vid]) > DIJKSTRA_TOLERANCE:
                failures.append(
                    f"iteration {iteration}: vertex {vid}: g {state.graph.g[vid]!r} "
                    f"!= dijkstra {dist[vid]!r}"
                )
        if failures:
            _dump_tree(state, out_dir / f"violation_{iteration}.txt")

    try:
        run_planner(
            scenario,
            variant,
            config.iters,
            config.seed,
            config.stride,
            eta=config.eta,
            gamma=config.gamma,
            on_iteration=observer,
        )
    except SamplingBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if failures:
        for line in failures[:20]:
            print(f"violation: {line}", file=sys.stderr)
        return 3
    checks = config.iters // config.stride
    print(f"{variant.value}: {checks} checkpoints clean over {config.iters} iterations")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrtsharp",
        description="Sampling-based planner benchmark (consistent-tree family vs rewiring baseline)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, multi_algo: bool) -> None:
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument(
            "--algo",
            default="rrtsharp-v0",
            help="algorithm name" + (", comma-separated list" if multi_algo else ""),
        )
        p.add_argument("--iters", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--eta", type=float, default=0.15, help="steering radius")
        p.add_argument(
            "--gamma", type=float, default=None, help="connection-radius constant override"
        )
        p.add_argument("--stride", type=int, default=10, help="history/check stride")
        p.add_argument("--out", default="out", help="output directory")

    run_p = sub.add_parser("run", help="single planning run with artifacts")
    add_common(run_p, multi_algo=False)
    run_p.add_argument(
        "--snapshot",
        default="",
        help="comma-separated iteration counts at which to dump the tree",
    )

    cmp_p = sub.add_parser("compare", help="matched-seed trials across variants")
    add_common(cmp_p, multi_algo=True)
    cmp_p.add_argument("--trials", type=int, default=1)

    chk_p = sub.add_parser("check", help="invariant and oracle checks while planning")
    add_common(chk_p, multi_algo=False)
    chk_p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    return parser


def _check_positive(flag: str, value: float | None) -> None:
    if value is not None and not (math.isfinite(value) and value > 0):
        raise ValueError(f"{flag}: must be a finite number > 0")


def _check_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{flag}: must be >= {low}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    _check_positive("--eta", args.eta)
    _check_positive("--gamma", args.gamma)
    _check_at_least("--iters", args.iters, 0)
    _check_at_least("--stride", args.stride, 1)
    _check_at_least("--trials", getattr(args, "trials", 1), 1)
    snapshot: list[int] = []
    raw = getattr(args, "snapshot", "")
    if raw:
        for token in raw.split(","):
            token = token.strip()
            if token:
                try:
                    snapshot.append(int(token))
                except ValueError:
                    raise ValueError(
                        f"--snapshot: expected comma-separated integers, got {token!r}"
                    ) from None
    return RunConfig(
        scenario_path=args.scenario,
        algo=args.algo,
        iters=args.iters,
        seed=args.seed,
        trials=getattr(args, "trials", 1),
        eta=args.eta,
        gamma=args.gamma,
        stride=args.stride,
        out=args.out,
        snapshot=snapshot,
        inject_fault=getattr(args, "inject_fault", False),
    )


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; fold into the invalid-input code.
        return 1 if exc.code not in (0, None) else 0
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    command = {"run": cmd_run, "compare": cmd_compare, "check": cmd_check}[args.command]
    try:
        return command(config)
    except InvariantViolation as exc:
        print(f"error: invariant violation: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
