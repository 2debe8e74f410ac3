"""Benchmark worker: one workload, one seed, in this single process.

Started by ``run.py``, which passes ``--t0``, its CLOCK_MONOTONIC reading
just before it started this process, so ``setup_s`` covers interpreter
start-up, imports, scenario load and parameters up to the first planner
iteration.

The worker repeats the workload's planning operation in whole rounds until
``--seconds`` have passed (at least one round), then checks the last
round's outputs against ``checks.py``.  With ``--trace 0`` a round is one
untraced operation and the end-to-end metrics are reported; with
``--trace 1`` a round is the untraced operation followed by the same
operation traced (``tracing.py``), and the per-layer metrics are reported.
Timings are medians over rounds.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

E2E_UNITS = {"setup_s": "s", "run_s": "s", "best_cost": "cost", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", "self_s", "overhead_s")):
        return "s"
    if name.endswith(("_ratio", "_per_sample", "_per_edge")):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True, help="launcher's time.monotonic()")
    return p.parse_args(argv)


def arm_first_iteration_clock() -> list[float]:
    """Record time.monotonic() when the planner first draws a sample, which
    starts its first iteration; the hook then removes itself."""
    from rrtsharp import planner

    original = planner.sample_free
    mark: list[float] = []

    def first_sample(*args, **kwargs):
        mark.append(time.monotonic())
        planner.sample_free = original
        return original(*args, **kwargs)

    planner.sample_free = first_sample
    return mark


def timed(op):
    start = time.perf_counter()
    out = op()
    return out, time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rrtsharp" / "__init__.py").is_file():
        print(f"error: planner sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    first_iteration = arm_first_iteration_clock()
    from checks import load_world
    from workloads import WORKLOADS, Operation, check_workload, fingerprint, round_digest

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    op = Operation(workload, args.seed, out_dir / f"{workload.name}-seed{args.seed}")
    if args.trace:
        from tracing import Tracer

    attempted = failed = 0
    run_times: list[float] = []
    traced_times: list[float] = []
    layer_rounds: list[dict] = []
    problems: list[str] = []
    reference = last = tracer = None
    start = time.perf_counter()
    while True:
        last = None
        gc.collect()
        attempted += 1 + args.trace
        try:
            out, dt = timed(op)
            if args.trace:
                tracer = Tracer()
                with tracer.installed():
                    traced, traced_dt = timed(op)
        except Exception:
            failed += 1 + args.trace
            traceback.print_exc()
            out = None
        if out is not None:
            digest = round_digest(out)
            if reference is None:
                reference = digest
            elif digest != reference:
                problems.append(f"round {len(run_times)} output differs from round 0")
            run_times.append(dt)
            if args.trace:
                if round_digest(traced) != digest:
                    problems.append("traced output differs from untraced output")
                traced_times.append(traced_dt)
                if tracer.extended() + len(traced.sizes) != sum(v for v, _ in traced.sizes):
                    problems.append("EXTENDED outcomes + 1 per run != final |V|")
                layer_rounds.append(tracer.metrics(traced.sizes))
                last = traced
            else:
                last = out
        del out
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if last is None:
        print("error: every operation failed", file=sys.stderr)
        return 1

    problems += check_workload(workload, load_world(op.scenario_file), last)
    fp = fingerprint(last.runs)

    if args.trace:
        metrics = {
            name: statistics.median(r[name] for r in layer_rounds) for name in layer_rounds[0]
        }
        metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(run_times)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": first_iteration[0] - args.t0,
            "run_s": statistics.median(run_times),
            "best_cost": float(fp["best_cost"]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_UNITS

    for p in problems[:20]:
        print(f"check failed: {p}")
    print("fingerprint " + json.dumps({"workload": workload.name, "seed": args.seed, **fp}))
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  fingerprint=fp, run_s_rounds=run_times, traced_s_rounds=traced_times,
                  problems=problems)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
