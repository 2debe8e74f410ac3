"""Command-line behavior: artifacts, exit codes, determinism."""

import json
import math

import pytest

from rrtsharp import bench
from rrtsharp.cli import run_cli
from rrtsharp.nngraph import parse_graph_dump
from rrtsharp.scenarios import scenario_path

D2_EMPTY = str(scenario_path("d2_empty"))
D2_BOXES = str(scenario_path("d2_boxes"))


def run_args(*args):
    return run_cli(list(args))


# ------------------------------------------------------------------ run


def test_run_writes_history_path_and_snapshots(tmp_path):
    out = tmp_path / "out"
    code = run_args(
        "run", "--scenario", D2_EMPTY, "--algo", "v0", "--iters", "600",
        "--seed", "3", "--stride", "100", "--out", str(out),
        "--snapshot", "200,400",
    )
    assert code == 0

    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "iteration,elapsed_s,best_cost"
    assert len(history) == 1 + 7  # iterations 0, 100, ..., 600
    for row in history[1:]:
        it, elapsed, cost = row.split(",")
        int(it)
        assert elapsed == "0.0"
        float(cost)
    # Anytime cost never increases.
    costs = [float(r.split(",")[2]) for r in history[1:]]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    assert math.isfinite(costs[-1])

    path_lines = (out / "path.txt").read_text().splitlines()
    assert len(path_lines) >= 2
    first = tuple(float(c) for c in path_lines[0].split(","))
    assert first == (0.1, 0.1)  # the start vertex

    for k in (200, 400):
        dump = (out / f"tree_{k}.txt").read_text().splitlines()
        parsed = parse_graph_dump(dump)
        assert 2 <= len(parsed.vertices) <= k + 1
        assert parsed.edges
        cats = {v["category"] for v in parsed.vertices}
        assert cats <= {
            "CONSISTENT_FINITE",
            "CONSISTENT_INFINITE",
            "INCONSISTENT_FINITE",
            "INCONSISTENT_INF_G_FINITE_LMC",
        }


def test_run_byte_identical_across_reruns(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run_args(
            "run", "--scenario", D2_BOXES, "--algo", "rrtsharp-v1",
            "--iters", "400", "--seed", "9", "--stride", "50",
            "--out", str(out), "--snapshot", "300",
        )
        assert code == 0
        outs.append(out)
    for fname in ("history.csv", "path.txt", "tree_300.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_run_baseline_algorithm(tmp_path):
    out = tmp_path / "star"
    code = run_args(
        "run", "--scenario", D2_EMPTY, "--algo", "rrtstar", "--iters", "500",
        "--seed", "0", "--stride", "100", "--out", str(out),
    )
    assert code == 0
    history = (out / "history.csv").read_text().splitlines()
    assert math.isfinite(float(history[-1].split(",")[2]))


# -------------------------------------------------------------- compare


def test_compare_writes_stats_and_time_ratio(tmp_path):
    out = tmp_path / "cmp"
    code = run_args(
        "compare", "--scenario", D2_EMPTY, "--algo", "v0,rrtstar",
        "--iters", "300", "--trials", "2", "--seed", "1", "--stride", "100",
        "--out", str(out),
    )
    assert code == 0
    stats = (out / "stats.csv").read_text().splitlines()
    assert stats[0] == "variant,iteration,mean_cost,variance,unsolved_fraction,mean_elapsed_s"
    variants = {row.split(",")[0] for row in stats[1:]}
    assert variants == {"rrtsharp-v0", "rrtstar"}
    assert len(stats) == 1 + 2 * 4  # two variants, grid 0/100/200/300

    ratio = (out / "time_ratio.csv").read_text().splitlines()
    assert ratio[0] == "variant,iteration,time_ratio"
    for row in ratio[1:]:
        _, it, r = row.split(",")
        assert int(it) > 0
        assert float(r) > 0.0


@pytest.mark.parametrize(
    "algo, listed",
    [("v0,rrtstar", {"rrtsharp-v0", "rrtstar"}), ("v0", {"rrtsharp-v0"})],
)
def test_compare_runs_each_trial_once(tmp_path, monkeypatch, algo, listed):
    """Time ratios reuse the timed trials; the baseline's trials run extra,
    after the requested variants, only when it was not requested."""
    seen = []
    plain = bench.run_planner

    def counted(*args, **kwargs):
        seen.append(args[1].value)
        return plain(*args, **kwargs)

    monkeypatch.setattr(bench, "run_planner", counted)
    assert run_args(
        "compare", "--scenario", D2_EMPTY, "--algo", algo, "--iters", "20",
        "--trials", "2", "--stride", "10", "--out", str(tmp_path / "cmp"),
    ) == 0
    assert seen == ["rrtsharp-v0"] * 2 + ["rrtstar"] * 2
    ratio = (tmp_path / "cmp" / "time_ratio.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in ratio} == listed


def test_compare_cost_columns_deterministic(tmp_path):
    def cost_fields(out):
        rows = (out / "stats.csv").read_text().splitlines()[1:]
        return [tuple(r.split(",")[:5]) for r in rows]  # drop elapsed column

    outs = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        assert run_args(
            "compare", "--scenario", D2_BOXES, "--algo", "v1,v2",
            "--iters", "200", "--trials", "2", "--seed", "4",
            "--stride", "50", "--out", str(out),
        ) == 0
        outs.append(out)
    assert cost_fields(outs[0]) == cost_fields(outs[1])


# ---------------------------------------------------------------- check


def test_check_clean_run_exits_zero(tmp_path, capsys):
    code = run_args(
        "check", "--scenario", D2_EMPTY, "--algo", "v0", "--iters", "300",
        "--seed", "0", "--stride", "100", "--out", str(tmp_path / "chk"),
    )
    assert code == 0
    assert "3 checkpoints clean" in capsys.readouterr().out


def test_check_detects_injected_fault(tmp_path, capsys):
    out = tmp_path / "fault"
    code = run_args(
        "check", "--scenario", D2_EMPTY, "--algo", "v0", "--iters", "200",
        "--seed", "0", "--stride", "100", "--out", str(out),
        "--inject-fault",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "violation" in err
    dumps = list(out.glob("violation_*.txt"))
    assert dumps
    parsed = parse_graph_dump(dumps[0].read_text().splitlines())
    assert parsed.vertices


def test_check_rejects_baseline(capsys):
    code = run_args("check", "--scenario", D2_EMPTY, "--algo", "rrtstar")
    assert code == 1
    assert "consistent-tree" in capsys.readouterr().err


# ----------------------------------------------------------- exit codes


def test_unknown_algorithm_lists_valid_names(capsys):
    code = run_args("run", "--scenario", D2_EMPTY, "--algo", "dijkstra")
    assert code == 1
    err = capsys.readouterr().err
    assert "rrtstar" in err and "rrtsharp-v3" in err


def test_invalid_scenario_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dimension": 2,
        "bounds": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [],
        "zones": [],
        "x_init": [5.0, 5.0],
        "goal": {"min": [0.8, 0.1], "max": [0.9, 0.2]},
    }))
    code = run_args("run", "--scenario", str(bad))
    assert code == 1
    assert "x_init" in capsys.readouterr().err


def test_missing_scenario_file(tmp_path, capsys):
    code = run_args("run", "--scenario", str(tmp_path / "nope.json"))
    assert code == 1
    assert "scenario file" in capsys.readouterr().err


def test_malformed_flags_exit_one(capsys):
    assert run_args("run") == 1  # --scenario is required
    assert run_args("frobnicate") == 1  # unknown subcommand
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("run", "--eta", "0"),
        ("run", "--eta", "-0.5"),
        ("run", "--eta", "nan"),
        ("run", "--eta", "inf"),
        ("run", "--gamma", "-1"),
        ("run", "--gamma", "0"),
        ("run", "--gamma", "inf"),
        ("check", "--gamma", "nan"),
        ("run", "--iters", "-1"),
        ("run", "--stride", "0"),
        ("check", "--stride", "0"),
        ("compare", "--trials", "0"),
    ],
)
def test_out_of_range_flag_exits_one_naming_it(tmp_path, capsys, command, flag, value):
    code = run_args(
        command, "--scenario", D2_EMPTY, "--iters", "5",
        "--out", str(tmp_path / "o"), flag, value,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {flag}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_sampling_budget_exit_two(tmp_path, capsys, command):
    starved = tmp_path / "starved.json"
    starved.write_text(json.dumps({
        "dimension": 2,
        "bounds": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [{"min": [0, 0], "max": [1, 1.0 - 1e-12]}],
        "zones": [],
        "x_init": [0.5, 1.0],
        "goal": {"min": [0.4, 1.0 - 1e-12], "max": [0.6, 1.0]},
    }))
    code = run_args(
        command, "--scenario", str(starved), "--algo", "v0", "--iters", "5",
        "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert "no free sample" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_fault_flag_hidden_from_help(capsys):
    code = run_args("check", "--help")
    assert code == 0
    assert "--inject-fault" not in capsys.readouterr().out
