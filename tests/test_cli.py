from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import atmg.cli
from atmg.cli import main
from atmg.extension import LpAdvInfeasibleError
from atmg.game import load_game, save_game
from conftest import count_calls, pennies_game


@pytest.fixture()
def pennies_file(tmp_path):
    path = tmp_path / "pennies.json"
    save_game(pennies_game(), path)
    return path


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


# ---------------------------------------------------------------------------
# gridworld
# ---------------------------------------------------------------------------

def test_gridworld_writes_game(tmp_path, capsys):
    out = tmp_path / "games" / "grid.json"
    assert main(["gridworld", "--n", "2", "--out", str(out)]) == 0
    assert "wrote 65-state game" in capsys.readouterr().out
    spec = load_game(out)
    assert spec.state_count == 65
    assert spec.team_sizes == (4, 4)
    assert spec.discount == 0.9


def test_gridworld_rejects_tiny_grid(tmp_path, capsys):
    out = tmp_path / "grid.json"
    assert main(["gridworld", "--n", "1", "--out", str(out)]) == 1
    assert not out.exists()
    assert "at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--gamma", "1.5"],
    ["--gamma", "nan"],
    ["--gamma", "-0.1"],
    ["--shift-delta", "nan"],
    ["--shift-delta", "inf"],
    ["--shift-delta", "-1"],
    ["--shift-delta", "1e300"],
    ["--shift-delta", "1e16"],
], ids=["gamma-1.5", "gamma-nan", "gamma-negative", "delta-nan", "delta-inf", "delta-minus-1",
        "delta-1e300", "delta-1e16"])
def test_gridworld_rejects_out_of_range_numbers(tmp_path, capsys, args):
    out = tmp_path / "grid.json"
    assert main(["gridworld", "--n", "2", "--out", str(out)] + args) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_pennies_manual(tmp_path, pennies_file):
    out = tmp_path / "run"
    code = main([
        "solve", "--game", str(pennies_file),
        "--eta", "0.05", "--iters", "40", "--out", str(out),
    ])
    assert code == 0

    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "t,frobenius_norm_consecutive_joint_policies,team_value,phi"
    assert len(lines) == 2 + 41
    first = lines[2].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0

    report = read_report(out)
    assert report["lp_status"] == "feasible"
    assert report["config"]["iters"] == 40
    assert report["config"]["eta"] == 0.05
    assert report["t_star"] == 0  # the uniform start is already stationary
    assert report["prox_gap_measured"] <= 1e-12
    assert report["nash_gap"]["epsilon_certified"] <= 1e-9
    # raw-unit gaps divide by the normalization scale
    scale = report["normalization"]["scale"]
    assert report["nash_gap_raw_units"]["epsilon_certified"] == pytest.approx(
        report["nash_gap"]["epsilon_certified"] / scale
    )
    assert report["wall_clock_seconds"] > 0.0

    policies = json.loads((out / "policies.json").read_text())
    np.testing.assert_allclose(np.array(policies["x"][0]), [[0.5, 0.5]], atol=1e-9)
    assert np.array(policies["y"]).shape == (1, 2)
    np.testing.assert_allclose(np.array(policies["y"]).sum(axis=1), 1.0, atol=1e-9)
    assert np.array(policies["lambda"]).shape == (1, 2)


def test_solve_is_reproducible(tmp_path, pennies_file):
    args = ["solve", "--game", str(pennies_file), "--eta", "0.05", "--iters", "25"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "policies.json").read_bytes() == (b / "policies.json").read_bytes()


def test_solve_random_selection(tmp_path, pennies_file):
    out = tmp_path / "run"
    code = main([
        "solve", "--game", str(pennies_file),
        "--eta", "0.05", "--iters", "30",
        "--select", "random", "--delta", "0.5", "--seed", "11",
        "--out", str(out),
    ])
    assert code == 0
    report = read_report(out)
    assert report["config"]["select"] == "random"
    assert report["config"]["seed"] == 11
    assert 0 <= report["t_star"] < 30


def test_solve_missing_game(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--game", str(tmp_path / "nope.json"),
                 "--eta", "0.1", "--iters", "1", "--out", str(out)])
    assert code == 1
    assert "not found" in capsys.readouterr().err
    assert not out.exists()


def test_solve_rejects_malformed_game(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "other"}')
    code = main(["solve", "--game", str(bad),
                 "--eta", "0.1", "--iters", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "cannot load" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize("field,literal", [("states", "1e999"),
                                           ("reward", "[[[1" + "0" * 400 + ", 0.1]]]"),
                                           ("states", "1.5"),
                                           ("states", "true"),
                                           ("adversary_actions", "2.5"),
                                           ("team_sizes", "[2.5]")],
                         ids=["inf-states", "huge-int-reward", "fractional-states",
                              "bool-states", "fractional-adversary-actions",
                              "fractional-team-size"])
def test_out_of_range_numbers_in_game_file(tmp_path, capsys, pennies_file, command,
                                           field, literal):
    # 1e999 parses as inf and a 401-digit integer as an int no float holds;
    # either must be reported as a bad game file, not raise OverflowError.
    # A count that is not a whole number, or is a bool, must not be
    # truncated into a valid one.
    text = pennies_file.read_text()
    payload = json.loads(text)
    payload[field] = "PLACEHOLDER"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload).replace('"PLACEHOLDER"', literal))
    if command == "verify":
        pol = tmp_path / "pol.json"
        pol.write_text(json.dumps({"x": [[[0.5, 0.5]]], "y": [[0.5, 0.5]]}))
        argv = ["verify", "--game", str(bad), "--policies", str(pol), "--epsilon", "0.1"]
    else:
        argv = ["solve", "--game", str(bad), "--eta", "0.1", "--iters", "1",
                "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_solve_rejects_invalid_game(tmp_path, capsys, pennies_file):
    payload = json.loads(pennies_file.read_text())
    payload["transition"]["probabilities"][0][0][0][0] = 0.25  # row no longer sums to 1
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    code = main(["solve", "--game", str(broken),
                 "--eta", "0.1", "--iters", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "invalid game" in capsys.readouterr().err


def test_solve_rejects_a_step_that_overflows(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--gridworld", "2", "--eta", "1e308", "--iters", "3",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: iterate 1 is not finite") and "Traceback" not in err
    assert not (out / "trace.csv").exists()


def test_gridworld_3_file_is_small(tmp_path):
    out = tmp_path / "grid3.json"
    assert main(["gridworld", "--n", "3", "--out", str(out)]) == 0
    assert out.stat().st_size < 4 * 2**20
    assert load_game(out).transition.succ.shape == (730, 16, 4, 1)


def test_solve_manual_requires_eta_and_iters(tmp_path, capsys, pennies_file):
    out = tmp_path / "run"
    code = main(["solve", "--game", str(pennies_file), "--out", str(out)])
    assert code == 1
    assert "manual schedule requires" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--eta", "nan", "--iters", "5"],
    ["--eta", "inf", "--iters", "5"],
    ["--schedule", "proposition", "--epsilon", "inf"],
    ["--eta", "0.1", "--iters", "5", "--cap-iters", "0"],
    ["--eta", "0.1", "--iters", "5", "--cap-iters", "-1"],
    ["--eta", "0.1", "--iters", "5", "--cap-iters", "-4"],
    ["--eta", "0.1", "--iters", "5", "--jobs", "0"],
    ["--eta", "0.1", "--iters", "5", "--jobs", "-2"],
    ["--schedule", "proposition", "--epsilon", "1e-5"],
    ["--eta", "0.1", "--iters", "1000000000000"],
], ids=["eta-nan", "eta-inf", "epsilon-inf", "cap-0", "cap-minus-1", "cap-minus-4",
        "jobs-0", "jobs-minus-2", "proposition-huge-T", "iters-huge"])
def test_solve_rejects_out_of_range_settings(tmp_path, capsys, pennies_file, args):
    out = tmp_path / "run"
    code = main(["solve", "--game", str(pennies_file), "--out", str(out)] + args)
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()
    assert not out.exists()


def test_solve_theorem_refuses_huge_iteration_counts(tmp_path, capsys, pennies_file):
    out = tmp_path / "run"
    code = main([
        "solve", "--game", str(pennies_file),
        "--schedule", "theorem", "--epsilon", "0.1", "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "cap-iters" in err
    assert not out.exists()

    code = main([
        "solve", "--game", str(pennies_file),
        "--schedule", "theorem", "--epsilon", "0.1",
        "--cap-iters", "20", "--out", str(out),
    ])
    assert code == 0
    assert read_report(out)["config"]["iters"] == 20


def test_solve_gridworld_proposition(tmp_path):
    out = tmp_path / "run"
    code = main([
        "solve", "--gridworld", "2",
        "--schedule", "proposition", "--epsilon", "0.2",
        "--cap-iters", "2000", "--out", str(out),
    ])
    assert code == 0
    report = read_report(out)
    assert report["config"]["iters"] == 1  # the cap never binds at this epsilon
    assert report["config"]["eta"] == pytest.approx(0.008)
    assert report["lp_status"] == "feasible"
    assert len((out / "trace.csv").read_text().splitlines()) == 4


def test_solve_jobs_fan_out(tmp_path, pennies_file):
    out = tmp_path / "multi"
    code = main([
        "solve", "--game", str(pennies_file),
        "--eta", "0.05", "--iters", "10",
        "--seed", "5", "--jobs", "2", "--out", str(out),
    ])
    assert code == 0
    for seed in (5, 6):
        sub = out / f"seed-{seed}"
        assert (sub / "trace.csv").is_file()
        assert (sub / "policies.json").is_file()
        assert read_report(sub)["config"]["seed"] == seed


@pytest.mark.parametrize("select", ["prox", "random"])
def test_solve_jobs_runs_the_loop_once(tmp_path, pennies_file, monkeypatch, select):
    runs = count_calls(monkeypatch, atmg.cli, "run")
    args = ["solve", "--game", str(pennies_file), "--eta", "0.05", "--iters", "20",
            "--select", select]
    out = tmp_path / "multi"
    assert main(args + ["--seed", "5", "--jobs", "3", "--out", str(out)]) == 0
    assert len(runs) == 1

    seeds = [out / f"seed-{seed}" for seed in (5, 6, 7)]
    assert len({(sub / "trace.csv").read_bytes() for sub in seeds}) == 1
    if select == "prox":
        assert len({(sub / "policies.json").read_bytes() for sub in seeds}) == 1
    # Each seed's files are those of a single-seed run with that seed.
    single = tmp_path / "single"
    assert main(args + ["--seed", "7", "--out", str(single)]) == 0
    for name in ("trace.csv", "policies.json"):
        assert (single / name).read_bytes() == (seeds[-1] / name).read_bytes()
    assert read_report(single)["t_star"] == read_report(seeds[-1])["t_star"]


def test_solve_lp_infeasible_exit_code(tmp_path, pennies_file, monkeypatch, capsys):
    def always_infeasible(spec, x_hat, epsilon, **kwargs):
        raise LpAdvInfeasibleError("forced for the test", 0.123)

    monkeypatch.setattr(atmg.cli, "adv_nash_policy", always_infeasible)
    out = tmp_path / "run"
    code = main(["solve", "--game", str(pennies_file),
                 "--eta", "0.05", "--iters", "5", "--out", str(out)])
    assert code == 2
    assert "forced for the test" in capsys.readouterr().err

    report = read_report(out)
    assert report["lp_status"] == "infeasible"
    assert report["lp_diagnostics"]["max_violation"] == 0.123
    assert "nash_gap" not in report

    policies = json.loads((out / "policies.json").read_text())
    assert policies["x"] is not None
    assert policies["y"] is None
    assert policies["lambda"] is None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_accepts_solved_policies(tmp_path, pennies_file, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--game", str(pennies_file),
                 "--eta", "0.05", "--iters", "40", "--out", str(out)]) == 0
    code = main(["verify", "--game", str(pennies_file),
                 "--policies", str(out / "policies.json"), "--epsilon", "0.05"])
    assert code == 0
    gap = json.loads(capsys.readouterr().out)
    assert gap["epsilon_certified"] <= 0.05


def test_verify_rejects_large_gap(tmp_path, pennies_file, capsys):
    pol = tmp_path / "pure.json"
    pol.write_text(json.dumps({
        "x": [[[1.0, 0.0]]], "y": [[1.0, 0.0]], "lambda": None,
    }))
    code = main(["verify", "--game", str(pennies_file),
                 "--policies", str(pol), "--epsilon", "0.1"])
    assert code == 3
    gap = json.loads(capsys.readouterr().out)
    assert gap["epsilon_certified"] == pytest.approx(0.8, abs=1e-9)


@pytest.mark.parametrize("epsilon", ["nan", "-1", "inf"])
def test_verify_rejects_out_of_range_epsilon(tmp_path, pennies_file, capsys, epsilon):
    pol = tmp_path / "uniform.json"
    pol.write_text(json.dumps({"x": [[[0.5, 0.5]]], "y": [[0.5, 0.5]], "lambda": None}))
    code = main(["verify", "--game", str(pennies_file),
                 "--policies", str(pol), "--epsilon", epsilon])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_verify_rejects_bad_policy_files(tmp_path, pennies_file, capsys):
    missing_key = tmp_path / "incomplete.json"
    missing_key.write_text(json.dumps({"x": [[[0.5, 0.5]]]}))
    assert main(["verify", "--game", str(pennies_file),
                 "--policies", str(missing_key), "--epsilon", "0.1"]) == 1
    assert "schema" in capsys.readouterr().err

    bad_sums = tmp_path / "sums.json"
    bad_sums.write_text(json.dumps({"x": [[[0.7, 0.7]]], "y": [[0.5, 0.5]]}))
    assert main(["verify", "--game", str(pennies_file),
                 "--policies", str(bad_sums), "--epsilon", "0.1"]) == 1
    assert "distribution" in capsys.readouterr().err

    assert main(["verify", "--game", str(pennies_file),
                 "--policies", str(tmp_path / "absent.json"), "--epsilon", "0.1"]) == 1


def test_verify_rejects_out_of_range_policy_numbers(tmp_path, pennies_file, capsys):
    pol = tmp_path / "huge.json"
    pol.write_text('{"x": [[[1' + "0" * 400 + ', 0.0]]], "y": [[0.5, 0.5]]}')
    assert main(["verify", "--game", str(pennies_file),
                 "--policies", str(pol), "--epsilon", "0.1"]) == 1
    captured = capsys.readouterr()
    assert "schema" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("table", ["x", "y"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_verify_rejects_non_finite_policies(tmp_path, pennies_file, capsys, table, bad):
    payload = {"x": [[[0.5, 0.5]]], "y": [[0.5, 0.5]], "lambda": None}
    payload[table] = [[[bad, 1.0]]] if table == "x" else [[bad, 1.0]]
    pol = tmp_path / "bad.json"
    pol.write_text(json.dumps(payload))
    assert main(["verify", "--game", str(pennies_file),
                 "--policies", str(pol), "--epsilon", "0.1"]) == 1
    captured = capsys.readouterr()
    assert "distribution" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# Usage errors
# ---------------------------------------------------------------------------

SOLVE = ["solve", "--gridworld", "2", "--eta", "0.1", "--iters", "5"]


@pytest.mark.parametrize("argv", [
    SOLVE + ["--out", "x", "--bogus"],
    ["verify", "--game", "g.json", "--policies", "p.json", "--epsilon", "-inf"],
    SOLVE,
    ["solve", "--gridworld", "2", "--eta", "0.1", "--iters", "abc", "--out", "x"],
    SOLVE + ["--out", "x", "--schedule", "foo"],
    [],
], ids=["unknown-flag", "missing-value", "missing-out", "iters-abc", "schedule-foo",
        "no-subcommand"])
def test_usage_errors_exit_1(tmp_path, monkeypatch, capsys, argv):
    # Exit code 2 is reserved for an infeasible adversary LP.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: atmg")
    assert "error:" in captured.err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "atmg", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    for word in ("solve", "verify", "gridworld"):
        assert word in proc.stdout


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def solve_args(tmp_path, pennies_file):
    return ["solve", "--game", str(pennies_file),
            "--eta", "0.05", "--iters", "5", "--out", str(tmp_path / "run")]


def test_console_script(tmp_path, pennies_file):
    """The `atmg` entry of [project.scripts] names a callable that works as a
    console script: called with no arguments, it reads sys.argv and returns
    the exit code.  This runs it the way the wrapper that pip generates does,
    so it needs no install."""
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    module, attr = scripts["atmg"].split(":")
    wrapper = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'atmg'; sys.exit({attr}())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *solve_args(tmp_path, pennies_file)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "report.json").is_file()


@pytest.mark.skipif(shutil.which("atmg") is None, reason="atmg console script not installed")
def test_installed_console_script(tmp_path, pennies_file):
    proc = subprocess.run(
        ["atmg", *solve_args(tmp_path, pennies_file)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "report.json").is_file()
