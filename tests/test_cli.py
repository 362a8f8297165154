from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import atmg.cli
from atmg.cli import _policies_payload, main, solve
from atmg.extension import LpAdvInfeasibleError
from atmg.game import grid_world, load_game, normalize_rewards, save_game
from atmg.ipgmax import IpgmaxConfig, schedule_proposition, schedule_theorem
from conftest import count_calls, make_random_game, pennies_game


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


@pytest.mark.parametrize("side", ["1", "0"])
def test_solve_rejects_a_tiny_grid(tmp_path, capsys, monkeypatch, side):
    runs = count_calls(monkeypatch, atmg.cli, "run")
    out = tmp_path / "run"
    assert main(["solve", "--gridworld", side, "--eta", "0.1", "--iters", "5",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --gridworld needs a side of at least 2, got {side}\n"
    assert runs == [] and not out.exists()


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


@pytest.mark.parametrize("argv", [
    ["gridworld", "--n", "40"],
    ["solve", "--gridworld", "40", "--eta", "0.1", "--iters", "2"],
], ids=["gridworld", "solve"])
def test_a_grid_larger_than_memory_is_refused_before_it_is_built(tmp_path, capsys, argv):
    # grid_world(40) has 1600**3 + 1 states, whose build would take 8.6 TiB.
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: grid_world(40) needs 8.79e+03 GiB") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()
    assert peak < 4 * 2**20


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
    assert report["paper_schedules"] is None  # no --epsilon
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


@pytest.mark.parametrize("select", [["--select", "prox"], ["--select", "random", "--seed", "7"]],
                         ids=["prox", "random"])
def test_solve_is_reproducible(tmp_path, pennies_file, select):
    args = ["solve", "--game", str(pennies_file), "--eta", "0.05", "--iters", "25"] + select
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


def test_solve_takes_a_delta_whose_inverse_overflows(tmp_path, capsys):
    # 1/delta is inf at 5e-324; the run draws ceil(-ln delta) = 745 candidates.
    out = tmp_path / "run"
    assert main(["solve", "--gridworld", "2", "--eta", "0.1", "--iters", "5",
                 "--select", "random", "--delta", "5e-324", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = read_report(out)
    assert report["config"]["delta"] == 5e-324
    assert 0 <= report["t_star"] < 5


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


# pennies' transition with one bool probability, and with one bool successor.
BOOL_PROBABILITY = ('{"successors": [[[[0], [0]], [[0], [0]]]], '
                    '"probabilities": [[[[1.0], [true]], [[1.0], [1.0]]]]}')
BOOL_SUCCESSOR = ('{"successors": [[[[0], [0]], [[0], [false]]]], '
                  '"probabilities": [[[[1.0], [1.0]], [[1.0], [1.0]]]]}')


@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize("field,literal", [("states", "1e999"),
                                           ("reward", "[[[1" + "0" * 400 + ", 0.1]]]"),
                                           ("states", "1.5"),
                                           ("states", "true"),
                                           ("adversary_actions", "2.5"),
                                           ("team_sizes", "[2.5]"),
                                           ("gamma", "false"),
                                           ("gamma", '"0.9"'),
                                           ("rho", '["1.0"]'),
                                           ("reward", '[[["0.9", 0.1], [0.1, 0.9]]]'),
                                           ("reward", "[[[true, 0.1], [0.1, 0.9]]]"),
                                           ("transition", BOOL_PROBABILITY),
                                           ("transition", BOOL_SUCCESSOR)],
                         ids=["inf-states", "huge-int-reward", "fractional-states",
                              "bool-states", "fractional-adversary-actions",
                              "fractional-team-size", "bool-gamma", "string-gamma",
                              "string-rho", "string-reward", "bool-reward",
                              "bool-probability", "bool-successor"])
def test_out_of_range_numbers_in_game_file(tmp_path, capsys, pennies_file, command,
                                           field, literal):
    # 1e999 parses as inf and a 401-digit integer as an int no float holds;
    # either must be reported as a bad game file, not raise OverflowError.
    # A count that is not a whole number, or is a bool, must not be
    # truncated into a valid one, nor a bool or a numeric string read as the
    # number it resembles.
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
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_solve_rejects_invalid_game(tmp_path, capsys, pennies_file):
    payload = json.loads(pennies_file.read_text())
    payload["transition"]["probabilities"][0][0][0][0] = 0.25  # row no longer sums to 1
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    code = main(["solve", "--game", str(broken),
                 "--eta", "0.1", "--iters", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "invalid game" in capsys.readouterr().err


@pytest.mark.parametrize("args,problem", [
    (["--eta", "1e308", "--iters", "3"], "is not finite"),
    # Steps that round the iterate's entries away leave rows that do not
    # sum to 1: unchecked, phi(1) came out negative, or a later solve failed.
    (["--eta", "1e14", "--iters", "3"], "is off the simplex"),
    (["--eta", "1e20", "--iters", "3"], "is off the simplex"),
    # The proposition's (eta, T) at epsilon = 1e100, eta rounded.
    (["--eta", "2e199", "--iters", "1", "--epsilon", "1e100"], "is off the simplex"),
], ids=["eta-1e308", "eta-1e14", "eta-1e20", "proposition-epsilon-1e100"])
def test_solve_rejects_a_step_that_overflows(tmp_path, capsys, args, problem):
    out = tmp_path / "run"
    code = main(["solve", "--gridworld", "2", "--out", str(out)] + args)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: iterate 1 {problem}") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (out / "trace.csv").exists()


def test_gridworld_3_file_is_small(tmp_path):
    out = tmp_path / "grid3.json"
    assert main(["gridworld", "--n", "3", "--out", str(out)]) == 0
    assert out.stat().st_size < 4 * 2**20
    assert load_game(out).transition.succ.shape == (730, 16, 4, 1)


def test_solve_manual_requires_eta_and_iters(tmp_path, capsys, pennies_file):
    # argparse refuses the command before any game is built.
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--game", str(pennies_file), "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: atmg solve")
    assert "error: the following arguments are required: --eta, --iters" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--eta", "nan", "--iters", "5"],
    ["--eta", "inf", "--iters", "5"],
    ["--eta", "0.1", "--iters", "5", "--epsilon", "inf"],
    ["--eta", "0.1", "--iters", "5", "--epsilon", "nan"],
    ["--eta", "0.1", "--iters", "0"],
    ["--eta", "0.1", "--iters", "-1"],
    ["--eta", "0.1", "--iters", "-4"],
    # The proposition's (eta, T) at epsilon = 1e-5, eta rounded.
    ["--eta", "2e-10", "--iters", "781249999999999745", "--epsilon", "1e-5"],
    ["--eta", "0.1", "--iters", "1000000000000"],
    # Every formula refuses these, and a refusal fails the solve.
    ["--eta", "0.1", "--iters", "5", "--epsilon", "1e200"],
    ["--eta", "0.1", "--iters", "5", "--epsilon", "1e154"],
    ["--eta", "0.1", "--iters", "5", "--epsilon", "1e-200"],
], ids=["eta-nan", "eta-inf", "epsilon-inf", "epsilon-nan", "iters-0", "iters-minus-1",
        "iters-minus-4", "proposition-huge-T", "iters-huge",
        "proposition-epsilon-squared-overflows", "proposition-eta-overflows",
        "theorem-eta-underflows"])
def test_solve_rejects_out_of_range_settings(tmp_path, capsys, pennies_file, args):
    out = tmp_path / "run"
    code = main(["solve", "--game", str(pennies_file), "--out", str(out)] + args)
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()
    assert not out.exists()


@pytest.mark.parametrize("args,problem", [
    (["--epsilon", "1e154"], "epsilon = 1e+154 is too large"),
    (["--epsilon", "1e-200"], "epsilon = 1e-200 is too small"),
], ids=["proposition-eta-overflows", "theorem-eta-underflows"])
def test_solve_blames_epsilon_for_a_derived_step_that_is_not_finite_and_positive(
    tmp_path, capsys, pennies_file, args, problem
):
    out = tmp_path / "run"
    code = main(["solve", "--game", str(pennies_file), "--eta", "0.1", "--iters", "5",
                 "--out", str(out)] + args)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {problem}") and err.count("\n") == 1
    assert not out.exists()


def paper_schedules(out, argv):
    """report.json's paper_schedules of a short solve with these flags."""
    assert main(["solve", "--eta", "0.1", "--iters", "20", "--out", str(out)] + argv) == 0
    return read_report(out)["paper_schedules"]


def test_solve_reports_the_paper_schedules_of_the_game_it_ran(tmp_path):
    schedules = paper_schedules(tmp_path / "run", ["--gridworld", "2", "--epsilon", "0.1"])
    normalized = normalize_rewards(grid_world(2))[0]
    assert schedules == {
        name: dict(zip(("eta", "iters"), schedule(normalized, 0.1)))
        for name, schedule in (("theorem", schedule_theorem),
                               ("proposition", schedule_proposition))
    }
    assert schedules["theorem"]["eta"] == pytest.approx(2.3978728128819782e-29, rel=1e-12)
    assert schedules["theorem"]["iters"] == 6038863663747094174725373546741110992930633064466
    assert schedules["proposition"] == {"eta": pytest.approx(0.002, rel=1e-12), "iters": 1}


def test_solve_theorem_refuses_huge_iteration_counts(tmp_path, capsys, pennies_file):
    # The theorem's pair at epsilon = 0.1, passed by hand: T = 1.3e9.
    theorem = paper_schedules(tmp_path / "pair", ["--game", str(pennies_file),
                                                  "--epsilon", "0.1"])["theorem"]
    assert theorem["iters"] == 1310720000
    eta = repr(theorem["eta"])
    out = tmp_path / "run"
    code = main(["solve", "--game", str(pennies_file), "--eta", eta,
                 "--iters", str(theorem["iters"]), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--iters" in err
    assert not out.exists()

    code = main(["solve", "--game", str(pennies_file), "--eta", eta,
                 "--iters", "20", "--out", str(out)])
    assert code == 0
    assert read_report(out)["config"] == {
        "epsilon": None, "eta": theorem["eta"], "iters": 20,
        "select": "prox", "delta": 0.5, "seed": 0,
    }


def test_solve_gridworld_proposition(tmp_path):
    # The proposition's pair at epsilon = 0.2 is one step of 0.008.
    proposition = paper_schedules(tmp_path / "pair", ["--gridworld", "2",
                                                      "--epsilon", "0.2"])["proposition"]
    assert proposition == {"eta": pytest.approx(0.008), "iters": 1}
    out = tmp_path / "run"
    code = main(["solve", "--gridworld", "2", "--eta", repr(proposition["eta"]),
                 "--iters", str(proposition["iters"]), "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["config"]["iters"] == 1
    assert report["config"]["eta"] == proposition["eta"]
    assert report["lp_status"] == "feasible"
    assert len((out / "trace.csv").read_text().splitlines()) == 4


def always_infeasible(spec, x_hat, epsilon, **kwargs):
    raise LpAdvInfeasibleError("forced for the test", 0.123)


def test_solve_lp_infeasible_exit_code(tmp_path, pennies_file, monkeypatch, capsys):
    monkeypatch.setattr(atmg.cli, "adv_nash_policy", always_infeasible)
    out = tmp_path / "run"
    code = main(["solve", "--game", str(pennies_file),
                 "--eta", "0.05", "--iters", "5", "--out", str(out)])
    assert code == 2
    assert "forced for the test" in capsys.readouterr().err

    report = read_report(out)
    assert list(report) == ["game", "config", "paper_schedules", "normalization", "t_star",
                            "prox_gap_measured", "lp_epsilon", "files", "lp_status",
                            "lp_diagnostics", "wall_clock_seconds"]
    assert report["lp_status"] == "infeasible"
    assert report["lp_diagnostics"]["max_violation"] == 0.123
    assert "nash_gap" not in report

    policies = json.loads((out / "policies.json").read_text())
    assert policies["x"] is not None
    assert policies["y"] is None
    assert policies["lambda"] is None


def test_library_solve_gives_the_cli_answer(tmp_path, pennies_file, monkeypatch):
    out = tmp_path / "run"
    assert main(["solve", "--game", str(pennies_file),
                 "--eta", "0.05", "--iters", "30", "--out", str(out)]) == 0
    report = read_report(out)
    spec = normalize_rewards(load_game(pennies_file))[0]
    solution = solve(spec, IpgmaxConfig(eta=0.05, iters=30))
    policies = _policies_payload(solution.trace.x_hat, solution.y_hat, solution.lam)
    assert (json.dumps(policies, indent=2) + "\n").encode() == (out / "policies.json").read_bytes()
    assert solution.trace.t_star == report["t_star"]
    assert solution.lp_epsilon == report["lp_epsilon"]
    assert solution.gap.epsilon_certified == report["nash_gap"]["epsilon_certified"]
    assert solution.error is None

    monkeypatch.setattr(atmg.cli, "adv_nash_policy", always_infeasible)
    infeasible = solve(spec, IpgmaxConfig(eta=0.05, iters=5))
    assert infeasible.y_hat is None and infeasible.lam is None and infeasible.gap is None
    assert infeasible.error.max_violation == 0.123


def test_library_solve_refuses_a_config_that_selects_no_iterate(monkeypatch):
    runs = count_calls(monkeypatch, atmg.cli, "run")
    with pytest.raises(ValueError, match="'none'"):
        solve(pennies_game(), IpgmaxConfig(eta=0.05, iters=5, iterate_selection="none"))
    assert runs == []


def test_verify_refuses_the_policies_of_an_infeasible_solve(
        tmp_path, pennies_file, monkeypatch, capsys):
    monkeypatch.setattr(atmg.cli, "adv_nash_policy", always_infeasible)
    out = tmp_path / "run"
    assert main(["solve", "--game", str(pennies_file),
                 "--eta", "0.05", "--iters", "5", "--out", str(out)]) == 2
    capsys.readouterr()
    pol = out / "policies.json"
    code = main(["verify", "--game", str(pennies_file), "--policies", str(pol), "--epsilon", "0.1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: cannot load {pol}: policies file does not match schema: "
                            "it holds no adversary policy ('y' is null or missing)\n")
    assert captured.out == ""


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


@pytest.mark.parametrize("n_blocks", [1, 3])
def test_verify_rejects_a_wrong_team_block_count(tmp_path, capsys, n_blocks):
    game = tmp_path / "two-players.json"
    save_game(make_random_game(np.random.default_rng(5), 1, (2, 2), 2, 0.5), game)
    pol = tmp_path / "pol.json"
    pol.write_text(json.dumps({"x": [[[0.5, 0.5]]] * n_blocks, "y": [[0.5, 0.5]]}))
    assert main(["verify", "--game", str(game), "--policies", str(pol), "--epsilon", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: cannot load {pol}: team policy has {n_blocks} blocks, expected 2\n"
    )
    assert captured.out == ""


NOT_UTF8 = b'{"schema": "\xff"}'
SCHEMA = "policies file does not match schema: "


@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize("kind", ["fractional-states", "not-utf8", "not-json", "not-an-object"])
def test_game_load_errors_name_the_file_once(tmp_path, capsys, pennies_file, command, kind):
    payload = json.loads(pennies_file.read_text())
    payload["states"] = 1.5
    content, problem = {
        "fractional-states": (json.dumps(payload).encode(), "malformed game data"),
        "not-utf8": (NOT_UTF8, "not valid UTF-8 JSON"),
        "not-json": (b'{"states": ', "not valid UTF-8 JSON"),
        "not-an-object": (b"[1, 2]", "top level must be an object"),
    }[kind]
    bad = tmp_path / "bad-game.json"
    bad.write_bytes(content)
    if command == "verify":
        pol = tmp_path / "pol.json"
        pol.write_text(json.dumps({"x": [[[0.5, 0.5]]], "y": [[0.5, 0.5]]}))
        argv = ["verify", "--game", str(bad), "--policies", str(pol), "--epsilon", "0.1"]
    else:
        argv = ["solve", "--game", str(bad), "--eta", "0.1", "--iters", "1",
                "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load {bad}: {problem}")
    assert err.count("bad-game.json") == 1 and "Traceback" not in err


@pytest.mark.parametrize("content,problem", [
    (NOT_UTF8, "'utf-8' codec can't decode"),
    (b'{"x": ', "Expecting value"),
    (b'{"y": [[0.5, 0.5]]}', "policies file does not match schema"),
    (b'{"x": [[[0.4, 0.3, 0.3]]], "y": [[0.5, 0.5]]}', "block 0 has shape (1, 3), expected (1, 2)"),
    (b'{"x": [[["0.5", 0.5]]], "y": [[0.5, 0.5]]}', SCHEMA + "x must hold only numbers\n"),
    (b'{"x": [[[true, false]]], "y": [[0.5, 0.5]]}', SCHEMA + "x must hold only numbers\n"),
    (b'{"x": [[[0.5, 0.5]]], "y": [["0.5", "0.5"]]}', SCHEMA + "y must hold only numbers\n"),
    (b'{"x": [[[0.5, 0.5]]], "y": [[true, false]]}', SCHEMA + "y must hold only numbers\n"),
], ids=["not-utf8", "not-json", "no-x", "block-shape", "string-x", "bool-x", "string-y",
        "bool-y"])
def test_policy_load_errors_name_the_file_once(tmp_path, capsys, pennies_file, content, problem):
    pol = tmp_path / "bad-policies.json"
    pol.write_bytes(content)
    assert main(["verify", "--game", str(pennies_file),
                 "--policies", str(pol), "--epsilon", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load {pol}: {problem}")
    assert err.count("bad-policies.json") == 1 and "Traceback" not in err


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
    SOLVE + ["--out", "x", "--schedule", "proposition"],
    SOLVE + ["--out", "x", "--cap-iters", "5"],
    SOLVE + ["--out", "x", "--select", "none"],
    SOLVE + ["--out", "x", "--jobs", "2"],
    [],
], ids=["unknown-flag", "missing-value", "missing-out", "iters-abc", "schedule-foo",
        "schedule-proposition", "cap-iters", "select-none", "jobs", "no-subcommand"])
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


@pytest.mark.parametrize("argv,out", [
    (SOLVE, "file"),
    (SOLVE, "file/x"),
    (["gridworld", "--n", "2"], "file/x.json"),
    (["gridworld", "--n", "2"], "."),
], ids=["solve-at-file", "solve-under-file", "gridworld-under-file", "gridworld-at-dir"])
def test_out_that_cannot_be_written_fails_cleanly(tmp_path, capsys, monkeypatch, argv, out):
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    runs = count_calls(monkeypatch, atmg.cli, "run")
    assert main(argv + ["--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert runs == []  # solve refuses before the loop
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept\n"


@pytest.mark.parametrize("blocked,left", [
    ("trace.csv", []),
    ("report.json", ["policies.json", "trace.csv"]),
], ids=["trace.csv", "report.json"])
def test_solve_output_file_that_cannot_be_written_fails_cleanly(
        tmp_path, capsys, pennies_file, blocked, left):
    # A directory where solve writes a file: the files written before it stay.
    out = tmp_path / "run"
    (out / blocked).mkdir(parents=True)
    assert main(["solve", "--game", str(pennies_file),
                 "--eta", "0.05", "--iters", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert sorted(path.name for path in out.iterdir()) == sorted([blocked, *left])
    assert list((out / blocked).iterdir()) == []


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
