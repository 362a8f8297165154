"""Tests of the benchmark's tracer.

    python3 -m pytest -q perfbench/test_tracer.py

Tracing must not change what the program computes, must put every
function back afterwards, and must count the same work on every run.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import atmg  # noqa: E402
from atmg import cli, game  # noqa: E402
from tracer import (  # noqa: E402
    ATTRS, END, LAYER_UNITS, NAME, START, Tracer, layer_metrics, self_times,
)
from workloads import PenniesProx  # noqa: E402

COUNTS = (
    "mdp.adversary_best_response.calls",
    "mdp.policy_gradient.calls",
    "mdp.project_product_simplex.calls",
    "ipgmax.prox_point.calls",
    "ipgmax.prox_point.iterations",
    "lp.rows",
    "lp.vars",
)


def atmg_functions() -> dict[tuple[str, str], object]:
    return {
        (name, attr): obj
        for name, module in sys.modules.items()
        if name == "atmg" or name.startswith("atmg.")
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj)
    }


def solve_pennies(traced: bool):
    workload = PenniesProx()
    state = workload.setup(0)
    if not traced:
        return workload.solve(state), None
    with Tracer() as tracer:
        out = workload.solve(state)
    return out, tracer


def test_traced_library_run_is_bitwise_identical():
    plain, _ = solve_pennies(traced=False)
    traced, tracer = solve_pennies(traced=True)
    assert tracer.spans
    for a, b in zip(plain["trace"].policies, traced["trace"].policies, strict=True):
        assert a.as_vector().tobytes() == b.as_vector().tobytes()
    assert plain["trace"].phi.tobytes() == traced["trace"].phi.tobytes()
    assert plain["trace"].t_star == traced["trace"].t_star
    assert plain["y_hat"].probs.tobytes() == traced["y_hat"].probs.tobytes()
    assert PenniesProx().check(traced) == []


def test_traced_cli_solve_writes_identical_files(tmp_path):
    state = PenniesProx().setup(0)
    game_path = tmp_path / "pennies.json"
    game.save_game(state.spec, game_path)

    def solve(out):
        return cli.main(["solve", "--game", str(game_path), "--eta", "0.05",
                         "--iters", str(PenniesProx.ITERS), "--out", str(tmp_path / out)])

    assert solve("plain") == 0
    with Tracer() as tracer:
        assert solve("traced") == 0
    assert any(span[0] == "cli.main" for span in tracer.spans)
    for name in ("trace.csv", "policies.json"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()


def test_original_functions_are_restored():
    before = atmg_functions()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            during = atmg_functions()
            1 / 0
    assert during.keys() == before.keys()
    # Callers' references are replaced, not only the defining module's.
    assert during[("atmg.ipgmax", "adversary_best_response")] is not atmg.mdp.adversary_best_response
    assert during[("atmg.extension", "find_feasible")] is not atmg.lp.find_feasible
    assert atmg_functions() == before


def test_counts_repeat_across_runs():
    counts = []
    for _ in range(2):
        out, tracer = solve_pennies(traced=True)
        metrics = layer_metrics(tracer.spans, 0)
        counts.append({key: metrics[key] for key in COUNTS})
        counts[-1]["t_star"] = [s[ATTRS]["t_star"] for s in tracer.spans if s[NAME] == "ipgmax.run"]
    assert counts[0] == counts[1]
    assert counts[0]["mdp.adversary_best_response.calls"] > 0
    assert counts[0]["ipgmax.prox_point.calls"] == PenniesProx.ITERS
    assert counts[0]["lp.rows"] > 0


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["d", 5.0, 7.0, 0, None],
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    assert np.isclose(sum(self_times(spans)), spans[0][END] - spans[0][START])


def test_benchmark_file_matches_reported_metrics():
    import json

    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **LAYER_UNITS, "trace.overhead_s": "s"
    }
