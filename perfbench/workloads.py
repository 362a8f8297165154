"""The benchmark's three workloads, one per cost regime of the pipeline.

Each workload has ``setup(seed)`` (build the game and the inputs the seed
selects), ``solve(state)`` (the timed part) and ``check(output)`` (a list of
failed correctness checks, empty when the output is correct).  Calls go
through module attributes (``ipgmax.run``), so a traced run sees them.

- pennies-prox: the library pipeline on 1-state matching pennies.  Every
  array is 1x2, so per-call overhead dominates and the prox scan does
  nearly all the work; the loop, value iteration and the LP are negligible.
- grid2-solve: the README ``atmg solve --gridworld 2`` command in-process.
  Value-iteration best responses on 65 states dominate the loop, the
  iterate is bitwise fixed for the last ~53% of the 2000 iterations, and
  the adversary LP (1170 x 260) runs at epsilon 0.  The only workload that
  goes through the cli layer.
- grid3-certify: a few loop iterations and the exact Nash-gap certificate
  on grid_world(3).  Its 260 MB transition tensor is larger than the L3
  cache, and team-player best responses carry weight.  No prox scan, no LP.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from atmg import cli, extension, game, ipgmax, mdp

# Criterion 08's worst-case approximation coefficient for grid_world(2).
GRID2_BOUND_COEFFICIENT = 88733351196.9


@dataclass
class State:
    spec: game.GameSpec | None
    x0: mdp.TeamPolicy | None
    seed: int


class PenniesProx:
    name = "pennies-prox"
    seed_dependent = True

    # The scan evaluates min(ITERS, 101) candidates.  30 keeps one solve
    # near 3 s, so a run holds about ten.
    ITERS = 30

    def setup(self, seed: int) -> State:
        spec = game.GameSpec(
            state_count=1,
            team_sizes=(2,),
            adversary_actions=2,
            reward=np.array([[[0.9, 0.1], [0.1, 0.9]]]),
            transition=np.ones((1, 2, 2, 1)),
            discount=0.0,
            initial_dist=np.array([1.0]),
        )
        p = pennies_start(seed)
        return State(spec, mdp.TeamPolicy(blocks=(np.array([[p, 1.0 - p]]),)), seed)

    def solve(self, state: State) -> dict:
        trace = ipgmax.run(state.spec, state.x0, ipgmax.IpgmaxConfig(eta=0.05, iters=self.ITERS))
        measured = trace.prox_gaps[trace.t_star]
        out = {"trace": trace, "prox_gap": measured, "lp_feasible": True, "y_hat": None}
        try:
            y_hat, _ = extension.adv_nash_policy(state.spec, trace.x_hat, 1.1 * measured)
        except extension.LpAdvInfeasibleError:
            out["lp_feasible"] = False
            return out
        out["y_hat"] = y_hat
        out["report"] = extension.nash_gap(state.spec, trace.x_hat, y_hat)
        return out

    def check(self, out: dict) -> list[str]:
        # Criterion 07's thresholds.
        failed = []
        if not out["prox_gap"] <= 0.05:
            failed.append(f"prox gap {out['prox_gap']!r} > 0.05")
        if not out["lp_feasible"]:
            failed.append("adversary LP infeasible")
        elif not out["report"].epsilon_certified <= 0.1:
            failed.append(f"certified gap {out['report'].epsilon_certified!r} > 0.1")
        return failed


def pennies_start(seed: int) -> float:
    """First-action probability of the start policy; seed 0 gives 0.9.

    Other seeds draw it uniformly from [0.05, 0.95].  Only starts a whole
    number of 0.02 loop steps from the equilibrium 0.5 reach a zero prox
    gap within the run; from the others the iterate cycles around 0.5 and
    the certificate at 1.1x the measured gap can exceed criterion 07's 0.1,
    which check() reports as a failure.
    """
    if seed == 0:
        return 0.9
    return float(np.random.default_rng(seed).uniform(0.05, 0.95))


class Grid2Solve:
    name = "grid2-solve"
    # --seed only drives --select random; this workload uses --select prox.
    seed_dependent = False

    ITERS = 2000

    def setup(self, seed: int) -> State:
        return State(None, None, seed)

    def solve(self, state: State) -> dict:
        out_dir = Path(tempfile.mkdtemp(prefix="grid2-"))
        try:
            code = cli.main([
                "solve", "--gridworld", "2", "--eta", "0.1",
                "--iters", str(self.ITERS), "--seed", str(state.seed),
                "--out", str(out_dir),
            ])
            out = {"exit_code": code, "report": None, "trace_rows": None}
            if (out_dir / "report.json").is_file():
                out["report"] = json.loads((out_dir / "report.json").read_text())
            if (out_dir / "trace.csv").is_file():
                lines = (out_dir / "trace.csv").read_text().splitlines()
                out["trace_rows"] = sum(not line.startswith(("#", "t,")) for line in lines)
            return out
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def check(self, out: dict) -> list[str]:
        # Criterion 08's bound on the certificate at the measured prox gap.
        failed = []
        if out["exit_code"] != 0:
            failed.append(f"exit code {out['exit_code']}")
        report = out["report"] or {}
        if report.get("lp_status") != "feasible":
            failed.append(f"lp_status {report.get('lp_status')!r}")
        else:
            bound = GRID2_BOUND_COEFFICIENT * report["prox_gap_measured"] + 1e-8
            certified = report["nash_gap"]["epsilon_certified"]
            if not certified <= bound:
                failed.append(f"certified gap {certified!r} > {bound!r}")
        if out["trace_rows"] != self.ITERS + 1:
            failed.append(f"trace.csv has {out['trace_rows']} data rows, not {self.ITERS + 1}")
        return failed


class Grid3Certify:
    name = "grid3-certify"
    seed_dependent = True

    ITERS = 3

    def setup(self, seed: int) -> State:
        spec = game.grid_world(3)
        x0 = None
        if seed != 0:
            rng = np.random.default_rng(seed)
            x0 = mdp.TeamPolicy(blocks=tuple(
                rng.dirichlet(np.ones(a), size=spec.state_count) for a in spec.team_sizes
            ))
        return State(spec, x0, seed)

    def solve(self, state: State) -> dict:
        config = ipgmax.IpgmaxConfig(eta=0.1, iters=self.ITERS, iterate_selection="none")
        trace = ipgmax.run(state.spec, state.x0, config)
        x = trace.policies[-1]
        y, _ = mdp.adversary_best_response(state.spec, x)
        return {"trace": trace, "report": extension.nash_gap(state.spec, x, y)}

    def check(self, out: dict) -> list[str]:
        report = out["report"]
        gaps = [*report.team_gaps, report.adversary_gap, report.epsilon_certified]
        failed = []
        if not all(math.isfinite(g) for g in gaps):
            failed.append(f"non-finite gap in {gaps!r}")
        if not abs(report.adversary_gap) <= 1e-9:
            failed.append(f"adversary gap {report.adversary_gap!r} against its best response")
        if not all(g >= -1e-9 for g in report.team_gaps):
            failed.append(f"team gaps {list(report.team_gaps)!r} below -1e-9")
        return failed


WORKLOADS = {w.name: w for w in (PenniesProx, Grid2Solve, Grid3Certify)}
