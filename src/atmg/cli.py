"""Command-line front end, and `solve`, the library pipeline that
`atmg solve` runs once, between loading the game and writing its files.

Three subcommands:

  solve      load or generate a game, run the gradient loop, extract the
             adversary policy, verify, and write trace.csv / policies.json
             / report.json into --out
  verify     recompute the exact Nash gap of a stored joint policy
  gridworld  generate a grid-world game file

Exit codes: 0 success; 1 invalid input (bad game file, bad flags or other
usage errors, schema mismatch); 2 adversary LP infeasible (solve writes the
report with diagnostics first); 3 verification failed (gap above --epsilon).

The ATMG_LOG environment variable (quiet|info|debug) sets log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .extension import LpAdvInfeasibleError, NashGapReport, adv_nash_policy, nash_gap
from .game import (
    GameSpec,
    _numbers,
    grid_world,
    load_game,
    normalize_rewards,
    save_game,
    validate,
)
from .ipgmax import SELECTION_MODES, IpgmaxConfig, RunTrace, run, schedule_proposition, schedule_theorem
from .mdp import AdversaryPolicy, TeamPolicy, check_policies

log = logging.getLogger(__name__)

_LOG_LEVELS = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_LP_INFEASIBLE = 2
EXIT_GAP_EXCEEDED = 3


def _configure_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("ATMG_LOG", ""), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _valid(spec: GameSpec) -> GameSpec:
    """spec, or a ValueError naming every problem validate finds in it."""
    problems = validate(spec)
    if problems:
        raise ValueError("invalid game: " + "; ".join(problems))
    return spec


def _load(path) -> GameSpec:
    """The valid game in the file at path; a ValueError says why there is none."""
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"game file not found: {path}")
    try:
        spec = load_game(path)
    except ValueError as exc:
        raise ValueError(f"cannot load {exc}") from None
    return _valid(spec)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _write_trace(path: Path, trace, n_players: int) -> None:
    """Write trace.csv one row at a time, so no copy of the trace is built."""
    with open(path, "w", newline="\n") as fh:
        fh.write(
            f"# team_value = -phi/{n_players} (per-player team payoff; phi is the "
            "adversary's best-response value)\n"
            "t,frobenius_norm_consecutive_joint_policies,team_value,phi\n"
        )
        for t, (norm, phi) in enumerate(zip(trace.frob_norms, trace.phi)):
            fh.write(f"{t},{_fmt(norm)},{_fmt(-phi / n_players)},{_fmt(phi)}\n")


def _policies_payload(x: TeamPolicy, y: AdversaryPolicy | None, lam) -> dict:
    return {
        "x": [block.tolist() for block in x.blocks],
        "y": None if y is None else y.probs.tolist(),
        "lambda": None if lam is None else lam.tolist(),
    }


def _gap_payload(report) -> dict:
    return {
        "team_gaps": [float(g) for g in report.team_gaps],
        "adversary_gap": float(report.adversary_gap),
        "epsilon_certified": float(report.epsilon_certified),
    }


@dataclass(frozen=True)
class Solution:
    """solve's result: y_hat, lam and gap are None, and error is set, if the LP is infeasible."""

    trace: RunTrace
    lp_epsilon: float
    y_hat: AdversaryPolicy | None = None
    lam: np.ndarray | None = None
    gap: NashGapReport | None = None
    error: LpAdvInfeasibleError | None = None


def solve(spec: GameSpec, config: IpgmaxConfig, x0: TeamPolicy | None = None) -> Solution:
    """Run the loop from x0, extract y_hat by the LP at 1.1x x_hat's prox gap, certify the pair."""
    if config.iterate_selection == "none":
        raise ValueError("solve needs an iterate selection, got 'none'")
    trace = run(spec, x0, config)
    lp_epsilon = 1.1 * trace.prox_gaps[trace.t_star]
    try:
        y_hat, lam = adv_nash_policy(spec, trace.x_hat, lp_epsilon)
    except LpAdvInfeasibleError as exc:
        return Solution(trace, lp_epsilon, error=exc)
    return Solution(trace, lp_epsilon, y_hat, lam, nash_gap(spec, trace.x_hat, y_hat))


def cmd_solve(args) -> int:
    """Solve the game, then write trace.csv, policies.json and report.json."""
    out = Path(args.out)
    # Writing --out would fail only after the solve; refuse such an --out now.
    base = next(p for p in (out, *out.parents) if p.exists())
    if not base.is_dir():
        return _fail(f"cannot write {out}: {base} is not a directory")
    if args.game is None and args.gridworld < 2:
        return _fail(f"--gridworld needs a side of at least 2, got {args.gridworld}")
    config = IpgmaxConfig(eta=args.eta, iters=args.iters, iterate_selection=args.select,
                          delta=args.delta, seed=args.seed)
    try:
        spec = _valid(grid_world(args.gridworld)) if args.game is None else _load(args.game)
        normalized, shift, scale = normalize_rewards(spec)
        # An epsilon that a formula refuses fails the solve before the loop.
        schedules = None if args.epsilon is None else {
            name: dict(zip(("eta", "iters"), schedule(normalized, args.epsilon)))
            for name, schedule in (("theorem", schedule_theorem),
                                   ("proposition", schedule_proposition))
        }
        started = time.perf_counter()
        solution = solve(normalized, config)
    except ValueError as exc:
        return _fail(str(exc))

    trace, gap = solution.trace, solution.gap
    measured = trace.prox_gaps[trace.t_star]
    paths = {"trace": out / "trace.csv", "policies": out / "policies.json",
             "report": out / "report.json"}
    report = {
        "game": {
            "states": spec.state_count,
            "team_sizes": list(spec.team_sizes),
            "adversary_actions": spec.adversary_actions,
            "discount": spec.discount,
        },
        "config": {
            "epsilon": args.epsilon,
            "eta": config.eta,
            "iters": config.iters,
            "select": args.select,
            "delta": args.delta,
            "seed": args.seed,
        },
        "paper_schedules": schedules,
        "normalization": {"shift": shift, "scale": scale},
        "t_star": trace.t_star,
        "prox_gap_measured": measured,
        "lp_epsilon": solution.lp_epsilon,
        "files": {key: str(path) for key, path in paths.items()},
    }
    if gap is None:
        report["lp_status"] = "infeasible"
        report["lp_diagnostics"] = {"max_violation": solution.error.max_violation}
    else:
        report["lp_status"] = "feasible"
        report["nash_gap"] = _gap_payload(gap)
        # Gaps are value differences, so the additive shift cancels and only
        # the scale maps them back to the input game's units.
        report["nash_gap_raw_units"] = {
            key: [v / scale for v in value] if isinstance(value, list) else value / scale
            for key, value in report["nash_gap"].items()
        }
    report["wall_clock_seconds"] = time.perf_counter() - started
    policies = _policies_payload(trace.x_hat, solution.y_hat, solution.lam)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_trace(paths["trace"], trace, normalized.n_players)
        paths["policies"].write_text(json.dumps(policies, indent=2) + "\n")
        paths["report"].write_text(json.dumps(report, indent=2) + "\n")
    except OSError as exc:
        return _fail(f"cannot write {out}: {exc}")
    if gap is None:
        print(f"error: {solution.error}", file=sys.stderr)
        return EXIT_LP_INFEASIBLE
    log.info(
        "t_star=%d prox_gap=%.3e certified=%.3e", trace.t_star, measured, gap.epsilon_certified
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _policies_from_json(payload: dict) -> tuple[TeamPolicy, AdversaryPolicy]:
    try:
        # An infeasible solve writes "y": null, which numpy would read as a 0-d NaN.
        for key, name in (("x", "team"), ("y", "adversary")):
            if payload.get(key) is None:
                raise ValueError(f"it holds no {name} policy ({key!r} is null or missing)")
        blocks = tuple(_numbers("x", block) for block in payload["x"])
        probs = _numbers("y", payload["y"])
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"policies file does not match schema: {exc}") from exc
    return TeamPolicy(blocks=blocks), AdversaryPolicy(probs=probs)


def cmd_verify(args) -> int:
    if not (np.isfinite(args.epsilon) and args.epsilon >= 0.0):
        return _fail(f"--epsilon must be finite and >= 0, got {args.epsilon}")
    try:
        spec = _load(args.game)
    except ValueError as exc:
        return _fail(str(exc))

    pol_path = Path(args.policies)
    if not pol_path.is_file():
        return _fail(f"policies file not found: {pol_path}")
    try:
        payload = json.loads(pol_path.read_text(encoding="utf-8"))
        x, y = _policies_from_json(payload)
        check_policies(spec, x, y)
    except ValueError as exc:
        return _fail(f"cannot load {pol_path}: {exc}")

    report = nash_gap(spec, x, y)
    print(json.dumps(_gap_payload(report), indent=2))
    if report.certifies(args.epsilon):
        return EXIT_OK
    return EXIT_GAP_EXCEEDED


# ---------------------------------------------------------------------------
# gridworld
# ---------------------------------------------------------------------------

def cmd_gridworld(args) -> int:
    if args.n < 2:
        return _fail(f"--n must be at least 2, got {args.n}")
    try:
        spec = _valid(grid_world(args.n, shift_delta=args.shift_delta, discount=args.gamma))
    except ValueError as exc:
        return _fail(str(exc))
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        save_game(spec, out)
    except OSError as exc:
        return _fail(f"cannot write {out}: {exc}")
    print(f"wrote {spec.state_count}-state game to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: argparse's own 2 means an infeasible LP here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="atmg",
        description="Equilibrium solver for adversarial team Markov games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the full solve pipeline")
    source = solve.add_mutually_exclusive_group(required=True)
    source.add_argument("--game", metavar="PATH", help="game file to load")
    source.add_argument(
        "--gridworld",
        type=int,
        metavar="N",
        help="generate an N x N grid world instead of loading a file",
    )
    solve.add_argument("--epsilon", type=float,
                       help="target accuracy; report.json gets the paper's (eta, T) for it")
    solve.add_argument("--eta", type=float, required=True, help="step size")
    solve.add_argument("--iters", type=int, required=True, help="iteration count")
    solve.add_argument(
        "--select",
        choices=[mode for mode in SELECTION_MODES if mode != "none"],
        default="prox",
        help="iterate selection strategy",
    )
    solve.add_argument(
        "--delta", type=float, default=0.5, help="failure probability for --select random"
    )
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--out", required=True, metavar="DIR")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="recompute the Nash gap of stored policies")
    verify.add_argument("--game", required=True, metavar="PATH")
    verify.add_argument("--policies", required=True, metavar="PATH")
    verify.add_argument("--epsilon", type=float, required=True)
    verify.set_defaults(func=cmd_verify)

    grid = sub.add_parser("gridworld", help="write a grid-world game file")
    grid.add_argument("--n", type=int, required=True, help="grid side length (>= 2)")
    grid.add_argument("--gamma", type=float, default=0.9)
    grid.add_argument("--shift-delta", type=float, default=0.05)
    grid.add_argument("--out", default="gridworld.json", metavar="PATH")
    grid.set_defaults(func=cmd_gridworld)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
