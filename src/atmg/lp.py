"""Dense linear programming: two-phase simplex with Bland's rule.

The solver is deliberately plain: one dense tableau and its basis, Bland's
anti-cycling pivot selection (first eligible column, lowest basis index on
ties), and a final re-solve from the starting tableau's basis columns to
scrub accumulated round-off.  The pipeline's programs are small (one per
state, 18 rows by 4 variables on grid_world(2)), where this is both fast
enough and easy to trust.

Programs are stated in maximization form with row senses "<=", ">=", "="
over nonnegative variables.  A bound on a variable is written as a row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8          # phase-1 objective above this -> infeasible
RESIDUAL_LIMIT = 1e-8    # carried points must satisfy constraints this tightly
_MAX_PIVOTS = 200_000
_SLACK_SIGN = {"<=": 1.0, ">=": -1.0, "=": 0.0}   # each sense's slack coefficient

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class NumericInstabilityError(RuntimeError):
    """The simplex produced a point whose residual cannot be trusted."""


@dataclass
class LinearProgram:
    """max objective . x  subject to  lhs x (sense) rhs, over nonnegative variables."""

    objective: np.ndarray
    lhs: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=np.float64)
        self.lhs = np.atleast_2d(np.asarray(self.lhs, dtype=np.float64))
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        self.senses = tuple(self.senses)
        m = self.objective.size
        if self.lhs.shape != (self.rhs.size, m):
            raise ValueError(
                f"lhs shape {self.lhs.shape} inconsistent with "
                f"{self.rhs.size} rows of width {m}"
            )
        if len(self.senses) != self.rhs.size:
            raise ValueError("one sense per row required")
        for sense in self.senses:
            if sense not in ("<=", ">=", "="):
                raise ValueError(f"unknown sense {sense!r}")
        if not (np.isfinite(self.objective).all() and np.isfinite(self.lhs).all()
                and np.isfinite(self.rhs).all()):
            raise ValueError("objective, lhs and rhs must be finite")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.rhs.size


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    max_violation: float | None = None   # diagnostics when infeasible


# ---------------------------------------------------------------------------
# Simplex core
# ---------------------------------------------------------------------------

def _tableau(lp: LinearProgram) -> tuple[np.ndarray, list[int], int]:
    """(T, basis, art): T = [lhs | slacks | artificials | rhs], rows negated so
    that rhs >= 0, its starting basis and its first artificial column.  A ">="
    row with a zero rhs is negated too, so that its slack can start the basis;
    each row whose slack did not come out as +e_i gets an artificial column.
    """
    sign = np.array([_SLACK_SIGN[sense] for sense in lp.senses])
    n, inequality = lp.n_vars, sign != 0.0
    negated = (lp.rhs < 0.0) | ((lp.rhs == 0.0) & (sign < 0.0))
    artificial = np.where(negated, -sign, sign) != 1.0
    art, slack = n + int(np.count_nonzero(inequality)), n + np.cumsum(inequality) - 1
    basis = np.where(artificial, art + np.cumsum(artificial) - 1, slack)
    T = np.zeros((lp.n_rows, art + int(np.count_nonzero(artificial)) + 1))
    T[:, :n], T[:, -1] = lp.lhs, np.where(negated, -lp.rhs, lp.rhs)
    T[inequality, slack[inequality]] = sign[inequality]
    T[negated, :art] *= -1.0  # before the artificial columns are set: their zeros stay +0.0
    T[artificial, basis[artificial]] = 1.0
    return T, basis.tolist(), art


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])


def _run_phase(T: np.ndarray, basis: list[int], cost: np.ndarray) -> str:
    """Maximize cost over the canonical tableau T = [columns | b] in place.

    Bland's rule throughout: the entering column is the lowest index with a
    negative reduced cost, the leaving row breaks ratio ties toward the
    lowest basis variable.  Returns "optimal" or "unbounded".
    """
    n = T.shape[1] - 1
    full_cost = np.concatenate([cost, [0.0]])
    zrow = np.asarray(cost[basis] @ T - full_cost)

    for _ in range(_MAX_PIVOTS):
        candidates = np.nonzero(zrow[:n] < -PIVOT_TOL)[0]
        if candidates.size == 0:
            return "optimal"
        col = int(candidates[0])
        positive = np.nonzero(T[:, col] > PIVOT_TOL)[0]
        if positive.size == 0:
            return "unbounded"
        ratios = T[positive, -1] / T[positive, col]
        best = ratios.min()
        tied = positive[ratios <= best + PIVOT_TOL * max(1.0, abs(best))]
        row = int(min(tied, key=lambda i: basis[i]))
        _pivot(T, row, col)
        zrow -= zrow[col] * T[row]
        basis[row] = col
    raise NumericInstabilityError("simplex exceeded the pivot budget")


def residuals(lp: LinearProgram, x: np.ndarray) -> float:
    """Worst violation of any row of `lp`, or of x >= 0, at the point x."""
    gap = lp.lhs @ x - lp.rhs
    senses = np.array(lp.senses, dtype=str)
    worst = np.where(senses == "<=", gap, np.where(senses == ">=", -gap, np.abs(gap)))
    return float(max(worst.max(initial=0.0), -np.min(x, initial=0.0)))


def _finish(lp: LinearProgram, T: np.ndarray, basis: list[int], start: np.ndarray,
            status: str) -> LpSolution:
    """The basic solution of T, re-solved from start's basis columns to scrub
    round-off, once its residual is checked."""
    z = np.zeros(T.shape[1] - 1)
    try:
        z[basis] = np.linalg.solve(start[:, basis], start[:, -1])
    except np.linalg.LinAlgError:
        z[basis] = T[:, -1]  # keep the tableau values; the residual check still guards them
    x = z[: lp.n_vars]
    residual = residuals(lp, x)
    if residual > RESIDUAL_LIMIT:
        raise NumericInstabilityError(f"solution residual {residual:g} exceeds {RESIDUAL_LIMIT:g}")
    return LpSolution(status=status, x=x, objective=float(lp.objective @ x))


def _phase_one(lp: LinearProgram):
    """Phase one on lp's _tableau: Infeasible, or (T, basis, start) over the rows
    kept, T without its artificial columns and start the starting tableau.
    Each basic artificial left is pivoted out on its row's first structural
    column; a row with none is redundant and is dropped.
    """
    T, basis, art = _tableau(lp)
    start = T.copy()
    cost = np.zeros(T.shape[1] - 1)
    cost[art:] = -1.0
    if _run_phase(T, basis, cost) != "optimal":  # cannot happen: bounded by 0
        raise NumericInstabilityError("phase one terminated abnormally")

    art_values = T[np.array(basis) >= art, -1]
    if art_values.sum() > FEAS_TOL:
        return LpSolution(status=INFEASIBLE, max_violation=float(art_values.max()))

    keep = []
    for i in range(len(basis)):
        if basis[i] >= art:
            structural = np.nonzero(np.abs(T[i, :art]) > PIVOT_TOL)[0]
            if structural.size == 0:
                continue
            basis[i] = int(structural[0])
            _pivot(T, i, basis[i])
        keep.append(i)
    T[:, art] = T[:, -1]  # the rhs takes the first artificial column's place
    return T[keep, : art + 1], [basis[i] for i in keep], start[keep]


def find_feasible(lp: LinearProgram) -> LpSolution:
    """Phase one only: any vertex of the feasible region, or Infeasible."""
    phase = _phase_one(lp)
    return phase if isinstance(phase, LpSolution) else _finish(lp, *phase, FEASIBLE)


def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex; returns Optimal with a vertex, or Infeasible/Unbounded."""
    phase = _phase_one(lp)
    if isinstance(phase, LpSolution):
        return phase
    T, basis, start = phase
    cost = np.concatenate([lp.objective, np.zeros(T.shape[1] - 1 - lp.n_vars)])
    if _run_phase(T, basis, cost) == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)
    return _finish(lp, T, basis, start, OPTIMAL)
