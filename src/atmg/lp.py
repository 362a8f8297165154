"""Dense linear programming: two-phase simplex with Bland's rule.

The solver is deliberately plain: a dense tableau, Bland's anti-cycling
pivot selection (first eligible column, lowest basis index on ties), and a
final re-solve of the basic system to scrub accumulated round-off.  The
pipeline's programs are small (one per state, 18 rows by 4 variables on
grid_world(2)), where this is both fast enough and easy to trust.

Programs are stated in maximization form with row senses "<=", ">=", "="
over nonnegative variables.  A bound on a variable is written as a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8          # phase-1 objective above this -> infeasible
RESIDUAL_LIMIT = 1e-8    # carried points must satisfy constraints this tightly
_MAX_PIVOTS = 200_000

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
# Standard-form transformation
# ---------------------------------------------------------------------------

@dataclass
class _StandardForm:
    """[lhs | slacks | artificials]; the first n_vars columns are x itself."""

    matrix: np.ndarray           # (k, n) rows already sign-fixed so b >= 0
    b: np.ndarray                # (k,) nonnegative
    cost: np.ndarray             # (n,) phase-2 objective over standard columns
    basis: list[int] = field(default_factory=list)
    art_start: int = -1


def _standardize(lp: LinearProgram) -> _StandardForm:
    b = lp.rhs
    senses = lp.senses
    k, n_vars = lp.n_rows, lp.n_vars

    # Slack / surplus columns, one per inequality row.
    inequality_rows = [i for i, sense in enumerate(senses) if sense != "="]
    slack_cols = np.zeros((k, len(inequality_rows)))
    slack_of_row = {}
    for pos, i in enumerate(inequality_rows):
        slack_cols[i, pos] = 1.0 if senses[i] == "<=" else -1.0
        slack_of_row[i] = n_vars + pos

    M = np.hstack([lp.lhs, slack_cols])
    cost = np.concatenate([lp.objective, np.zeros(slack_cols.shape[1])])

    # Fix signs so the right-hand side is nonnegative.  A ">=" row with a
    # zero right-hand side is negated as well, so that its slack can start
    # the basis in place of an artificial column.
    at_least = np.array([sense == ">=" for sense in senses], dtype=bool)
    negated = (b < 0.0) | ((b == 0.0) & at_least)
    M[negated] *= -1.0
    b = np.where(negated, -b, b)

    # Initial basis: reuse a slack column wherever it came out as +e_i,
    # otherwise append one artificial column for the row.
    basis: list[int] = []
    art_rows = []
    art_start = M.shape[1]
    for i in range(k):
        slack = slack_of_row.get(i)
        if slack is not None and M[i, slack] > 0.5:
            basis.append(slack)
        else:
            art_rows.append(i)
            basis.append(art_start + len(art_rows) - 1)
    if art_rows:
        M = np.hstack([M, np.eye(k)[:, art_rows]])

    return _StandardForm(matrix=M, b=b, cost=cost, basis=basis, art_start=art_start)


# ---------------------------------------------------------------------------
# Simplex core
# ---------------------------------------------------------------------------

def _pivot(T: np.ndarray, zrow: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    zrow -= zrow[col] * T[row]


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
        _pivot(T, zrow, row, col)
        basis[row] = col
    raise NumericInstabilityError("simplex exceeded the pivot budget")


def _drive_out_artificials(T: np.ndarray, sf: _StandardForm) -> np.ndarray:
    """Pivot artificial variables out of the basis; drop redundant rows.

    Also trims the stored standard-form system to the surviving rows and the
    non-artificial columns, so the refinement solve stays consistent.
    """
    zrow = np.zeros(T.shape[1])  # placeholder; pivots keep canonical form
    drop: list[int] = []
    for i in range(T.shape[0]):
        if sf.basis[i] < sf.art_start:
            continue
        structural = np.nonzero(np.abs(T[i, : sf.art_start]) > PIVOT_TOL)[0]
        if structural.size == 0:
            drop.append(i)
            continue
        col = int(structural[0])
        _pivot(T, zrow, i, col)
        sf.basis[i] = col

    if drop:
        keep = [i for i in range(T.shape[0]) if i not in drop]
        T = T[keep]
        sf.basis = [sf.basis[i] for i in keep]
        sf.matrix = sf.matrix[keep]
        sf.b = sf.b[keep]
    sf.matrix = sf.matrix[:, : sf.art_start]
    return np.hstack([T[:, : sf.art_start], T[:, -1:]])


def _extract(lp: LinearProgram, sf: _StandardForm, T: np.ndarray) -> np.ndarray:
    """Read the basic solution, then refine it with a direct basis solve."""
    z = np.zeros(sf.art_start)
    z[sf.basis] = T[:, -1]
    try:
        basic = np.linalg.solve(sf.matrix[:, sf.basis], sf.b)
        z[:] = 0.0
        z[sf.basis] = basic
    except np.linalg.LinAlgError:
        pass  # keep the tableau values; the residual check still guards them
    return z[: lp.n_vars]


def residuals(lp: LinearProgram, x: np.ndarray) -> float:
    """Worst violation of any row of `lp`, or of x >= 0, at the point x."""
    gap = lp.lhs @ x - lp.rhs
    senses = np.array(lp.senses, dtype=str)
    worst = np.where(senses == "<=", gap, np.where(senses == ">=", -gap, np.abs(gap)))
    return float(max(worst.max(initial=0.0), -np.min(x, initial=0.0)))


def _finish(lp: LinearProgram, sf: _StandardForm, T: np.ndarray, status: str) -> LpSolution:
    x = _extract(lp, sf, T)
    residual = residuals(lp, x)
    if residual > RESIDUAL_LIMIT:
        raise NumericInstabilityError(
            f"solution residual {residual:g} exceeds {RESIDUAL_LIMIT:g}"
        )
    return LpSolution(status=status, x=x, objective=float(lp.objective @ x))


def _phase_one(lp: LinearProgram):
    """Shared phase-1 driver.  Returns (sf, T, infeasible_solution_or_None)."""
    sf = _standardize(lp)
    T = np.hstack([sf.matrix.copy(), sf.b[:, None].copy()])
    n_total = sf.matrix.shape[1]
    phase1_cost = np.zeros(n_total)
    phase1_cost[sf.art_start :] = -1.0

    status = _run_phase(T, sf.basis, phase1_cost)
    if status != "optimal":  # cannot happen: phase-1 objective is bounded by 0
        raise NumericInstabilityError("phase one terminated abnormally")

    art_values = T[np.array(sf.basis) >= sf.art_start, -1]
    if art_values.sum() > FEAS_TOL:
        return sf, T, LpSolution(status=INFEASIBLE, max_violation=float(art_values.max()))

    T = _drive_out_artificials(T, sf)
    return sf, T, None


def find_feasible(lp: LinearProgram) -> LpSolution:
    """Phase one only: any vertex of the feasible region, or Infeasible."""
    sf, T, infeasible = _phase_one(lp)
    if infeasible is not None:
        return infeasible
    return _finish(lp, sf, T, FEASIBLE)


def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex; returns Optimal with a vertex, or Infeasible/Unbounded."""
    sf, T, infeasible = _phase_one(lp)
    if infeasible is not None:
        return infeasible
    status = _run_phase(T, sf.basis, sf.cost)
    if status == "unbounded":
        return LpSolution(status=UNBOUNDED)
    return _finish(lp, sf, T, OPTIMAL)
