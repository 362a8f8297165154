"""Dense linear programming: two-phase simplex with Bland's rule.

The solver is deliberately plain: a dense tableau, Bland's anti-cycling
pivot selection (first eligible column, lowest basis index on ties), and a
final re-solve of the basic system to scrub accumulated round-off.  Problem
sizes in this project stay in the low thousands of rows, where this is both
fast enough and easy to trust.

Programs are stated in maximization form with row senses "<=", ">=", "=",
default variable lower bounds of 0 (possibly -inf for free variables), and
optional upper bounds.
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
    """max objective . x  subject to  lhs x (sense) rhs, lower <= x <= upper."""

    objective: np.ndarray
    lhs: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

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
        if self.lower is None:
            self.lower = np.zeros(m)
        else:
            self.lower = np.asarray(self.lower, dtype=np.float64)
        if self.upper is not None:
            self.upper = np.asarray(self.upper, dtype=np.float64)
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
    max_residual: float | None = None
    max_violation: float | None = None   # diagnostics when infeasible


# ---------------------------------------------------------------------------
# Standard-form transformation
# ---------------------------------------------------------------------------

@dataclass
class _StandardForm:
    """x_user[j] = offsets[j] + sum of sign * z[col] over j's standard columns."""

    matrix: np.ndarray           # (k, n) rows already sign-fixed so b >= 0
    b: np.ndarray                # (k,) nonnegative
    cost: np.ndarray             # (n,) phase-2 objective over standard columns
    col_var: list[tuple[int, int]]      # structural col -> (orig var, sign)
    offsets: np.ndarray
    n_structural: int
    basis: list[int] = field(default_factory=list)
    art_start: int = -1


def _standardize(lp: LinearProgram) -> _StandardForm:
    m = lp.n_vars
    col_var: list[tuple[int, int]] = []
    offsets = np.zeros(m)
    for j in range(m):
        lb = lp.lower[j]
        if np.isneginf(lb):
            col_var.append((j, +1))
            col_var.append((j, -1))
        else:
            offsets[j] = lb
            col_var.append((j, +1))

    columns = [sign * lp.lhs[:, j] for j, sign in col_var]
    A = np.column_stack(columns) if columns else np.zeros((lp.n_rows, 0))
    b = lp.rhs - lp.lhs @ offsets
    senses = list(lp.senses)

    # Finite upper bounds become extra "<=" rows over the same columns.
    if lp.upper is not None:
        extra_rows = []
        extra_b = []
        for j in range(m):
            ub = lp.upper[j]
            if np.isposinf(ub):
                continue
            row = np.zeros(len(col_var))
            for idx, (var, sign) in enumerate(col_var):
                if var == j:
                    row[idx] = sign
            extra_rows.append(row)
            extra_b.append(ub - offsets[j])
            senses.append("<=")
        if extra_rows:
            A = np.vstack([A, np.array(extra_rows)])
            b = np.concatenate([b, np.array(extra_b)])

    k = b.size
    n_structural = A.shape[1]
    cost = np.zeros(n_structural)
    for idx, (var, sign) in enumerate(col_var):
        cost[idx] = sign * lp.objective[var]

    # Slack / surplus columns, one per inequality row.
    inequality_rows = [i for i, sense in enumerate(senses) if sense != "="]
    slack_cols = np.zeros((k, len(inequality_rows)))
    slack_of_row = {}
    for pos, i in enumerate(inequality_rows):
        slack_cols[i, pos] = 1.0 if senses[i] == "<=" else -1.0
        slack_of_row[i] = n_structural + pos

    M = np.hstack([A, slack_cols])
    cost = np.concatenate([cost, np.zeros(slack_cols.shape[1])])

    # Fix signs so the right-hand side is nonnegative.
    negated = b < 0.0
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
        art_block = np.zeros((k, len(art_rows)))
        for pos, i in enumerate(art_rows):
            art_block[i, pos] = 1.0
        M = np.hstack([M, art_block])

    sf = _StandardForm(
        matrix=M,
        b=b,
        cost=cost,
        col_var=col_var,
        offsets=offsets,
        n_structural=n_structural,
        basis=basis,
        art_start=art_start,
    )
    return sf


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

    x = sf.offsets.copy()
    for idx, (var, sign) in enumerate(sf.col_var):
        x[var] += sign * z[idx]
    return x


def residuals(lp: LinearProgram, x: np.ndarray) -> float:
    """Worst violation of any row or bound of `lp` at the point x."""
    lhs_vals = lp.lhs @ x
    worst = 0.0
    for i, sense in enumerate(lp.senses):
        gap = lhs_vals[i] - lp.rhs[i]
        if sense == "<=":
            worst = max(worst, gap)
        elif sense == ">=":
            worst = max(worst, -gap)
        else:
            worst = max(worst, abs(gap))
    finite_lb = np.isfinite(lp.lower)
    if finite_lb.any():
        worst = max(worst, float((lp.lower[finite_lb] - x[finite_lb]).max(initial=0.0)))
    if lp.upper is not None:
        finite_ub = np.isfinite(lp.upper)
        if finite_ub.any():
            worst = max(worst, float((x[finite_ub] - lp.upper[finite_ub]).max(initial=0.0)))
    return float(worst)


def _finish(lp: LinearProgram, sf: _StandardForm, T: np.ndarray, status: str) -> LpSolution:
    x = _extract(lp, sf, T)
    residual = residuals(lp, x)
    if residual > RESIDUAL_LIMIT:
        raise NumericInstabilityError(
            f"solution residual {residual:g} exceeds {RESIDUAL_LIMIT:g}"
        )
    return LpSolution(
        status=status,
        x=x,
        objective=float(lp.objective @ x),
        max_residual=residual,
    )


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

    art_values = np.array(
        [T[i, -1] for i in range(T.shape[0]) if sf.basis[i] >= sf.art_start]
    )
    total_violation = float(art_values.sum()) if art_values.size else 0.0
    if total_violation > FEAS_TOL:
        worst = float(art_values.max()) if art_values.size else 0.0
        return sf, T, LpSolution(status=INFEASIBLE, max_violation=worst)

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
