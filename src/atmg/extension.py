"""From a near-stationary team policy to an approximate Nash equilibrium.

The team side of the equilibrium is the near-stationary policy x_hat itself.
The adversary side comes out of a linear program over occupancy-style
multipliers lambda(s, b): its constraints relax the adversary's Bellman
conditions at x_hat by c2*eps and the team players' first-order conditions
by c1*eps, and any feasible point, row-normalized, is the equilibrium
policy y_hat, so the LP has a zero objective and phase one of the simplex
alone solves it.  The certifier below (nash_gap) then measures the result
exactly, one best-response solve per player, so no bound has to be taken
on faith.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameSpec
from .lp import FEASIBLE, LinearProgram, find_feasible
from .mdp import (
    AdversaryPolicy,
    TeamPolicy,
    _continuation,
    _gathered,
    _product,
    adversary_best_response,
    check_policies,
    smoothness_constants,
    team_player_best_response,
    value_rho,
)

GAP_FLOOR = -1e-9


class LpAdvInfeasibleError(RuntimeError):
    """The adversary LP had no feasible point at the given epsilon.

    Carries the largest constraint violation seen at the final phase-1
    point; a small value suggests epsilon was tight rather than the input
    policy being far from stationary.
    """

    def __init__(self, message: str, max_violation: float):
        super().__init__(message)
        self.max_violation = float(max_violation)


@dataclass(frozen=True)
class ExtensionConstants:
    c1: float
    c2: float


@dataclass(frozen=True)
class NashGapReport:
    """Exact unilateral-deviation gaps at a joint policy."""

    team_gaps: np.ndarray
    adversary_gap: float
    epsilon_certified: float

    def certifies(self, epsilon: float) -> bool:
        """Whether the gaps show an epsilon-Nash equilibrium, with 1e-9 of slack."""
        return self.epsilon_certified <= epsilon + 1e-9


def extension_constants(spec: GameSpec) -> ExtensionConstants:
    """c2 bundles the Bellman-perturbation terms, c1 = 4 ell + c2."""
    sm = smoothness_constants(spec)
    gamma = spec.discount
    S = spec.state_count
    root = float(np.sqrt(spec.sum_team_actions))
    one_minus = 1.0 - gamma
    c2 = (root + gamma * S * root / one_minus + gamma * S * sm.L + sm.L) / one_minus
    c1 = 4.0 * sm.ell + c2
    return ExtensionConstants(c1=c1, c2=c2)


# ---------------------------------------------------------------------------
# LP_adv
# ---------------------------------------------------------------------------

class StatePrograms(tuple):
    """LP_adv as its S per-state programs; n_rows and n_vars sum over them."""

    n_rows = property(lambda self: sum(lp.n_rows for lp in self))
    n_vars = property(lambda self: sum(lp.n_vars for lp in self))


def build_lp_adv(spec: GameSpec, x_hat: TeamPolicy, epsilon: float) -> StatePrograms:
    """Assemble the adversary LP at x_hat, one program per state.

    Every row of the LP touches the variables lambda(s, b) >= 0 of one
    state only, so it is returned as S programs, the s-th over the B
    variables lambda(s, .).  Each has R = sum_k A_k + 2B + 2 rows, in this
    order:

      (a) per player k, action a: the Q-value of k pinning a while the
          others play x_hat (x_hat's weights without k's factor, masked to
          the joint actions where k plays a), averaged under lambda(s, .),
          exceeds v_hat(s) by at least -c1*eps;
      (b), (c) per b: lambda(s, b) times the Bellman slack of (s, b) at
          x_hat stays within [-c2*eps, +c2*eps] (the slack is a scalar, so
          each row touches a single variable);
      (d) sum_b lambda(s, b) >= rho(s);
      (e) sum_b lambda(s, b) <= 1/(1-gamma).

    v_hat is x_hat's memoized best-response value.  Only feasibility
    matters downstream, so each objective is zero.  epsilon may be zero,
    which pins the perturbation rows to exact equalities of sense.
    """
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    check_policies(spec, x_hat)
    _, v_hat = adversary_best_response(spec, x_hat)

    S, B = spec.state_count, spec.adversary_actions
    A = spec.sum_team_actions
    cons = extension_constants(spec)

    # One gather of x_hat and one continuation table serve every row, with
    # one matmul per weight table (batching could reorder the sums).  A pure
    # block's factors are exactly 0 or 1, so each deviation's masked weights
    # equal x_hat's with k's block pinned, bit for bit.
    gathered = _gathered(spec, x_hat)
    q = _continuation(spec, v_hat)

    def bellman_slack(w):  # r(s, w, b) + gamma E[v_hat(t)] - v_hat(s)
        return (w[:, None, :] @ q)[:, 0, :] - v_hat[:, None]

    deviation = np.stack([
        bellman_slack(_product(spec, gathered, k) * (spec.action_digits[:, k] == a))
        for k, size in enumerate(spec.team_sizes) for a in range(size)
    ], axis=1)
    slack = bellman_slack(_product(spec, gathered))[:, :, None] * np.eye(B)
    lhs = np.concatenate([deviation, slack, slack, np.ones((S, 2, B))], axis=1)

    senses = (">=",) * A + ("<=",) * B + (">=",) * B + (">=", "<=")
    bounds = np.repeat([-cons.c1, cons.c2, -cons.c2], [A, B, B]) * epsilon
    ceiling = np.full(S, 1.0 / (1.0 - spec.discount))
    rhs = np.column_stack([np.tile(bounds, (S, 1)), spec.initial_dist, ceiling])

    return StatePrograms(
        LinearProgram(np.zeros(B), lhs[s], senses, rhs[s]) for s in range(S)
    )


def adv_nash_policy(
    spec: GameSpec, x_hat: TeamPolicy, epsilon: float
) -> tuple[AdversaryPolicy, np.ndarray]:
    """Extract the adversary's equilibrium policy at a near-stationary x_hat.

    Builds the LP at x_hat's best-response value v_hat, one program per
    state: any feasible point of each, stitched together, is feasible for
    the whole LP.  Row-normalizing it is safe because every feasible lambda
    has row sums at least rho(s) > 0.  Returns (y_hat, lam)
    with lam the (S, B) table of multipliers lambda(s, b), clipped at 0.
    """
    lam = np.empty((spec.state_count, spec.adversary_actions))
    for s, lp in enumerate(build_lp_adv(spec, x_hat, epsilon)):
        sol = find_feasible(lp)
        if sol.status != FEASIBLE:
            raise LpAdvInfeasibleError(
                f"adversary LP {sol.status} at state {s}, epsilon={epsilon:.6g} "
                f"(max violation {sol.max_violation:.3e})",
                sol.max_violation,
            )
        lam[s] = sol.x
    lam = np.maximum(lam, 0.0)
    y_hat = lam / lam.sum(axis=1, keepdims=True)
    return AdversaryPolicy(probs=y_hat), lam


# ---------------------------------------------------------------------------
# Exact verification
# ---------------------------------------------------------------------------

def nash_gap(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> NashGapReport:
    """Exact unilateral deviation gains at (x, y), no sampling anywhere.

    team_gaps[k] is how much player k could lower the adversary's value by
    deviating alone (a positive number; the team minimizes).  adversary_gap
    is how much the adversary could raise it.  Tiny negatives from the
    linear solves are floored at -1e-9.
    """
    check_policies(spec, x, y)
    base = value_rho(spec, x, y)

    _, v_best = adversary_best_response(spec, x)
    adv_gap = float(spec.initial_dist @ v_best) - base

    team = np.empty(spec.n_players)
    for k in range(spec.n_players):
        _, best_k = team_player_best_response(spec, k, x, y)
        team[k] = base - best_k

    team = np.maximum(team, GAP_FLOOR)
    adv_gap = max(adv_gap, GAP_FLOOR)
    certified = float(max(adv_gap, team.max() if team.size else GAP_FLOOR))
    return NashGapReport(
        team_gaps=team,
        adversary_gap=adv_gap,
        epsilon_certified=certified,
    )
