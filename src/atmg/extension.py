"""From a near-stationary team policy to an approximate Nash equilibrium.

The team side of the equilibrium is the near-stationary policy x_hat itself.
The adversary side comes out of a linear program over occupancy-style
multipliers lambda(s, b): its constraints relax the adversary's Bellman
conditions at x_hat by c2*eps and the team players' first-order conditions
by c1*eps, and any feasible point, row-normalized, is the equilibrium
policy y_hat.  The certifier below (nash_gap) then measures the result
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
    adversary_best_response,
    check_policies,
    marginal_reward_table,
    marginal_transition_table,
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
class LagrangeMultipliers:
    """Feasible lambda(s, b) table; the spec symbol is a Python keyword."""

    table: np.ndarray

    @property
    def row_sums(self) -> np.ndarray:
        return self.table.sum(axis=1)


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


def _bellman_slack(spec: GameSpec, x: TeamPolicy, v: np.ndarray) -> np.ndarray:
    """(S, B) table r(s, x, b) + gamma sum_t P(t | s, x, b) v(t) - v(s)."""
    P_x = marginal_transition_table(spec, x)
    return marginal_reward_table(spec, x) + spec.discount * P_x @ v - v[:, None]


# ---------------------------------------------------------------------------
# LP_adv
# ---------------------------------------------------------------------------

def build_lp_adv(
    spec: GameSpec,
    x_hat: TeamPolicy,
    v_hat: np.ndarray,
    epsilon: float,
) -> LinearProgram:
    """Assemble the adversary LP at (x_hat, v_hat).

    Variables are lambda(s, b) >= 0, flattened state-major.  Rows, in
    order:

      (a) per player k, state s, action a: the deviation Q-value of
          playing a against x_hat's other blocks, averaged under lambda(s, .),
          exceeds v_hat(s) by at least -c1*eps;
      (b), (c) per (s, b): lambda(s, b) times the Bellman slack of (s, b)
          at x_hat stays within [-c2*eps, +c2*eps] (the slack is a scalar,
          so each row touches a single variable);
      (d) per s: sum_b lambda(s, b) >= rho(s);
      (e) per s: sum_b lambda(s, b) <= 1/(1-gamma).

    The objective maximizes sum lambda(s, b) r(s, x_hat, b); feasibility is
    what matters downstream, but the objective is kept for callers that
    want a distinguished vertex.  epsilon may be zero, which pins the
    perturbation rows to exact equalities of sense.
    """
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    v_hat = np.asarray(v_hat, dtype=np.float64)
    if v_hat.shape != (spec.state_count,):
        raise ValueError(
            f"v_hat has shape {v_hat.shape}, expected ({spec.state_count},)"
        )
    check_policies(spec, x_hat)

    S, B = spec.state_count, spec.adversary_actions
    gamma = spec.discount
    n_vars = S * B
    cons = extension_constants(spec)

    rows: list[np.ndarray] = []
    senses: list[str] = []
    rhs: list[float] = []

    # (a) team first-order rows, player-major.  coef[a][s, b] is the
    # Bellman slack at (s, b) of player k deviating to the pure action a:
    # its deviation value minus v_hat(s).
    for k, size in enumerate(spec.team_sizes):
        coef = [
            _bellman_slack(spec, x_hat.with_block(k, np.tile(pure, (S, 1))), v_hat)
            for pure in np.eye(size)
        ]
        for s in range(S):
            for a in range(size):
                row = np.zeros(n_vars)
                row[s * B : (s + 1) * B] = coef[a][s]
                rows.append(row)
                senses.append(">=")
                rhs.append(-cons.c1 * epsilon)

    # (b), (c) adversary Bellman slack rows.  slack[s, b] is a constant,
    # so the row has a single nonzero coefficient.
    slack = _bellman_slack(spec, x_hat, v_hat)
    for sense, bound in (("<=", cons.c2), (">=", -cons.c2)):
        for s in range(S):
            for b in range(B):
                row = np.zeros(n_vars)
                row[s * B + b] = slack[s, b]
                rows.append(row)
                senses.append(sense)
                rhs.append(bound * epsilon)

    # (d), (e) row-sum corridor.
    for s in range(S):
        row = np.zeros(n_vars)
        row[s * B : (s + 1) * B] = 1.0
        rows.append(row)
        senses.append(">=")
        rhs.append(float(spec.initial_dist[s]))
    for s in range(S):
        row = np.zeros(n_vars)
        row[s * B : (s + 1) * B] = 1.0
        rows.append(row)
        senses.append("<=")
        rhs.append(1.0 / (1.0 - gamma))

    return LinearProgram(
        objective=marginal_reward_table(spec, x_hat).ravel(),
        lhs=np.array(rows),
        senses=tuple(senses),
        rhs=np.array(rhs),
    )


def adv_nash_policy(
    spec: GameSpec, x_hat: TeamPolicy, epsilon: float
) -> tuple[AdversaryPolicy, LagrangeMultipliers]:
    """Extract the adversary's equilibrium policy at a near-stationary x_hat.

    Solves the adversary's best-response MDP for v_hat, builds the LP, takes
    any feasible point and row-normalizes it.  The normalization is safe
    because every feasible lambda has row sums at least rho(s) > 0.
    """
    _, v_hat = adversary_best_response(spec, x_hat)
    sol = find_feasible(build_lp_adv(spec, x_hat, v_hat, epsilon))
    if sol.status != FEASIBLE:
        raise LpAdvInfeasibleError(
            f"adversary LP {sol.status} at epsilon={epsilon:.6g} "
            f"(max violation {sol.max_violation:.3e})",
            sol.max_violation,
        )
    lam = sol.x.reshape(spec.state_count, spec.adversary_actions)
    lam = np.maximum(lam, 0.0)
    y_hat = lam / lam.sum(axis=1, keepdims=True)
    return AdversaryPolicy(probs=y_hat), LagrangeMultipliers(table=lam)


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
