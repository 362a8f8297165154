"""Test oracle: the adversary's best-response MDP solved by linear programming.

It goes through the simplex in atmg.lp rather than the policy-iteration
solver in atmg.mdp, so the two can be checked against each other.
"""

from __future__ import annotations

import numpy as np

from atmg import GameSpec, TeamPolicy
from atmg.lp import OPTIMAL, LinearProgram, solve
from atmg.mdp import marginal_reward_table, marginal_transition_table


def adversary_mdp_primal_dual(spec: GameSpec, x: TeamPolicy):
    """Solve the adversary's best-response MDP by linear programming.

    Primal (over free v):   min rho' v   s.t.  v(s) >= r(s,x,b) + gamma P(.|s,x,b) v
    Dual (over lambda >= 0): max sum lambda(s,b) r(s,x,b)
        s.t. per state s_bar:  sum_b lambda(s_bar, b)
             - gamma sum_{s,b} lambda(s,b) P(s_bar | s, x, b) = rho(s_bar)

    The dual variables form a discounted occupancy over (s, b): row sums lie
    in [rho(s), 1/(1-gamma)], and normalizing rows yields an adversary
    policy y with lambda(s,b) = d(s) y(s,b).

    Returns (v, lam) with v of shape (S,) and lam of shape (S, B).
    """
    S, B = spec.state_count, spec.adversary_actions
    r_x = marginal_reward_table(spec, x)
    P_x = marginal_transition_table(spec, x)
    gamma = spec.discount

    # Primal: maximize -rho' v with v free.
    rows = np.zeros((S * B, S))
    rhs = np.zeros(S * B)
    for s in range(S):
        for b in range(B):
            i = s * B + b
            rows[i, s] = 1.0
            rows[i] -= gamma * P_x[s, b]
            rhs[i] = r_x[s, b]
    primal = LinearProgram(
        objective=-spec.initial_dist,
        lhs=rows,
        senses=(">=",) * (S * B),
        rhs=rhs,
        lower=np.full(S, -np.inf),
    )
    primal_sol = solve(primal)
    if primal_sol.status != OPTIMAL:
        raise RuntimeError(f"primal MDP LP ended {primal_sol.status}")

    # Dual: flow balance per state.
    flow = np.zeros((S, S * B))
    for s_bar in range(S):
        for s in range(S):
            for b in range(B):
                col = s * B + b
                coeff = -gamma * P_x[s, b, s_bar]
                if s == s_bar:
                    coeff += 1.0
                flow[s_bar, col] = coeff
    dual = LinearProgram(
        objective=r_x.ravel(),
        lhs=flow,
        senses=("=",) * S,
        rhs=spec.initial_dist,
    )
    dual_sol = solve(dual)
    if dual_sol.status != OPTIMAL:
        raise RuntimeError(f"dual MDP LP ended {dual_sol.status}")

    return primal_sol.x, dual_sol.x.reshape(S, B)
