"""Test oracles: library quantities rebuilt from public atmg functions.

The adversary's best-response MDP is solved by linear programming through
the simplex in atmg.lp rather than the policy-iteration solver in
atmg.mdp, so the two can be checked against each other.  The adversary's
policy gradient and the residuals of the regularized program are read off
the public marginal tables; the library itself uses neither.  The adversary
LP is written out row by row, the reference for its vectorized assembly,
and its per-state programs are put back on one block diagonal.
The transition contractions are einsums over the dense tensor, the
reference for the library's successor-list forms, and the discounted
visitation measure is one dense solve.
"""

from __future__ import annotations

import numpy as np

from atmg.extension import extension_constants
from atmg.game import GameSpec
from atmg.lp import OPTIMAL, LinearProgram, solve
from atmg.mdp import (
    AdversaryPolicy,
    TeamPolicy,
    induced_transition,
    joint_action_distribution,
    marginal_reward_table,
    marginal_transition_table,
    smoothness_constants,
    value_vector,
)
from conftest import dense_transition


def dense_marginal_transition(spec: GameSpec, x: TeamPolicy) -> np.ndarray:
    """(S, B, S) table P(s' | s, x, b) contracted from the dense tensor."""
    w = joint_action_distribution(spec, x)
    return np.einsum("sj,sjbt->sbt", w, dense_transition(spec.transition))


def dense_player_transition(
    spec: GameSpec, k: int, x: TeamPolicy, y: AdversaryPolicy
) -> np.ndarray:
    """(S, A_k, S) table P(s' | s, a_k; x_{-k}, y) of player k's deviation MDP."""
    S, A = spec.state_count, spec.team_sizes[k]
    others = joint_action_distribution(spec, x.with_block(k, np.ones((S, A))))
    pinned = np.eye(A)[spec.action_digits[:, k]]
    dense = dense_transition(spec.transition)
    return np.einsum("sj,ja,sb,sjbt->sat", others, pinned, y.probs, dense)


def dense_successor_mean(spec: GameSpec, v: np.ndarray) -> np.ndarray:
    """(S, J, B) table sum_t P(t | s, j, b) v(t) from the dense tensor."""
    return np.einsum("sjbt,t->sjb", dense_transition(spec.transition), v)


def visitation(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> np.ndarray:
    """Unnormalized discounted state occupancy: d' = rho' (I - gamma P)^{-1}.

    Sums to 1/(1 - gamma); satisfies rho(s) <= d(s) <= 1/(1 - gamma).
    """
    M = np.eye(spec.state_count) - spec.discount * induced_transition(spec, x, y)
    return np.linalg.solve(M.T, spec.initial_dist)


def q_table(spec: GameSpec, x: TeamPolicy, v: np.ndarray) -> np.ndarray:
    """(S, B) table r(s, x, b) + gamma sum_t P(t | s, x, b) v(t)."""
    return marginal_reward_table(spec, x) + spec.discount * (marginal_transition_table(spec, x) @ v)


def lp_adv_reference(
    spec: GameSpec, x: TeamPolicy, v_hat: np.ndarray, epsilon: float
) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """(lhs, senses, rhs) of build_lp_adv, one row at a time, state-major."""
    S, B = spec.state_count, spec.adversary_actions
    cons = extension_constants(spec)
    rows, senses, rhs = [], [], []

    def add(s, coef, sense, bound):
        row = np.zeros(S * B)
        row[s * B : (s + 1) * B] = coef
        rows.append(row)
        senses.append(sense)
        rhs.append(bound)

    slack = q_table(spec, x, v_hat) - v_hat[:, None]
    deviations = [
        q_table(spec, x.with_block(k, np.tile(pure, (S, 1))), v_hat) - v_hat[:, None]
        for k, size in enumerate(spec.team_sizes)
        for pure in np.eye(size)
    ]
    for s in range(S):
        for dev in deviations:
            add(s, dev[s], ">=", -cons.c1 * epsilon)
        for sense, bound in (("<=", cons.c2), (">=", -cons.c2)):
            for b in range(B):
                add(s, np.eye(B)[b] * slack[s, b], sense, bound * epsilon)
        add(s, 1.0, ">=", spec.initial_dist[s])
        add(s, 1.0, "<=", 1.0 / (1.0 - spec.discount))
    return np.array(rows), tuple(senses), np.array(rhs)


def whole_program(programs) -> LinearProgram:
    """The per-state programs of build_lp_adv as one block-diagonal program."""
    rows = sum(lp.n_rows for lp in programs)
    cols = sum(lp.n_vars for lp in programs)
    lhs = np.zeros((rows, cols))
    i = j = 0
    for lp in programs:
        lhs[i : i + lp.n_rows, j : j + lp.n_vars] = lp.lhs
        i, j = i + lp.n_rows, j + lp.n_vars
    return LinearProgram(
        objective=np.concatenate([lp.objective for lp in programs]),
        lhs=lhs,
        senses=tuple(sense for lp in programs for sense in lp.senses),
        rhs=np.concatenate([lp.rhs for lp in programs]),
    )


def adversary_policy_gradient(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> np.ndarray:
    """Gradient of V_rho in the adversary's coordinates, flattened (S*B,).

    dV/dy_{s,b} = d(s) * (r(s,x,b) + gamma sum_{s'} P(s'|s,x,b) v(s')).
    Together with policy_gradient this makes up the full joint gradient,
    which the smoothness certificates measure.
    """
    v = value_vector(spec, x, y)
    d = visitation(spec, x, y)
    return (d[:, None] * q_table(spec, x, v)).ravel()


def qnlp_residuals(
    spec: GameSpec,
    x: TeamPolicy,
    v: np.ndarray,
    x_anchor: TeamPolicy,
) -> dict[str, float]:
    """Objective and worst constraint violation of the regularized program

        min  rho' v + ell ||x - x_anchor||^2
        s.t. r(s, x, b) + gamma sum_t P(t | s, x, b) v(t) <= v(s),
             x a product of simplices.

    At (x, v_best_response(x)) the violation is zero and the objective
    equals phi(x) plus the proximity term.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (spec.state_count,):
        raise ValueError(f"v has shape {v.shape}, expected ({spec.state_count},)")
    ell = smoothness_constants(spec).ell
    diff = x.as_vector() - x_anchor.as_vector()
    objective = float(spec.initial_dist @ v) + ell * float(diff @ diff)

    violation = float(np.maximum(q_table(spec, x, v) - v[:, None], 0.0).max())
    for block in x.blocks:
        violation = max(violation, float(np.abs(block.sum(axis=1) - 1.0).max()))
        violation = max(violation, float(np.maximum(-block, 0.0).max()))
    return {"objective": objective, "max_violation": violation}


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

    # Primal: maximize -rho' v with v free, split as v = v_plus - v_minus
    # over the columns [rows, -rows] because the solver takes x >= 0 only.
    rows = np.zeros((S * B, S))
    rhs = np.zeros(S * B)
    for s in range(S):
        for b in range(B):
            i = s * B + b
            rows[i, s] = 1.0
            rows[i] -= gamma * P_x[s, b]
            rhs[i] = r_x[s, b]
    primal = LinearProgram(
        objective=np.concatenate([-spec.initial_dist, spec.initial_dist]),
        lhs=np.hstack([rows, -rows]),
        senses=(">=",) * (S * B),
        rhs=rhs,
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

    return primal_sol.x[:S] - primal_sol.x[S:], dual_sol.x.reshape(S, B)
