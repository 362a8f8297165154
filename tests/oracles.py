"""Test oracles: library quantities rebuilt from atmg functions.

The adversary's best-response MDP is solved by linear programming through
the simplex in atmg.lp rather than the policy-iteration solver in
atmg.mdp, so the two can be checked against each other.  The adversary's
policy gradient and the residuals of the regularized program are read off
the dense marginal tables; the library itself uses neither.  The team's
policy gradient at an arbitrary adversary policy is the library's formula
outside the best-response loop, where the library only takes it at the
best response.  The joint team-action table and the team-marginal reward
table are the library's gather and product, named for the tests.  The
adversary LP is written out row by row, the reference for its vectorized
assembly, and its per-state programs are put back on one block diagonal.
The transition contractions are einsums over the dense tensor, the
reference for the library's successor-list forms.  A chain's row lists
are built from scratch, the reference for the library's rows on a cached
skeleton; the induced S x S chain is those row lists summed into place,
and the discounted visitation measure is one dense solve on it.  The
greedy rule of the best responses and the simplex projection are reduced row
by row, the references for the library's action-major reductions.  A team
player's best response contracts the full (S, J, B) tables with y over all
B actions, the reference for the library's contraction over y's support.
The adversary's best response and the gradient at it contract the full
(S, J, B) table r + gamma E[v] with the team weights, the reference for the
library's backup, which contracts the expected next values alone.
"""

from __future__ import annotations

import numpy as np

from atmg.extension import extension_constants
from atmg.game import GameSpec
from atmg.lp import OPTIMAL, LinearProgram, solve
from atmg.mdp import (
    AdversaryPolicy,
    TeamPolicy,
    _TIE_RTOL,
    _bellman_rows,
    _chain_rows,
    _gathered,
    _next_mean,
    _player_q,
    _policy_iteration,
    _product,
    _solve,
    _support,
    smoothness_constants,
    value_vector,
)
from conftest import dense_transition, with_block


def joint_action_distribution(
    spec: GameSpec, x: TeamPolicy, skip: int | None = None
) -> np.ndarray:
    """(S, A_joint) table of joint team-action probabilities under x.

    With skip=k, player k's table is left out: the table holds the weight
    of the other players' part of each joint action, player k's action free.
    """
    return _product(spec, _gathered(spec, x), skip)


def marginal_reward_table(spec: GameSpec, x: TeamPolicy) -> np.ndarray:
    """(S, B) table r(s, x, b), the reward marginalized over the team only."""
    w = joint_action_distribution(spec, x)
    return (w[:, None, :] @ spec.reward)[:, 0, :]


def dense_marginal_transition(spec: GameSpec, x: TeamPolicy) -> np.ndarray:
    """(S, B, S) table P(s' | s, x, b) contracted from the dense tensor."""
    w = joint_action_distribution(spec, x)
    return np.einsum("sj,sjbt->sbt", w, dense_transition(spec.transition))


def dense_player_transition(
    spec: GameSpec, k: int, x: TeamPolicy, y: AdversaryPolicy
) -> np.ndarray:
    """(S, A_k, S) table P(s' | s, a_k; x_{-k}, y) of player k's deviation MDP."""
    S, A = spec.state_count, spec.team_sizes[k]
    others = joint_action_distribution(spec, with_block(x, k, np.ones((S, A))))
    pinned = np.eye(A)[spec.action_digits[:, k]]
    dense = dense_transition(spec.transition)
    return np.einsum("sj,ja,sb,sjbt->sat", others, pinned, y.probs, dense)


def dense_successor_mean(spec: GameSpec, v: np.ndarray) -> np.ndarray:
    """(S, J, B) table sum_t P(t | s, j, b) v(t) from the dense tensor."""
    return np.einsum("sjbt,t->sjb", dense_transition(spec.transition), v)


def continuation(spec: GameSpec, v: np.ndarray) -> np.ndarray:
    """Full (S, J, B) table r(s, j, b) + gamma sum_{s'} P(s' | s, j, b) v(s')."""
    return spec.reward + spec.discount * _next_mean(spec, v)


def greedy_rows(q: np.ndarray):
    """mdp._greedy's (best, slack), reduced along each row of the (S, U) table q."""
    slack = _TIE_RTOL * np.abs(q).max(axis=1)
    return np.argmax(q >= (q.max(axis=1) - slack)[:, None], axis=1), slack


def project_simplex_rows(mat: np.ndarray) -> np.ndarray:
    """mdp._project_simplex_rows, sorted, summed and thresholded along each row."""
    m, d = mat.shape
    u = np.sort(mat, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    cond = u > (css - 1.0) / np.arange(1, d + 1)
    rho = d - np.argmax(cond[:, ::-1], axis=1)  # last column where cond holds
    tau = (css[np.arange(m), rho - 1] - 1.0) / rho
    return np.maximum(mat - tau[:, None], 0.0)


def full_table_player_best_response(
    spec: GameSpec, k: int, x_minus_k: TeamPolicy, y: AdversaryPolicy
):
    """mdp.team_player_best_response with its payoff and continuation taken
    from the full (S, J, B) tables, q @ y.probs[:, :, None]."""
    others = _product(spec, _gathered(spec, x_minus_k), k)
    digit, support = spec.action_digits[:, k], _support(y)

    def mixed(q):
        return (q @ y.probs[:, :, None])[:, :, 0]

    v_max, greedy, _ = _policy_iteration(
        spec,
        -_player_q(spec, others, k, mixed(spec.reward)),
        lambda v: -_player_q(spec, others, k, mixed(continuation(spec, -v))),
        lambda policy: _chain_rows(spec, others * (digit == policy[:, None]), *support),
    )
    return np.eye(spec.team_sizes[k])[greedy], -float(spec.initial_dist @ v_max)


def full_table_adversary_best_response(spec: GameSpec, x: TeamPolicy):
    """mdp.policy_gradient from a cold start with the adversary's backup taken
    from the full (S, J, B) table, w @ continuation(spec, v), and y_star's
    column for the gradient read from that table at v_hat: (y_star, v_hat, grad)."""
    gathered = _gathered(spec, x)
    w = _product(spec, gathered)
    tables = []

    def q_of(v):
        tables.append(continuation(spec, v))
        return (w[:, None, :] @ tables[-1])[:, 0, :]

    r = (w[:, None, :] @ spec.reward)[:, 0, :]
    v_hat, greedy, M = _policy_iteration(spec, r, q_of, lambda u: _chain_rows(spec, w, u[:, None]))
    d = _solve(M, spec.initial_dist, transpose=True)
    column = tables[-1][np.arange(spec.state_count), :, greedy]
    grad = np.concatenate([
        d[:, None] * _player_q(spec, _product(spec, gathered, k), k, column)
        for k in range(spec.n_players)
    ], axis=None)
    return AdversaryPolicy(np.eye(spec.adversary_actions)[greedy]), v_hat, grad


def induced_reward(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> np.ndarray:
    """Per-state expected adversary reward under (x, y)."""
    return (marginal_reward_table(spec, x) * y.probs).sum(axis=1)


def chain(spec: GameSpec, w: np.ndarray, acts: np.ndarray, p: np.ndarray | None):
    """Row lists (cols, wts) of the chain where the team plays the (S, J)
    joint-action weights w and the adversary acts[s, i] with probability
    p[s, i], all ones for None: two (S, m J K) arrays, each row in (i, j, k)
    order.  Every weight is multiplied in, ones and a certain game's too."""
    T, S = spec.transition, spec.state_count
    states = np.arange(S)[:, None]
    p = np.ones(acts.shape) if p is None else p
    wts = (w[:, None, :] * p[:, :, None])[..., None] * T.prob[states, :, acts]
    return T.succ[states, :, acts].reshape(S, -1), wts.reshape(S, -1)


def chain_rows(spec: GameSpec, w: np.ndarray, acts: np.ndarray, p: np.ndarray | None = None):
    """mdp._chain_rows without a skeleton: _bellman_rows of the chain's row
    lists, with its own self-loop mask and schedule."""
    cols, wts = chain(spec, w, acts, p)
    return _bellman_rows((cols, wts), spec.discount, cols == np.arange(spec.state_count)[:, None])


def induced_transition(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> np.ndarray:
    """Row-stochastic S x S matrix of the chain induced by (x, y): the
    chain's row lists, each entry added into its place."""
    cols, wts = chain(spec, joint_action_distribution(spec, x), *_support(y))
    P = np.zeros((spec.state_count, spec.state_count))
    np.add.at(P, (np.arange(spec.state_count)[:, None], cols), wts)
    return P


def visitation(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> np.ndarray:
    """Unnormalized discounted state occupancy: d' = rho' (I - gamma P)^{-1}.

    Sums to 1/(1 - gamma); satisfies rho(s) <= d(s) <= 1/(1 - gamma).
    """
    M = np.eye(spec.state_count) - spec.discount * induced_transition(spec, x, y)
    return np.linalg.solve(M.T, spec.initial_dist)


def q_table(spec: GameSpec, x: TeamPolicy, v: np.ndarray) -> np.ndarray:
    """(S, B) table r(s, x, b) + gamma sum_t P(t | s, x, b) v(t)."""
    return marginal_reward_table(spec, x) + spec.discount * (dense_marginal_transition(spec, x) @ v)


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
        q_table(spec, with_block(x, k, np.tile(pure, (S, 1))), v_hat) - v_hat[:, None]
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


def team_policy_gradient(
    spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy, d: np.ndarray | None = None
) -> np.ndarray:
    """Exact gradient of V_rho(x, y) in all team coordinates, at any y.

    dV/dx_{k,s,a} = d(s) * Qbar_k(s, a), with d the unnormalized visitation
    (by default the dense solve of visitation) and Qbar_k player k's
    pinned-action table.  The identity holds for the multilinear extension
    off the simplex too, which is what the finite-difference checks use.
    At y = y_star(x), given d from atmg.mdp's own solver, it is the
    gradient atmg.mdp.policy_gradient returns, bit for bit.
    """
    mixed = (continuation(spec, value_vector(spec, x, y)) @ y.probs[:, :, None])[:, :, 0]
    d = visitation(spec, x, y) if d is None else d
    return np.concatenate([
        d[:, None]
        * _player_q(spec, joint_action_distribution(spec, x, skip=k), k, mixed)
        for k in range(spec.n_players)
    ], axis=None)


def adversary_policy_gradient(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> np.ndarray:
    """Gradient of V_rho in the adversary's coordinates, flattened (S*B,).

    dV/dy_{s,b} = d(s) * (r(s,x,b) + gamma sum_{s'} P(s'|s,x,b) v(s')).
    Together with team_policy_gradient this makes up the full joint gradient,
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
    P_x = dense_marginal_transition(spec, x)
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
