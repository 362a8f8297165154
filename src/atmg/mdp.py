"""Exact evaluation machinery for one game instance.

Everything here is model-based and deterministic: induced Markov chains,
value vectors by exact linear solve (level substitution on an acyclic chain,
one schedule serving its visitation solve too; dense on a cyclic one),
discounted visitation measures, best responses by policy iteration, exact
policy gradients under the direct parametrization, Euclidean projection onto
the product of simplices, and the Lipschitz/smoothness constants of the
best-response value function.
Transition contractions read the game's successor lists: one bincount
builds an induced S x S chain, and a gather gives expected next-state
values.  No (S, ., S) table is built.  Policy iteration, the best
responses and the gradient all use these two forms, and the gradient
reuses the chain its best response ended with.  Each team policy is
evaluated once across the pipeline: its best response (y_star, v_hat) is
memoized on the TeamPolicy for one GameSpec object, never with the S x S
matrix, and adversary_best_response, policy_gradient and value_rho read it.

Policies are stored directly as probability tables.  The team's flattened
coordinate vector concatenates the per-player blocks in player order, each
block row-major over (state, action); all gradient and projection routines
share that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .game import GameSpec

_POLICY_SUM_TOL = 1e-12

# Best responses treat two actions as tied when their Q-values differ by at
# most this fraction of the state's largest |Q|.  That is far above the
# round-off of an exact evaluation, so round-off neither breaks a tie nor
# makes policy iteration cycle.
_TIE_RTOL = 1e-12

# A chain needing more substitution levels is solved densely.  A level took
# 25-30 us over the schedule and both solves (2-core host, one BLAS thread),
# so at S = 200, 32 levels cost the dense pair's 1 ms (a 200-level path took
# 4 ms).  Grid-world chains under the adversary best response took 2-4.
_MAX_LEVELS = 32


# ---------------------------------------------------------------------------
# Policy containers
# ---------------------------------------------------------------------------

def _own(arr) -> np.ndarray:
    """A read-only float64 copy of arr, so no caller's array can change it."""
    arr = np.array(arr, dtype=np.float64, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TeamPolicy:
    """Per-player probability tables: blocks[k] has shape (S, A_k)."""

    blocks: tuple[np.ndarray, ...]
    # (spec, y_star, v_hat) of the best response; see adversary_best_response.
    _memo: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(_own(block) for block in self.blocks))

    def as_vector(self) -> np.ndarray:
        """Flatten to the shared team coordinate layout."""
        return np.concatenate([block.ravel() for block in self.blocks])

    def with_block(self, k: int, block: np.ndarray) -> "TeamPolicy":
        """Copy of this policy with player k's table replaced."""
        new_blocks = list(self.blocks)
        new_blocks[k] = block
        return TeamPolicy(tuple(new_blocks))


@dataclass(frozen=True)
class AdversaryPolicy:
    """Adversary probability table of shape (S, B)."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _own(self.probs))


@dataclass(frozen=True)
class SmoothnessConstants:
    """Lipschitz constant L, smoothness ell, and mismatch bound D_bar."""

    L: float
    ell: float
    D_bar: float


def uniform_team_policy(spec: GameSpec) -> TeamPolicy:
    S = spec.state_count
    return TeamPolicy(tuple(np.full((S, a), 1.0 / a) for a in spec.team_sizes))


def _block_views(spec: GameSpec, vec: np.ndarray) -> list[np.ndarray]:
    """The (S, A_k) blocks of the flat team vector vec, as views."""
    S, size = spec.state_count, spec.state_count * spec.sum_team_actions
    if vec.size != size:
        raise ValueError(f"team vector has {vec.size} entries, expected {size}")
    blocks, offset = [], 0
    for a in spec.team_sizes:
        blocks.append(vec[offset : offset + S * a].reshape(S, a))
        offset += S * a
    return blocks


def team_policy_from_vector(spec: GameSpec, vec: np.ndarray) -> TeamPolicy:
    """Inverse of TeamPolicy.as_vector for this game's block sizes."""
    return TeamPolicy(tuple(_block_views(spec, vec)))


def joint_policy_vector(x: TeamPolicy, y: AdversaryPolicy) -> np.ndarray:
    """Concatenated (team, adversary) coordinates; used for joint-policy norms."""
    return np.concatenate([x.as_vector(), y.probs.ravel()])


def check_policies(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy | None = None) -> None:
    """Raise ValueError unless the policies are valid probability tables.

    Entries must pass `>= 0`, which NaN fails; inf fails the row sums.
    """
    S = spec.state_count
    if len(x.blocks) != spec.n_players:
        raise ValueError(
            f"team policy has {len(x.blocks)} blocks, expected {spec.n_players}"
        )
    for k, (block, a) in enumerate(zip(x.blocks, spec.team_sizes)):
        if block.shape != (S, a):
            raise ValueError(f"block {k} has shape {block.shape}, expected {(S, a)}")
        if not (block >= 0.0).all() or np.abs(block.sum(axis=1) - 1.0).max() > _POLICY_SUM_TOL:
            raise ValueError(f"block {k} is not a per-state distribution")
    if y is not None:
        if y.probs.shape != (S, spec.adversary_actions):
            raise ValueError(
                f"adversary policy has shape {y.probs.shape}, "
                f"expected {(S, spec.adversary_actions)}"
            )
        probs = y.probs
        if not (probs >= 0.0).all() or np.abs(probs.sum(axis=1) - 1.0).max() > _POLICY_SUM_TOL:
            raise ValueError("adversary policy is not a per-state distribution")


# ---------------------------------------------------------------------------
# Induced chains and marginalization
# ---------------------------------------------------------------------------

def joint_action_distribution(
    spec: GameSpec, x: TeamPolicy, skip: int | None = None
) -> np.ndarray:
    """(S, A_joint) table of joint team-action probabilities under x.

    With skip=k, player k's table is left out: the table holds the weight
    of the other players' part of each joint action, player k's action free.
    """
    return _product(spec, _gathered(spec, x), skip)


def _gathered(spec: GameSpec, x: TeamPolicy) -> list[np.ndarray]:
    """Each player's (S, J) table: its block read at its digit of each joint action."""
    digits = spec.action_digits
    return [block[:, digits[:, k]] for k, block in enumerate(x.blocks)]


def _product(spec: GameSpec, gathered: list[np.ndarray], skip: int | None = None) -> np.ndarray:
    """The _gathered tables multiplied in player order, player skip left out."""
    factors = [table for k, table in enumerate(gathered) if k != skip]
    w = factors[0] if factors else np.ones((spec.state_count, spec.joint_action_count))
    for factor in factors[1:]:
        w = w * factor
    return w


# Contractions over the team and adversary axes are matmuls in a fixed
# order; einsum with optimize=True would search for a contraction path on
# every call, which costs more than the arithmetic on small games.

def induced_transition(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> np.ndarray:
    """Row-stochastic S x S matrix of the chain induced by (x, y)."""
    return _chain(spec, joint_action_distribution(spec, x)[:, :, None] * y.probs[:, None, :])


def _chain(spec: GameSpec, w: np.ndarray) -> np.ndarray:
    """S x S chain of the (S, J, B) joint-action weights w: one bincount over
    the successor lists, each entry adding its terms in (j, b, k) order."""
    S, T = spec.state_count, spec.transition
    flat = np.bincount(T.bins.ravel(), weights=(w[..., None] * T.prob).ravel(), minlength=S * S)
    return flat.reshape(S, S)


def _pure_adversary_chain(spec: GameSpec, w: np.ndarray, policy: np.ndarray) -> np.ndarray:
    """induced_transition bit for bit, for the team's joint action table w and
    the adversary playing policy[s]: the skipped actions add exact zeros."""
    T, S, states = spec.transition, spec.state_count, np.arange(spec.state_count)
    weights = (w[:, :, None] * T.prob[states, :, policy]).ravel()
    return np.bincount(T.bins[states, :, policy].ravel(), weights, S * S).reshape(S, S)


def induced_reward(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> np.ndarray:
    """Per-state expected adversary reward under (x, y)."""
    return (marginal_reward_table(spec, x) * y.probs).sum(axis=1)


def marginal_reward_table(spec: GameSpec, x: TeamPolicy) -> np.ndarray:
    """(S, B) table r(s, x, b), the reward marginalized over the team only."""
    w = joint_action_distribution(spec, x)
    return (w[:, None, :] @ spec.reward)[:, 0, :]


def _successor_mean(spec: GameSpec, v: np.ndarray) -> np.ndarray:
    """(S, J, B) table sum_{s'} P(s' | s, j, b) v(s'), gathered from the successor lists."""
    T = spec.transition
    if T.succ.shape[-1] == 1:  # deterministic moves: no length-1 reduction
        return T.prob[..., 0] * v[T.succ[..., 0]]
    return (T.prob * v[T.succ]).sum(axis=-1)


def _continuation(spec: GameSpec, v: np.ndarray) -> np.ndarray:
    """(S, J, B) table r(s, j, b) + gamma sum_{s'} P(s' | s, j, b) v(s')."""
    return spec.reward + spec.discount * _successor_mean(spec, v)


def q_table(spec: GameSpec, x: TeamPolicy, v: np.ndarray) -> np.ndarray:
    """(S, B) table r(s, x, b) + gamma sum_{s'} P(s' | s, x, b) v(s').

    The one-step payoff plus continuation is gathered per joint action and
    then mixed over the team, so no (S, B, S) table is built.
    """
    w = joint_action_distribution(spec, x)
    return (w[:, None, :] @ _continuation(spec, v))[:, 0, :]


def _player_q(spec: GameSpec, others: np.ndarray, k: int, mixed: np.ndarray) -> np.ndarray:
    """(S, A_k) table Qbar_k(s, a): payoff plus discounted continuation v
    when player k pins action a and everyone else follows (x_{-k}, y).

        Qbar_k(s,a) = E[ r(s,(a;a_{-k}),b) + gamma sum_{s'} P(s'|...) v(s') ]

    others is joint_action_distribution(spec, x, skip=k) and mixed is
    q @ y.probs[:, :, None] at q = _continuation(spec, v) (spec.reward at v = 0).
    """
    return (others * mixed[:, :, 0]) @ spec.action_masks[k]


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

def _bellman_matrix(P: np.ndarray, gamma: float) -> np.ndarray:
    """I - gamma P, written over the caller's freshly built S x S matrix P."""
    P *= -gamma
    P.flat[:: P.shape[0] + 1] += 1.0
    return P


def _levels(M: np.ndarray) -> list[np.ndarray] | None:
    """Substitution schedule of M = I - gamma P: level 0 holds the states
    whose row has no off-diagonal entry, each later level those whose row
    reaches earlier levels only.  None if P has a cycle (self-loops aside)
    or needs more than _MAX_LEVELS levels."""
    reach = M != 0.0
    reach.flat[:: M.shape[0] + 1] = False
    pending = np.count_nonzero(reach, axis=1)
    levels, level = [], np.flatnonzero(pending == 0)
    while level.size and len(levels) < _MAX_LEVELS:
        levels.append(level)
        pending[level] = -1
        pending -= np.count_nonzero(reach[:, level], axis=1)
        level = np.flatnonzero(pending == 0)
    return levels if (pending < 0).all() else None


def _solve(M: np.ndarray, b: np.ndarray, levels: list[np.ndarray] | None) -> np.ndarray:
    """The one value solver: z with M z = b, for M = I - gamma P or its transpose.

    levels is _levels(I - gamma P), reversed for the transpose: each level
    is z[L] = (b[L] - M[L] z) / diag(M)[L]; with None the solve is dense.
    Either matrix is strictly diagonally dominant (by rows or by columns)
    for gamma < 1, so neither solve can fail; the residual is checked
    against 1e-10 * S anyway, in units of max |b| once that exceeds 1, since
    round-off grows with the magnitude of the rewards.
    """
    z = np.linalg.solve(M, b) if levels is None else np.zeros_like(b)
    for level in levels or ():
        z[level] = (b[level] - M[level] @ z) / M[level, level]
    residual = float(np.abs(M @ z - b).max())
    if residual > 1e-10 * b.size * max(1.0, float(np.abs(b).max())):
        raise RuntimeError(f"policy evaluation residual {residual:g} is out of tolerance")
    return z


def value_vector(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> np.ndarray:
    """Exact policy evaluation: solve (I - gamma P(x,y)) v = r(x,y)."""
    M = _bellman_matrix(induced_transition(spec, x, y), spec.discount)
    return _solve(M, induced_reward(spec, x, y), _levels(M))


def value_rho(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> float:
    """V_rho(x, y) = E_{s ~ rho}[v(s)]; for x's memoized y_star, its v_hat is
    this very evaluation, bit for bit."""
    memo = _recall(spec, x)
    v = memo[1] if memo and memo[0] is y else value_vector(spec, x, y)
    return float(spec.initial_dist @ v)


# ---------------------------------------------------------------------------
# Best responses
# ---------------------------------------------------------------------------

def _greedy(q: np.ndarray):
    """(best, slack): per row, the lowest index within slack = _TIE_RTOL * max |q| of the max."""
    slack = _TIE_RTOL * np.abs(q).max(axis=1)
    return np.argmax(q >= (q.max(axis=1) - slack)[:, None], axis=1), slack


def _policy_iteration(spec: GameSpec, r: np.ndarray, q_of, chain_of):
    """Maximize one agent's MDP over its deterministic policies.

    r is the agent's (S, U) table of one-step payoffs, and q_of(v) is r
    plus gamma times the expected continuation value v;
    chain_of(policy) is the S x S transition matrix when the agent plays
    action policy[s] in state s.  Howard's policy iteration: it starts from
    the greedy policy of one value-iteration step from v = 0, q_of(max_u r),
    which sees a payoff one step ahead where the rewards alone do not.  It
    evaluates the current policy exactly and moves a state to its greedy
    action only where that gains more than the tie tolerance; each move
    raises the value, so no policy repeats and the loop ends once no state
    gains.  Returns (v, policy, M, levels): the exact value of the returned
    deterministic policy, optimal up to ties, and its chain's M = I - gamma P
    with M's _levels.  The last q_of call is at the returned v.
    """
    states = np.arange(spec.state_count)
    policy = _greedy(q_of(r.max(axis=1)))[0]
    while True:
        M = _bellman_matrix(chain_of(policy), spec.discount)
        levels = _levels(M)
        v = _solve(M, r[states, policy], levels)
        q = q_of(v)
        best, slack = _greedy(q)
        gains = q[states, best] - q[states, policy] > slack
        if not gains.any():
            return v, policy, M, levels
        policy = np.where(gains, best, policy)


def _recall(spec: GameSpec, x: TeamPolicy):
    """(y_star, v_hat) from x's memo, or None unless it was filled for spec."""
    memo = x._memo
    return memo[1:] if memo is not None and memo[0] is spec else None


def _adversary_iteration(spec: GameSpec, x: TeamPolicy, gathered: list[np.ndarray]):
    """(y_star, v_hat, M = I - gamma P(x, y_star), M's _levels, _continuation
    at v_hat) of the adversary's best response, from x's _gathered tables.
    Fills x's memo; on a memo hit only the last three are rebuilt."""
    w = _product(spec, gathered)
    memo = _recall(spec, x)
    if memo:
        chain = _pure_adversary_chain(spec, w, memo[0].probs.argmax(axis=1))
        M = _bellman_matrix(chain, spec.discount)
        return *memo, M, _levels(M), _continuation(spec, memo[1])
    q = None

    def q_of(v):
        nonlocal q
        q = _continuation(spec, v)
        return (w[:, None, :] @ q)[:, 0, :]

    r = (w[:, None, :] @ spec.reward)[:, 0, :]
    v_hat, greedy, M, levels = _policy_iteration(
        spec, r, q_of, lambda policy: _pure_adversary_chain(spec, w, policy)
    )
    v_hat.setflags(write=False)
    y_star = AdversaryPolicy(np.eye(spec.adversary_actions)[greedy])
    object.__setattr__(x, "_memo", (spec, y_star, v_hat))
    return y_star, v_hat, M, levels, q


def adversary_best_response(spec: GameSpec, x: TeamPolicy):
    """Best adversary policy against a fixed team policy x.

    The adversary faces the single-agent MDP with rewards r(s, x, b) and
    transitions P(s' | s, x, b); policy iteration gives a deterministic
    optimal policy y_star and its exact value vector v_hat, so
    rho' v_hat = phi(x) = max_y V_rho(x, y).

    Returns (y_star, v_hat), kept in x's memo: the same objects (v_hat
    read-only) on every call with this spec.
    """
    return _recall(spec, x) or _adversary_iteration(spec, x, _gathered(spec, x))[:2]


def team_player_best_response(spec: GameSpec, k: int, x_minus_k: TeamPolicy, y: AdversaryPolicy):
    """Player k's best deviation while everyone else stays put.

    Team members are paid -r/n, so the deviating player faces the MDP over
    its own A_k actions that MINIMIZES the adversary's value; policy
    iteration maximizes its negation.  x_minus_k supplies the frozen
    teammates; its block k is ignored.  Returns the deterministic table
    (S, A_k) and the minimized value rho' v.  The teammates' joint-action
    weights are built once; a sweep's chain only masks them with player
    k's pure policy.
    """
    others = joint_action_distribution(spec, x_minus_k, skip=k)
    digit = spec.action_digits[:, k]
    v_max, greedy, _, _ = _policy_iteration(
        spec,
        -_player_q(spec, others, k, spec.reward @ y.probs[:, :, None]),
        lambda v: -_player_q(spec, others, k, _continuation(spec, -v) @ y.probs[:, :, None]),
        lambda policy: _chain(
            spec, (others * (digit == policy[:, None]))[:, :, None] * y.probs[:, None, :]
        ),
    )
    return np.eye(spec.team_sizes[k])[greedy], -float(spec.initial_dist @ v_max)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def policy_gradient(spec: GameSpec, x: TeamPolicy):
    """The adversary's best response to x and the team gradient against it.

    Returns (y_star, v_hat, grad): y_star and v_hat as from
    adversary_best_response, and the exact gradient of V_rho(x, y_star) in
    all team coordinates,

        dV/dx_{k,s,a} = d(s) * Qbar_k(s, a)

    with d the unnormalized visitation of the chain (x, y_star), taken by
    one transposed solve on the M and levels policy iteration ended with,
    and Qbar_k the table of _player_q at v_hat, all from one gather of the
    blocks.  On a memo hit only y_star's chain is rebuilt.
    """
    gathered = _gathered(spec, x)
    y_star, v_hat, M, levels, q = _adversary_iteration(spec, x, gathered)
    d = _solve(M.T, spec.initial_dist, levels and levels[::-1])
    mixed = q @ y_star.probs[:, :, None]
    grad = np.concatenate([
        d[:, None] * _player_q(spec, _product(spec, gathered, k), k, mixed)
        for k in range(spec.n_players)
    ], axis=None)
    return y_star, v_hat, grad


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def _project_simplex_rows(mat: np.ndarray) -> np.ndarray:
    """Project each row of `mat` onto the probability simplex.

    Sort-and-threshold: with u the row sorted in descending order and
    css its cumulative sum, the threshold is tau = (css_rho - 1) / rho at
    the largest rho with u_rho > (css_rho - 1) / rho; the projection is
    max(row - tau, 0).
    """
    m, d = mat.shape
    u = np.sort(mat, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    idx = np.arange(1, d + 1)
    cond = u > (css - 1.0) / idx
    rho = d - np.argmax(cond[:, ::-1], axis=1)  # last column where cond holds
    tau = (css[np.arange(m), rho - 1] - 1.0) / rho
    return np.maximum(mat - tau[:, None], 0.0)


def project_product_simplex(spec: GameSpec, z: np.ndarray) -> TeamPolicy:
    """Euclidean projection of flat team coordinates onto the product of simplices.

    Each (player, state) block is projected independently, so the operator
    is nonexpansive on the whole team vector; one call projects the blocks
    of all players with the same action count.
    """
    blocks = _block_views(spec, z)
    for a in set(spec.team_sizes):
        players = [k for k, size in enumerate(spec.team_sizes) if size == a]
        rows = _project_simplex_rows(np.concatenate([blocks[k] for k in players]))
        for k, projected in zip(players, rows.reshape(len(players), -1, a)):
            blocks[k] = projected
    return TeamPolicy(tuple(blocks))


# ---------------------------------------------------------------------------
# Smoothness constants
# ---------------------------------------------------------------------------

def smoothness_constants(spec: GameSpec) -> SmoothnessConstants:
    """L, ell, and the mismatch bound D_bar for this game.

        L     = sqrt(sum_k A_k + B) / (1 - gamma)^2
        ell   = 2 (sum_k A_k + B) / (1 - gamma)^3
        D_bar = 1 / ((1 - gamma) * min_s rho(s))

    V_rho is L-Lipschitz and ell-smooth in the joint policy; D_bar upper
    bounds the distribution mismatch coefficient since d(s) <= 1/(1-gamma).
    """
    total = spec.sum_team_actions + spec.adversary_actions
    one_minus = 1.0 - spec.discount
    L = np.sqrt(total) / one_minus**2
    ell = 2.0 * total / one_minus**3
    D_bar = 1.0 / (one_minus * float(spec.initial_dist.min()))
    return SmoothnessConstants(L=float(L), ell=float(ell), D_bar=float(D_bar))
