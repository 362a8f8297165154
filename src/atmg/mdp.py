"""Exact evaluation machinery for one game instance.

Everything here is model-based and deterministic: induced Markov chains,
value vectors by dense linear solve, discounted visitation measures, best
responses by policy iteration, exact policy gradients under the direct
parametrization, Euclidean projection onto the product of simplices, and
the Lipschitz/smoothness constants of the best-response value function.
Transition contractions read the game's successor lists: one bincount
builds each marginal (S, ., S) table, and a gather gives expected
next-state values.

Policies are stored directly as probability tables.  The team's flattened
coordinate vector concatenates the per-player blocks in player order, each
block row-major over (state, action); all gradient and projection routines
share that layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameSpec

_POLICY_SUM_TOL = 1e-12

# Best responses treat two actions as tied when their Q-values differ by at
# most this fraction of the state's largest |Q|.  That is far above the
# round-off of an exact evaluation, so round-off neither breaks a tie nor
# makes policy iteration cycle.
_TIE_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Policy containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TeamPolicy:
    """Per-player probability tables: blocks[k] has shape (S, A_k)."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        frozen = []
        for block in self.blocks:
            arr = np.ascontiguousarray(np.asarray(block, dtype=np.float64))
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "blocks", tuple(frozen))

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
        arr = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)


@dataclass(frozen=True)
class SmoothnessConstants:
    """Lipschitz constant L, smoothness ell, and mismatch bound D_bar."""

    L: float
    ell: float
    D_bar: float


def uniform_team_policy(spec: GameSpec) -> TeamPolicy:
    S = spec.state_count
    return TeamPolicy(tuple(np.full((S, a), 1.0 / a) for a in spec.team_sizes))


def team_policy_from_vector(spec: GameSpec, vec: np.ndarray) -> TeamPolicy:
    """Inverse of TeamPolicy.as_vector for this game's block sizes."""
    S = spec.state_count
    blocks = []
    offset = 0
    for a in spec.team_sizes:
        blocks.append(vec[offset : offset + S * a].reshape(S, a))
        offset += S * a
    if offset != vec.size:
        raise ValueError(f"team vector has {vec.size} entries, expected {offset}")
    return TeamPolicy(tuple(blocks))


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

def joint_action_distribution(spec: GameSpec, x: TeamPolicy) -> np.ndarray:
    """(S, A_joint) table of joint team-action probabilities under x.

    A block of ones in place of player k's table leaves the weights of the
    other players' part of each joint action, with player k's action free.
    """
    digits = spec.action_digits
    w = np.ones((spec.state_count, spec.joint_action_count))
    for k, block in enumerate(x.blocks):
        w *= block[:, digits[:, k]]
    return w


# Contractions over the team and adversary axes are matmuls, or einsum
# without optimize=True, in a fixed order.  optimize=True would search for
# a contraction path on every call, which costs more than the arithmetic on
# small games.

def _mix_over_adversary(y: AdversaryPolicy, table: np.ndarray) -> np.ndarray:
    """(S, J) table sum_b y(s, b) table[s, j, b] of an (S, J, B) table."""
    return (table @ y.probs[:, :, None])[:, :, 0]


def _per_player(spec: GameSpec, x: TeamPolicy, k: int, table: np.ndarray) -> np.ndarray:
    """Marginalize a joint-action table onto player k's actions.

    table is indexed by state first and joint action last, (S, ..., J).
    The (S, ..., A_k) result sums, for each action a of player k, the
    entries of the joint actions in which player k plays a, each weighted
    by the probability that the other players choose their part of it
    under x.  x's block k is ignored.
    """
    S, J, A = spec.state_count, spec.joint_action_count, spec.team_sizes[k]
    w = joint_action_distribution(spec, x.with_block(k, np.ones((S, A))))
    mask = np.zeros((J, A))
    mask[np.arange(J), spec.action_digits[:, k]] = 1.0
    return (w.reshape((S,) + (1,) * (table.ndim - 2) + (J,)) * table) @ mask


def induced_transition(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> np.ndarray:
    """Row-stochastic S x S matrix of the chain induced by (x, y)."""
    return (y.probs[:, None, :] @ marginal_transition_table(spec, x))[:, 0, :]


def induced_reward(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> np.ndarray:
    """Per-state expected adversary reward under (x, y)."""
    return (marginal_reward_table(spec, x) * y.probs).sum(axis=1)


def marginal_reward_table(spec: GameSpec, x: TeamPolicy) -> np.ndarray:
    """(S, B) table r(s, x, b), the reward marginalized over the team only."""
    w = joint_action_distribution(spec, x)
    return (w[:, None, :] @ spec.reward)[:, 0, :]


def marginal_transition_table(spec: GameSpec, x: TeamPolicy) -> np.ndarray:
    """(S, B, S) table P(s' | s, x, b)."""
    B = spec.adversary_actions
    w = joint_action_distribution(spec, x)
    return _accumulate(spec, w[:, :, None], np.arange(B), B)


def _accumulate(spec: GameSpec, weight: np.ndarray, row: np.ndarray, rows: int) -> np.ndarray:
    """(S, rows, S) table: sum_{j, b} weight[s, j, b] P(s' | s, j, b) in row row[j, b].

    One bincount over the successor lists; weight broadcasts against
    (S, J, B) and row against (J, B).  Each bin adds its terms in (j, b, k)
    order.
    """
    S = spec.state_count
    T = spec.transition
    head = np.arange(S)[:, None, None] * rows + row
    bins = head[..., None] * S + T.succ
    flat = np.bincount(bins.ravel(), weights=(weight[..., None] * T.prob).ravel(),
                       minlength=S * rows * S)
    return flat.reshape(S, rows, S)


def _successor_mean(spec: GameSpec, v: np.ndarray) -> np.ndarray:
    """(S, J, B) table sum_{s'} P(s' | s, j, b) v(s'), gathered from the successor lists."""
    T = spec.transition
    return (T.prob * v[T.succ]).sum(axis=-1)


def q_table(spec: GameSpec, x: TeamPolicy, v: np.ndarray) -> np.ndarray:
    """(S, B) table r(s, x, b) + gamma sum_{s'} P(s' | s, x, b) v(s').

    The one-step payoff plus continuation is gathered per joint action and
    then mixed over the team, so no (S, B, S) table is built.
    """
    w = joint_action_distribution(spec, x)
    q = spec.reward + spec.discount * _successor_mean(spec, v)
    return (w[:, None, :] @ q)[:, 0, :]


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

def _bellman_matrix(P: np.ndarray, gamma: float) -> np.ndarray:
    """I - gamma P, written over the caller's freshly built S x S matrix P."""
    P *= -gamma
    P.flat[:: P.shape[0] + 1] += 1.0
    return P


def _solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The one value solver: z with M z = b, for M = I - gamma P or its transpose.

    Either matrix is strictly diagonally dominant (by rows or by columns)
    for gamma < 1, so the dense solve cannot fail; the residual is checked
    against 1e-10 * S anyway, in units of max |b| once that exceeds 1, since
    round-off grows with the magnitude of the rewards.
    """
    z = np.linalg.solve(M, b)
    residual = float(np.abs(M @ z - b).max())
    if residual > 1e-10 * b.size * max(1.0, float(np.abs(b).max())):
        raise RuntimeError(f"policy evaluation residual {residual:g} is out of tolerance")
    return z


def _chain(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> tuple[np.ndarray, np.ndarray]:
    """(I - gamma P(x, y), r(x, y)) of the chain induced by (x, y)."""
    M = _bellman_matrix(induced_transition(spec, x, y), spec.discount)
    return M, induced_reward(spec, x, y)


def value_vector(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> np.ndarray:
    """Exact policy evaluation: solve (I - gamma P(x,y)) v = r(x,y)."""
    return _solve(*_chain(spec, x, y))


def value_rho(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> float:
    """V_rho(x, y) = E_{s ~ rho}[v(s)]."""
    return float(spec.initial_dist @ value_vector(spec, x, y))


# ---------------------------------------------------------------------------
# Best responses
# ---------------------------------------------------------------------------

def _greedy(q: np.ndarray) -> np.ndarray:
    """Per row, the lowest index whose value is within _TIE_RTOL of the row max."""
    slack = _TIE_RTOL * np.abs(q).max(axis=1, keepdims=True)
    return np.argmax(q >= q.max(axis=1, keepdims=True) - slack, axis=1)


def _policy_iteration(r: np.ndarray, P: np.ndarray, gamma: float):
    """Maximize the (S, actions) MDP given tables r[s, u] and P[s, u, s'].

    Howard's policy iteration.  It starts from the myopic greedy policy,
    evaluates the current policy exactly, and moves a state to its greedy
    action only where that gains more than the tie tolerance; each move
    raises the value, so no policy repeats and the loop ends once no state
    gains.  Returns (v, policy): the exact value of the deterministic
    policy it returns, which is optimal up to ties.
    """
    states = np.arange(r.shape[0])
    policy = _greedy(r)
    while True:
        v = _solve(_bellman_matrix(P[states, policy], gamma), r[states, policy])
        q = r + gamma * (P @ v)
        best = _greedy(q)
        gains = q[states, best] - q[states, policy] > _TIE_RTOL * np.abs(q).max(axis=1)
        if not gains.any():
            return v, policy
        policy = np.where(gains, best, policy)


def adversary_best_response(spec: GameSpec, x: TeamPolicy):
    """Best adversary policy against a fixed team policy x.

    The adversary faces the single-agent MDP with rewards r(s, x, b) and
    transitions P(s' | s, x, b); policy iteration gives a deterministic
    optimal policy y_star and its exact value vector v_hat, so
    rho' v_hat = phi(x) = max_y V_rho(x, y).

    Returns (y_star, v_hat).
    """
    r_x = marginal_reward_table(spec, x)
    P_x = marginal_transition_table(spec, x)
    v_hat, greedy = _policy_iteration(r_x, P_x, spec.discount)
    return AdversaryPolicy(np.eye(spec.adversary_actions)[greedy]), v_hat


def team_player_best_response(spec: GameSpec, k: int, x_minus_k: TeamPolicy, y: AdversaryPolicy):
    """Player k's best deviation while everyone else stays put.

    Team members are paid -r/n, so the deviating player faces the MDP over
    its own A_k actions that MINIMIZES the adversary's value; policy
    iteration maximizes its negation.  x_minus_k supplies the frozen
    teammates; its block k is ignored.  Returns the deterministic table
    (S, A_k) and the minimized value rho' v.
    """
    v_max, greedy = _policy_iteration(*_player_mdp(spec, k, x_minus_k, y), spec.discount)
    return np.eye(spec.team_sizes[k])[greedy], -float(spec.initial_dist @ v_max)


def _player_mdp(spec: GameSpec, k: int, x_minus_k: TeamPolicy, y: AdversaryPolicy):
    """(-r_k, P_k): player k's negated (S, A_k) rewards and (S, A_k, S) transitions."""
    S, A = spec.state_count, spec.team_sizes[k]
    r_k = _per_player(spec, x_minus_k, k, _mix_over_adversary(y, spec.reward))
    # Joint action j pins player k to one action, the row j lands in.
    others = joint_action_distribution(spec, x_minus_k.with_block(k, np.ones((S, A))))
    P_k = _accumulate(spec, others[:, :, None] * y.probs[:, None, :],
                      spec.action_digits[:, k, None], A)
    return -r_k, P_k


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def policy_gradient(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> np.ndarray:
    """Exact gradient of V_rho(x, y) in all team coordinates.

    dV/dx_{k,s,a} = d(s) * Qbar_k(s, a) with the unnormalized visitation d
    and Qbar_k(s, a) the expected one-step-plus-continuation payoff when
    player k pins action a and everyone else follows (x_{-k}, y):

        Qbar_k(s,a) = E[ r(s,(a;a_{-k}),b) + gamma sum_{s'} P(s'|...) v(s') ]

    The identity holds for the multilinear extension off the simplex too,
    which is what the finite-difference oracle checks.
    """
    M, r = _chain(spec, x, y)
    v = _solve(M, r)
    d = _solve(M.T, spec.initial_dist)
    # W[s, j]: payoff of joint action j mixed over b ~ y, with continuation.
    W = _mix_over_adversary(y, spec.reward + spec.discount * _successor_mean(spec, v))
    return np.concatenate(
        [(d[:, None] * _per_player(spec, x, k, W)).ravel() for k in range(spec.n_players)]
    )


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
    is nonexpansive on the whole team vector.
    """
    S = spec.state_count
    blocks = []
    offset = 0
    for a in spec.team_sizes:
        block = z[offset : offset + S * a].reshape(S, a)
        blocks.append(_project_simplex_rows(block))
        offset += S * a
    if offset != z.size:
        raise ValueError(f"team vector has {z.size} entries, expected {offset}")
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
