"""Exact evaluation machinery for one game instance.

Everything here is model-based and deterministic: induced Markov chains,
value vectors by exact linear solve (a chain's depth of sweeps when it is
acyclic, the count serving its visitation solve too; dense on a cyclic one),
discounted visitation measures, best responses by policy iteration, exact
policy gradients under the direct parametrization, Euclidean projection onto
the product of simplices, and the Lipschitz/smoothness constants of the
best-response value function.
Transition contractions read the game's successor lists: a chain is two (S, n)
row lists of successors and weights taken from them, and a gather gives
expected next-state values; neither multiplies by weights of exactly 1.0,
passed as None (a certain game's moves, a pure y's support).  No (S, ., S)
table is built, nor an S x S matrix unless a chain has no depth.
Every chain, and every table taken against an adversary policy, reads the
skeleton of its support, kept on the GameSpec.  Only the adversary's backup,
which maximizes over all B actions, gathers an (S, J, B) table, of next values,
which the team weights contract; the gradient reuses its chain and reads
y_star's slice of its skeleton.  Each team policy is evaluated once across the
pipeline: its best response (y_star, v_hat) is memoized on the TeamPolicy for
one GameSpec object, never with its chain, and adversary_best_response,
policy_gradient and value_rho read it.

Policies are stored directly as probability tables.  The team's flattened
coordinate vector concatenates the per-player blocks in player order, each
block row-major over (state, action); all gradient and projection routines
share that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .game import GameSpec

_POLICY_SUM_TOL = 1e-12

# Best responses treat two actions as tied when their Q-values differ by at
# most this fraction of the state's largest |Q|.  That is far above the
# round-off of an exact evaluation, so round-off neither breaks a tie nor
# makes policy iteration cycle.
_TIE_RTOL = 1e-12

# A chain deeper than this is solved densely.  Per sweep, a step of _depth and a sweep
# of both solves took 30 us at S = 200 and 50 us at S = 730 (2-core host, one BLAS
# thread): 32 cost 1.0 and 1.6 ms, the dense pair 1.5 and 30 ms.  Grid worlds take 1-3.
_MAX_LEVELS = 32


# ---------------------------------------------------------------------------
# Policy containers
# ---------------------------------------------------------------------------

def _own(arr, dtype=np.float64) -> np.ndarray:
    """A read-only copy of arr, so no caller's array can change it."""
    arr = np.array(arr, dtype=dtype, order="C")
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


@dataclass(frozen=True)
class AdversaryPolicy:
    """Adversary probability table of shape (S, B)."""

    probs: np.ndarray
    # (acts, p) of _support, read-only; filled on first use or by _skeleton.
    _support: tuple | None = field(default=None, init=False, compare=False, repr=False)

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
    tables = [(f"block {k}", x.blocks[k], (S, a)) for k, a in enumerate(spec.team_sizes)]
    if y is not None:
        tables.append(("adversary policy", y.probs, (S, spec.adversary_actions)))
    for name, table, shape in tables:
        if table.shape != shape:
            raise ValueError(f"{name} has shape {table.shape}, expected {shape}")
        if not (table >= 0.0).all() or np.abs(table.sum(axis=1) - 1.0).max() > _POLICY_SUM_TOL:
            raise ValueError(f"{name} is not a per-state distribution")


# ---------------------------------------------------------------------------
# Induced chains and marginalization
# ---------------------------------------------------------------------------

def _gathered(spec: GameSpec, x: TeamPolicy) -> list[np.ndarray]:
    """Each player's (S, J) table: its block read at its digit of each joint action."""
    digits = spec.action_digits
    return [block[:, digits[:, k]] for k, block in enumerate(x.blocks)]


def _product(spec: GameSpec, gathered: list[np.ndarray], skip: int | None = None) -> np.ndarray:
    """(S, J) joint team-action weights: the _gathered tables multiplied in
    player order, player skip left out (its action free)."""
    factors = [table for k, table in enumerate(gathered) if k != skip]
    w = factors[0] if factors else np.ones((spec.state_count, spec.joint_action_count))
    for factor in factors[1:]:
        w = w * factor
    return w


# Contractions over the team and adversary axes are matmuls in a fixed
# order; einsum with optimize=True would search for a contraction path on
# every call, which costs more than the arithmetic on small games.

def _support(y: AdversaryPolicy):
    """(acts, p): each row's actions of positive probability in index order,
    padded to the widest row with actions of probability zero, and p theirs,
    None if all are 1.0 (a pure y).  Sorted once and kept, read-only, in y's memo."""
    if y._support is None:
        zero = y.probs == 0.0
        acts = np.argsort(zero, axis=1, kind="stable")[:, : np.count_nonzero(y.probs, 1).max()]
        p = np.take_along_axis(y.probs, acts, axis=1)
        pure = acts.shape[1] == 1 and (p == 1.0).all()
        object.__setattr__(y, "_support", (_own(acts, np.intp), None if pure else _own(p)))
    return y._support


def _successor_mean(succ: np.ndarray, prob: np.ndarray | None, v: np.ndarray) -> np.ndarray:
    """sum_k prob[..., k] v(succ[..., k]) over successor lists; the game's own give (S, J, B).
    A certain game's prob, all exactly 1.0, is passed as None and not multiplied in."""
    if prob is None:
        return v[succ[..., 0]]
    return (prob * v[succ]).sum(axis=-1)


def _next_mean(spec: GameSpec, v: np.ndarray) -> np.ndarray:
    """(S, J, B) table sum_{s'} P(s' | s, j, b) v(s'), a fresh array."""
    T = spec.transition
    return _successor_mean(T.succ, None if T.certain else T.prob, v)


def _adversary_q(spec: GameSpec, w: np.ndarray, r: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """(S, B) backup r + gamma w @ nxt of the adversary against the team's (S, J)
    weights w, r = w @ spec.reward and nxt = _next_mean(spec, v)."""
    return r + spec.discount * (w[:, None, :] @ nxt)[:, 0, :]


def bellman_slacks(spec: GameSpec, x: TeamPolicy, v: np.ndarray):
    """(slack, deviation): the (S, B) Bellman slack r(s, w, b) + gamma E[v(next)] - v(s) of x's
    weights w, and the (S, sum_k A_k, B) slacks of each (k, a), k's teammates' product masked to
    the joint actions where k plays a (x's own w where k's block is pure at a), all backed up by
    _adversary_q at v, less v, from one gather of x and one _next_mean."""
    gathered, nxt = _gathered(spec, x), _next_mean(spec, v)

    def slack(w):
        return _adversary_q(spec, w, (w[:, None, :] @ spec.reward)[:, 0, :], nxt) - v[:, None]

    deviation = np.stack([slack(_product(spec, gathered, k) * mask) for k, masks
                          in enumerate(spec.action_masks) for mask in masks.T], axis=1)
    return slack(_product(spec, gathered)), deviation


def _on_support(spec: GameSpec, acts: np.ndarray, p, v: np.ndarray | None = None):
    """(S, J) table sum_i p[s, i] q(s, j, acts[s, i]), q the (S, J, B) r + gamma E[v] (spec.reward
    for None), from the (S, m, J) slice on acts' _skeleton, for a None p the slice itself:
    a pure y's column bit for bit; a mixed y's may differ in the last bits from q @ y.probs."""
    cols, prob, *_, q = _skeleton(spec, acts)
    if v is not None:
        q = q + spec.discount * _successor_mean(cols.reshape(*q.shape, -1), prob, v)
    return q[:, 0] if p is None else np.einsum("si,sij->sj", p, q)


def _player_q(spec: GameSpec, others: np.ndarray, k: int, mixed: np.ndarray) -> np.ndarray:
    """(S, A_k) table Qbar_k(s, a): payoff plus discounted continuation v
    when player k pins action a and everyone else follows (x_{-k}, y).

        Qbar_k(s,a) = E[ r(s,(a;a_{-k}),b) + gamma sum_{s'} P(s'|...) v(s') ]

    others is _product(spec, _gathered(spec, x), k) and mixed is y's (S, J)
    _on_support table at v.
    """
    return (others * mixed) @ spec.action_masks[k]


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

_SKELETONS = 4  # kept per game; a short grid_world(3) run and its certificate use 3


def _skeleton(spec: GameSpec, acts: np.ndarray) -> tuple:
    """(cols, prob, loops, looped, depth, y, reward) of the (S, m) adversary support
    acts: the (S, m J K) successors and (S, m, J, K) probabilities (None on a certain
    game, not gathered) of each row's (i, j, k), the self-loop mask and its rows, the
    full pattern's _depth, if m = 1 the one-hot y, its _support memo (a copy of acts,
    None) set so it is never sorted, and the read-only (S, m, J) rewards."""
    cache, key = spec._skeletons, acts.tobytes()
    skeleton = cache.pop(key, None)
    if skeleton is None:
        if len(cache) == _SKELETONS:
            del cache[next(iter(cache))]
        T, states = spec.transition, np.arange(spec.state_count)[:, None]
        cols = T.succ[states, :, acts].reshape(states.size, -1)
        prob, loops = None if T.certain else T.prob[states, :, acts], cols == states
        y = None
        if acts.shape[1] == 1:
            y = AdversaryPolicy(np.eye(spec.adversary_actions)[acts[:, 0]])
            object.__setattr__(y, "_support", (_own(acts, np.intp), None))
        skeleton = (cols, prob, loops, np.flatnonzero(loops.any(axis=1)),
                    _depth(cols, ~loops if prob is None else prob.reshape(cols.shape) * ~loops), y,
                    _own(spec.reward[states, :, acts]))
    cache[key] = skeleton
    return skeleton


def _chain_rows(spec: GameSpec, w: np.ndarray, acts: np.ndarray, p: np.ndarray | None = None):
    """M = I - gamma P of the chain of the team's (S, J) weights w against acts[s, i]
    played with probability p[s, i] (None: not multiplied in), as (cols, off, diag,
    gamma, depth): P off the diagonal, M's diagonal (1 but on the self-loop rows of
    acts' _skeleton) and its _depth, else the chain's own: extra sweeps keep z exact."""
    cols, prob, loops, looped, depth, *_ = _skeleton(spec, acts)
    wts = w[:, None, :] if p is None else w[:, None, :] * p[:, :, None]
    wts = (wts if prob is None else wts[..., None] * prob).reshape(cols.shape)
    off, diag = np.where(loops, 0.0, wts), np.ones(cols.shape[0])
    diag[looped] = 1.0 - spec.discount * np.where(loops[looped], wts[looped], 0.0).sum(axis=1)
    return cols, off, diag, spec.discount, _depth(cols, off) if depth is None else depth


def _depth(cols: np.ndarray, off: np.ndarray) -> int | None:
    """The sweeps that make a solve on the row lists exact (0 if no row has an off-diagonal
    entry), or None on a cycle (self-loops aside) or past _MAX_LEVELS.  The rows not yet
    exact only shrink, so once their count stalls the rest is cyclic."""
    edges = off != 0.0
    blocked, last = edges.any(axis=1), -1
    for depth in range(_MAX_LEVELS + 1):
        count = np.count_nonzero(blocked)
        if count == 0 or count == last:
            return None if count else depth
        blocked, last = (edges & blocked[cols]).any(axis=1), count
    return None


def _solve(M, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """The one value solver: z with M z = b (M' z = b with transpose) for
    M = I - gamma P from _chain_rows.

    With a depth, z = b / diag is exact on rows with no off-diagonal weight, and each of
    depth sweeps z = (b + gamma off z) / diag, off z gathered along the rows (scattered
    for M'), makes exact the rows that reach only exact ones.  With None, M built densely
    by one bincount goes to np.linalg.solve.  Either matrix is strictly diagonally
    dominant (by rows or by columns) for gamma < 1, so neither solve can fail; the
    residual is checked against 1e-10 * S anyway, in units of max |b| once that exceeds
    1, since round-off grows with the rewards' magnitude.  It takes a fresh carry at the
    returned z: the last sweep's carry makes diag z - carry - b round-off by construction.
    """
    cols, off, diag, gamma, depth = M
    S = b.size

    def carried(z):  # gamma off z
        if transpose:
            return gamma * np.bincount(cols.ravel(), (off * z[:, None]).ravel(), S)
        return gamma * (off * z[cols]).sum(axis=1)

    if depth is None:
        flat = (np.arange(S)[:, None] * S + cols).ravel()
        dense = np.bincount(flat, (-gamma * off).ravel(), S * S).reshape(S, S)
        dense.flat[:: S + 1] = diag
        z = np.linalg.solve(dense.T if transpose else dense, b)
    else:
        z = b / diag
        for _ in range(depth):
            z = (b + carried(z)) / diag
    residual = float(np.abs(diag * z - carried(z) - b).max())
    if residual > 1e-10 * S and residual > 1e-10 * S * float(np.abs(b).max()):
        raise RuntimeError(f"policy evaluation residual {residual:g} is out of tolerance")
    return z


def value_vector(spec: GameSpec, x: TeamPolicy, y: AdversaryPolicy) -> np.ndarray:
    """Exact policy evaluation: solve (I - gamma P(x,y)) v = r(x,y).  The
    chain's rows hold only the actions y plays, weighed on their _skeleton; r sums
    over all B, since a sum over the support alone could move a mixed y's bits."""
    w = _product(spec, _gathered(spec, x))
    M = _chain_rows(spec, w, *_support(y))
    return _solve(M, ((w[:, None, :] @ spec.reward)[:, 0, :] * y.probs).sum(axis=1))


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
    """(best, slack): per row, the lowest index within slack = _TIE_RTOL * max |q| of the max,
    reduced on an action-major copy (numpy is slow on short rows); max and argmax round nothing."""
    qt = np.ascontiguousarray(q.T)
    slack = _TIE_RTOL * np.abs(qt).max(axis=0)
    return np.argmax(qt >= qt.max(axis=0) - slack, axis=0), slack


def _policy_iteration(spec: GameSpec, r: np.ndarray, q_of, rows_of, start=None):
    """Maximize one agent's MDP over its deterministic policies.

    r is the agent's (S, U) table of one-step payoffs, and q_of(v) is r
    plus gamma times the expected continuation value v;
    rows_of(policy) is the _chain_rows of the chain when the agent plays
    action policy[s] in state s.  Howard's policy iteration starts from
    start, an (S,) action array, when given; else from the greedy policy
    of one value-iteration step from v = 0, q_of(max_u r), which sees a
    payoff one step ahead where the rewards alone do not.  It evaluates the
    current policy exactly and moves a state to its greedy action only
    where that gains more than the tie tolerance, so a tie keeps the
    current action; each move raises the value, so no policy repeats and
    the loop ends once no state gains.  Returns (v, policy, M): the exact
    value of the returned deterministic policy, optimal up to ties from any
    start, and M = rows_of(policy).  The last q_of call is at the returned v.
    """
    states = np.arange(spec.state_count)
    policy = start if start is not None else _greedy(q_of(np.ascontiguousarray(r.T).max(axis=0)))[0]
    while True:
        M = rows_of(policy)
        v = _solve(M, r[states, policy])
        q = q_of(v)
        best, slack = _greedy(q)
        gains = q[states, best] - q[states, policy] > slack
        if not gains.any():
            return v, policy, M
        policy = np.where(gains, best, policy)


def _recall(spec: GameSpec, x: TeamPolicy):
    """(y_star, v_hat) from x's memo, or None unless it was filled for spec."""
    memo = x._memo
    return memo[1:] if memo is not None and memo[0] is spec else None


def _adversary_iteration(spec: GameSpec, x: TeamPolicy, gathered: list[np.ndarray], start=None):
    """(y_star, v_hat, _chain_rows of the chain (x, y_star)) of the adversary's
    best response, from x's _gathered tables, policy iteration on the
    _adversary_q backup starting at pure start's _support if given.  Fills x's
    memo, y_star from its _skeleton; on a memo hit start is unread and only the
    rows are rebuilt."""
    w, memo, M = _product(spec, gathered), _recall(spec, x), None
    if not memo:
        r = (w[:, None, :] @ spec.reward)[:, 0, :]
        v_hat, greedy, M = _policy_iteration(
            spec, r, lambda v: _adversary_q(spec, w, r, _next_mean(spec, v)),
            lambda u: _chain_rows(spec, w, u[:, None]),
            None if start is None else _support(start)[0][:, 0])
        v_hat.setflags(write=False)
        memo = _skeleton(spec, greedy[:, None])[5], v_hat
        object.__setattr__(x, "_memo", (spec, *memo))
    return *memo, M or _chain_rows(spec, w, _support(memo[0])[0])


def adversary_best_response(spec: GameSpec, x: TeamPolicy, start: AdversaryPolicy | None = None):
    """Best adversary policy against a fixed team policy x.

    The adversary faces the single-agent MDP with rewards r(s, x, b) and
    transitions P(s' | s, x, b); policy iteration gives a deterministic
    optimal policy y_star and its exact value vector v_hat, so
    rho' v_hat = phi(x) = max_y V_rho(x, y).  start, a pure adversary
    policy such as an earlier y_star, is where policy iteration begins; the
    answer is exact from any start, and on a tie keeps start's action.

    Returns (y_star, v_hat), kept in x's memo: the same objects (v_hat
    read-only) on every call with this spec, whatever start.
    """
    return _recall(spec, x) or _adversary_iteration(spec, x, _gathered(spec, x), start)[:2]


def team_player_best_response(spec: GameSpec, k: int, x_minus_k: TeamPolicy, y: AdversaryPolicy):
    """Player k's best deviation while everyone else stays put.

    Team members are paid -r/n, so the deviating player faces the MDP over
    its own A_k actions that MINIMIZES the adversary's value; policy
    iteration maximizes its negation.  x_minus_k supplies the frozen
    teammates; its block k is ignored.  Returns the deterministic table
    (S, A_k) and the minimized value rho' v.  The teammates' weights and y's
    support are built once; each chain masks the weights with k's policy, and
    each payoff or continuation is y's _on_support table: no (S, J, B) table.
    """
    others = _product(spec, _gathered(spec, x_minus_k), k)
    digit, support = spec.action_digits[:, k], _support(y)
    v_max, greedy, _ = _policy_iteration(
        spec,
        -_player_q(spec, others, k, _on_support(spec, *support)),
        lambda v: -_player_q(spec, others, k, _on_support(spec, *support, -v)),
        lambda policy: _chain_rows(spec, others * (digit == policy[:, None]), *support),
    )
    return np.eye(spec.team_sizes[k])[greedy], -float(spec.initial_dist @ v_max)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def policy_gradient(spec: GameSpec, x: TeamPolicy, start: AdversaryPolicy | None = None):
    """The adversary's best response to x and the team gradient against it.

    Returns (y_star, v_hat, grad): y_star and v_hat as from
    adversary_best_response(spec, x, start), and the exact gradient of
    V_rho(x, y_star) in all team coordinates,

        dV/dx_{k,s,a} = d(s) * Qbar_k(s, a)

    with d the unnormalized visitation of the chain (x, y_star), taken by
    one transposed solve on the rows policy iteration ended with,
    and Qbar_k the table of _player_q at v_hat, all from one gather of the
    blocks.  On a memo hit only y_star's chain rows and _on_support table are built.
    """
    gathered = _gathered(spec, x)
    y_star, v_hat, M = _adversary_iteration(spec, x, gathered, start)
    d = _solve(M, spec.initial_dist, transpose=True)
    mixed = _on_support(spec, *_support(y_star), v_hat)
    grad = np.concatenate([
        d[:, None] * _player_q(spec, _product(spec, gathered, k), k, mixed)
        for k in range(spec.n_players)
    ], axis=None)
    return y_star, v_hat, grad


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def _project_simplex_rows(mat: np.ndarray) -> np.ndarray:
    """Project each row of `mat` onto the probability simplex: max(row - tau, 0), where, with u
    the row sorted in descending order and css its cumulative sum, tau = (css_rho - 1) / rho at
    the largest rho with u_rho above it (rho = d if rounding leaves none).  An action-major copy
    (numpy is slow on short rows), sorted by an odd-even transposition network and scanned for
    each row's last tau, gives the bits of the row-wise formula."""
    d = mat.shape[1]
    u = mat.T.copy()
    for r in range(d):
        for i in range(r % 2, d - 1, 2):
            hi, lo = u[i], u[i + 1]
            top = np.maximum(hi, lo)
            np.minimum(hi, lo, out=lo)
            hi[...] = top
    css = list(accumulate(u))
    tau = (css[-1] - 1.0) / d
    for r in range(d):
        theta = (css[r] - 1.0) / (r + 1)
        tau = np.where(u[r] > theta, theta, tau)
    out = mat - tau[:, None]
    return np.maximum(out, 0.0, out=out)


def project_product_simplex(spec: GameSpec, z: np.ndarray) -> TeamPolicy:
    """Euclidean projection of flat team coordinates onto the product of simplices.

    Each (player, state) block is projected independently, so the operator
    is nonexpansive on the whole team vector; one call projects the blocks
    of all players with the same action count.  Raises ValueError if rounding
    (of a huge step's entries) leaves a row off the simplex by more than _POLICY_SUM_TOL.
    """
    blocks = _block_views(spec, z)
    for a in set(spec.team_sizes):
        players = [k for k, size in enumerate(spec.team_sizes) if size == a]
        rows = _project_simplex_rows(np.concatenate([blocks[k] for k in players]))
        if not np.abs(rows.sum(axis=1) - 1.0).max() <= _POLICY_SUM_TOL:
            raise ValueError("a projected row is off the simplex")
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
