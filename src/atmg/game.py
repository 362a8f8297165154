"""Tabular adversarial team Markov games.

A game couples n identically-interested team players against a single
adversary.  Only the adversary's instantaneous payoff r(s, a, b) is stored;
each team player implicitly receives -r/n, so total rewards sum to zero.
Joint team actions are flattened to one mixed-radix index with player 1
fastest-varying: a_joint = a_1 + A_1*a_2 + A_1*A_2*a_3 + ...

Transitions are stored as successor lists: row (s, a_joint, b) keeps the
indices and probabilities of its K possible next states, where K is the
widest row's support.  Grid worlds are deterministic, so K = 1 there.

Game files are JSON.  Schema "atmg-v2", which save_game writes, stores the
reward as a nested (S, A_joint, B) array and the transition as an object
with two nested (S, A_joint, B, K) arrays, "successors" (integer state
indices) and "probabilities".  Schema "atmg-v1" stores the transition as
the dense (S, A_joint, B, S) array; load_game still reads it and converts
it to successor lists.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "atmg-v2"
_DENSE_SCHEMA = "atmg-v1"

# Tolerances used by validate().
_STOCHASTIC_TOL = 1e-12
_DIST_TOL = 1e-12
# Far beyond any real payoff scale, and far enough below the float64 limit
# (1.8e308) that values, up to |r| / (1 - gamma) <= 1e16 |r| for any float
# gamma < 1, and their differences cannot overflow.
_REWARD_LIMIT = 1e150


class DegenerateRewardsError(ValueError):
    """Raised when rewards cannot be normalized because max r = min r."""


def _count(name: str, value) -> int:
    """value as an int; ValueError unless it is a whole number (a bool is not)."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class Transitions:
    """Successor lists of the transition kernel P[s, a_joint, b, s'].

    succ[s, a_joint, b, k] is a next state and prob[s, a_joint, b, k] its
    probability; both arrays are read-only with shape (S, A_joint, B, K).
    A row with fewer than K successors is padded with zero probabilities.
    Entries are summed, so a successor listed twice gets both probabilities.
    """

    succ: np.ndarray
    prob: np.ndarray
    state_count: int

    def __post_init__(self) -> None:
        succ = np.asarray(self.succ)
        if succ.dtype.kind not in "iu":
            raise ValueError(f"successor indices must be integers, got dtype {succ.dtype}")
        succ = np.ascontiguousarray(succ, dtype=np.int64)
        prob = np.ascontiguousarray(np.asarray(self.prob, dtype=np.float64))
        if succ.shape != prob.shape:
            raise ValueError(
                f"successors {succ.shape} and probabilities {prob.shape} "
                "must be arrays of one shape"
            )
        for arr in (succ, prob):
            arr.setflags(write=False)
        object.__setattr__(self, "succ", succ)
        object.__setattr__(self, "prob", prob)
        object.__setattr__(self, "state_count", _count("state_count", self.state_count))

    @classmethod
    def from_dense(cls, dense) -> Transitions:
        """Successor lists of a dense (..., S) array, successors in index order.

        Every nonzero entry is kept, NaN included, so validate() still sees
        it; zero entries of the row pad it to K.
        """
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim == 0:
            raise ValueError("transition must be an (S, A_joint, B, S) array, got a scalar")
        nonzero = dense != 0.0
        K = min(max(int(nonzero.sum(axis=-1).max(initial=0)), 1), dense.shape[-1])
        # A stable sort of the zero flags puts each row's nonzeros first.
        succ = np.argsort(~nonzero, axis=-1, kind="stable")[..., :K]
        return cls(succ, np.take_along_axis(dense, succ, axis=-1), dense.shape[-1])

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the dense tensor, (S, A_joint, B, S) for a game."""
        return self.prob.shape[:-1] + (self.state_count,)

    @property
    def nbytes(self) -> int:
        return self.succ.nbytes + self.prob.nbytes


@dataclass(frozen=True)
class GameSpec:
    """Immutable description of one game instance.

    Fields
    ------
    state_count        S
    team_sizes         (A_1, ..., A_n), the per-player action counts
    adversary_actions  B
    reward             r[s, a_joint, b], the adversary's payoff
    transition         P[s, a_joint, b, s'] as Transitions; a dense array
                       is converted on construction
    discount           gamma in [0, 1)
    initial_dist       rho, a full-support distribution over states
    """

    state_count: int
    team_sizes: tuple[int, ...]
    adversary_actions: int
    reward: np.ndarray
    transition: Transitions
    discount: float
    initial_dist: np.ndarray

    def __post_init__(self) -> None:
        # Coerce to read-only float arrays so instances can be shared freely.
        for name in ("reward", "initial_dist"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not isinstance(self.transition, Transitions):
            object.__setattr__(self, "transition", Transitions.from_dense(self.transition))
        sizes = tuple(_count("team_sizes entry", a) for a in self.team_sizes)
        object.__setattr__(self, "team_sizes", sizes)
        for name in ("state_count", "adversary_actions"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        object.__setattr__(self, "discount", float(self.discount))

    @property
    def n_players(self) -> int:
        return len(self.team_sizes)

    @cached_property
    def joint_action_count(self) -> int:
        return int(np.prod(self.team_sizes))

    @property
    def sum_team_actions(self) -> int:
        return int(sum(self.team_sizes))

    @cached_property
    def action_digits(self) -> np.ndarray:
        """(A_joint, n) table: digits[j, k] is player k's action in joint index j."""
        digits = np.empty((self.joint_action_count, self.n_players), dtype=np.int64)
        radix = 1
        for k, size in enumerate(self.team_sizes):
            digits[:, k] = (np.arange(self.joint_action_count) // radix) % size
            radix *= size
        digits.setflags(write=False)
        return digits


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(spec: GameSpec) -> list[str]:
    """Check every structural invariant; return a list of violations.

    An empty list means the game is well formed.  This never raises: it is a
    reporting operation, and each message names the offending tensor index.
    """
    problems: list[str] = []
    S, B = spec.state_count, spec.adversary_actions
    A = spec.joint_action_count

    if S < 1:
        problems.append(f"state_count must be positive, got {S}")
    if not spec.team_sizes or any(a < 1 for a in spec.team_sizes):
        problems.append(f"team_sizes must be positive integers, got {spec.team_sizes}")
    if B < 1:
        problems.append(f"adversary_actions must be positive, got {B}")
    if not 0.0 <= spec.discount < 1.0:
        problems.append(f"discount must lie in [0, 1), got {spec.discount}")
    if problems:
        return problems

    if spec.reward.shape != (S, A, B):
        problems.append(
            f"reward shape {spec.reward.shape} != expected {(S, A, B)}"
        )
    if spec.transition.shape != (S, A, B, S):
        problems.append(
            f"transition shape {spec.transition.shape} != expected {(S, A, B, S)}"
        )
    if spec.initial_dist.shape != (S,):
        problems.append(
            f"initial_dist shape {spec.initial_dist.shape} != expected {(S,)}"
        )
    if problems:
        return problems

    if not np.isfinite(spec.reward).all():
        bad = np.argwhere(~np.isfinite(spec.reward))[0]
        problems.append(f"reward has non-finite entry at (s={bad[0]}, a_joint={bad[1]}, b={bad[2]})")
    elif (peak := float(np.abs(spec.reward).max())) > _REWARD_LIMIT:
        problems.append(f"reward magnitude {peak:.3g} exceeds {_REWARD_LIMIT:g}")
    succ, prob = spec.transition.succ, spec.transition.prob

    def entry(s, a, b, k) -> str:
        return f"(s={s}, a_joint={a}, b={b}, s'={succ[s, a, b, k]})"

    if not np.isfinite(prob).all():
        problems.append(
            f"transition has non-finite entry at {entry(*np.argwhere(~np.isfinite(prob))[0])}"
        )
    for s, a, b, k in np.argwhere((succ < 0) | (succ >= S))[:5]:
        problems.append(
            f"transition successor {entry(s, a, b, k)} lies outside [0, {S})"
        )
    for s, a, b, k in np.argwhere(prob < 0.0)[:5]:
        problems.append(
            f"transition entry {entry(s, a, b, k)} is negative: {prob[s, a, b, k]:.17g}"
        )

    row_sums = prob.sum(axis=3)
    bad_rows = np.abs(row_sums - 1.0) > _STOCHASTIC_TOL
    if bad_rows.any():
        for s, a, b in np.argwhere(bad_rows)[:5]:
            problems.append(
                f"transition row (s={s}, a_joint={a}, b={b}) sums to "
                f"{row_sums[s, a, b]:.17g}, expected 1 within {_STOCHASTIC_TOL:g}"
            )

    rho = spec.initial_dist
    if not np.isfinite(rho).all():
        problems.append("initial_dist has non-finite entries")
    else:
        for (s,) in np.argwhere(rho <= 0.0)[:5]:
            problems.append(
                f"initial_dist is not full support: rho(s={s}) = {rho[s]:.17g} <= 0"
            )
        total = float(rho.sum())
        if abs(total - 1.0) > _DIST_TOL:
            problems.append(
                f"initial_dist sums to {total:.17g}, expected 1 within {_DIST_TOL:g}"
            )

    return problems


# ---------------------------------------------------------------------------
# Reward normalization
# ---------------------------------------------------------------------------

def normalize_rewards(
    spec: GameSpec, delta: float = 0.05
) -> tuple[GameSpec, float, float]:
    """Affinely map rewards into (0, 1), keeping a margin delta at each end.

    r' = (r - min r + delta) / (max r - min r + 2 delta)

    Returns (new_spec, shift, scale) with r' = (r + shift) * scale, so that
    gap reports computed on the normalized game can be converted back to the
    original reward units by dividing by `scale`.  The map is an additive
    shift followed by a positive scaling, hence strategically neutral: it
    preserves best responses, equilibria, and the ordering of deviations.

    Raises ValueError unless delta is finite and >= 0, and
    DegenerateRewardsError when all rewards are equal, before or after the
    map (a delta that swamps the reward span rounds them all together).
    """
    if not (np.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"reward margin delta must be finite and >= 0, got {delta}")
    lo = float(spec.reward.min())
    hi = float(spec.reward.max())
    if hi == lo:
        raise DegenerateRewardsError(
            f"all rewards equal {lo:.17g}; the game is strategically trivial"
        )
    denom = hi - lo + 2.0 * delta
    scale = 1.0 / denom
    shift = delta - lo
    reward = (spec.reward + shift) / denom
    if reward.min() == reward.max():
        raise DegenerateRewardsError(
            f"margin delta={delta:.6g} swamps the reward span {hi - lo:.6g}: "
            "every normalized reward rounds to the same value"
        )
    new_spec = GameSpec(
        state_count=spec.state_count,
        team_sizes=spec.team_sizes,
        adversary_actions=spec.adversary_actions,
        reward=reward,
        transition=spec.transition,
        discount=spec.discount,
        initial_dist=spec.initial_dist,
    )
    return new_spec, shift, scale


# ---------------------------------------------------------------------------
# Grid-world generator
# ---------------------------------------------------------------------------

def grid_world(
    n_grid: int, shift_delta: float = 0.05, discount: float = 0.9
) -> GameSpec:
    """Two team agents and an adversary on an n x n grid with two landmarks.

    State = (pos_1, pos_2, pos_adv) plus one absorbing terminal state, for
    n^6 + 1 states in total.  Every agent has the 4 cardinal moves (up, down,
    left, right), clamped at walls; all three move synchronously, and team
    agents may share a cell.  Landmarks sit at the opposite corners (0, 0)
    and (n-1, n-1).

    Termination is evaluated on arrival.  If after a synchronous move the
    team covers both landmarks (one agent on each), the game transitions to
    the terminal state with raw adversary reward -1.  Otherwise, if the
    adversary has reached either landmark, the transition is terminal with
    raw reward +1.  A simultaneous arrival is therefore won by the team.
    All other steps carry reward 0, as does the terminal self-loop.

    Raw rewards {-1, 0, +1} are passed through normalize_rewards with margin
    shift_delta, which maps 0 to exactly 0.5; the absorbed process is worth
    the midpoint to both sides.  The initial distribution is uniform over
    all states (terminal included) so that it has full support.
    """
    if n_grid < 2:
        raise ValueError(f"n_grid must be at least 2, got {n_grid}")

    cells = n_grid * n_grid
    live = cells**3          # non-terminal states
    S = live + 1
    terminal = S - 1
    landmark_a = 0
    landmark_b = cells - 1

    # moved[c, m]: cell reached from cell c by move m, clamped at the walls.
    # Moves: 0 = up (row-1), 1 = down (row+1), 2 = left (col-1), 3 = right.
    rows, cols = np.divmod(np.arange(cells), n_grid)
    moved = np.empty((cells, 4), dtype=np.int64)
    moved[:, 0] = np.maximum(rows - 1, 0) * n_grid + cols
    moved[:, 1] = np.minimum(rows + 1, n_grid - 1) * n_grid + cols
    moved[:, 2] = rows * n_grid + np.maximum(cols - 1, 0)
    moved[:, 3] = rows * n_grid + np.minimum(cols + 1, n_grid - 1)

    A_joint = 16             # two team players, 4 actions each, player 1 fastest
    B = 4
    reward = np.zeros((S, A_joint, B))
    # Every move is deterministic: one successor per (s, a_joint, b).  The
    # terminal state's rows keep this fill, a self-loop.
    succ = np.full((S, A_joint, B, 1), terminal)

    s_all = np.arange(live)
    p1 = s_all % cells
    p2 = (s_all // cells) % cells
    pa = s_all // (cells * cells)

    for a1 in range(4):
        for a2 in range(4):
            j = a1 + 4 * a2
            q1 = moved[p1, a1]
            q2 = moved[p2, a2]
            covered = ((q1 == landmark_a) & (q2 == landmark_b)) | (
                (q1 == landmark_b) & (q2 == landmark_a)
            )
            for b in range(4):
                qa = moved[pa, b]
                adv_arrived = (qa == landmark_a) | (qa == landmark_b)
                team_win = covered
                adv_win = adv_arrived & ~covered
                done = team_win | adv_win
                nxt = np.where(done, terminal, q1 + cells * q2 + cells * cells * qa)
                succ[s_all, j, b, 0] = nxt
                reward[s_all[team_win], j, b] = -1.0
                reward[s_all[adv_win], j, b] = 1.0

    raw = GameSpec(
        state_count=S,
        team_sizes=(4, 4),
        adversary_actions=B,
        reward=reward,
        transition=Transitions(succ, np.ones(succ.shape), S),
        discount=discount,
        initial_dist=np.full(S, 1.0 / S),
    )
    normalized, _, _ = normalize_rewards(raw, delta=shift_delta)
    return normalized


# ---------------------------------------------------------------------------
# Serialization ("atmg-v2"; "atmg-v1" is read too)
# ---------------------------------------------------------------------------

def save_game(spec: GameSpec, path) -> None:
    """Write `spec` to a JSON game file (schema "atmg-v2").

    Floats are serialized via Python's repr, which carries 17 significant
    digits and round-trips bit-identically.
    """
    doc = {
        "schema": SCHEMA_VERSION,
        "states": spec.state_count,
        "team_sizes": list(spec.team_sizes),
        "adversary_actions": spec.adversary_actions,
        "gamma": spec.discount,
        "rho": spec.initial_dist.tolist(),
        "reward": spec.reward.tolist(),
        "transition": {
            "successors": spec.transition.succ.tolist(),
            "probabilities": spec.transition.prob.tolist(),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_game(path) -> GameSpec:
    """Load an "atmg-v2" or "atmg-v1" game file; raises ValueError on bad schema."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")
    schema = doc.get("schema")
    if schema not in (SCHEMA_VERSION, _DENSE_SCHEMA):
        raise ValueError(
            f"{path}: unsupported schema {schema!r}, "
            f"expected {SCHEMA_VERSION!r} or {_DENSE_SCHEMA!r}"
        )
    required = ("states", "team_sizes", "adversary_actions", "gamma", "rho", "reward", "transition")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"{path}: missing fields {missing}")
    try:
        if schema == _DENSE_SCHEMA:
            transition = np.asarray(doc["transition"], dtype=np.float64)
        else:
            transition = Transitions(
                doc["transition"]["successors"], doc["transition"]["probabilities"], doc["states"]
            )
        return GameSpec(
            state_count=doc["states"],
            team_sizes=tuple(doc["team_sizes"]),
            adversary_actions=doc["adversary_actions"],
            reward=np.asarray(doc["reward"], dtype=np.float64),
            transition=transition,
            discount=doc["gamma"],
            initial_dist=np.asarray(doc["rho"], dtype=np.float64),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed game data: {exc}") from exc
