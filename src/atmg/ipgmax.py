"""Independent projected policy gradient against a best-responding adversary.

Each iteration gets the exact adversary best response to the current team
policy, then every team player takes one projected gradient step on its own
simplex block, all simultaneously.  A near-stationary iterate is then
selected, either by scanning proximal gaps or by drawing a few indices at
random; both fix their candidates before the loop, so the trace keeps only
those iterates and its memory does not grow with the iteration count.

The proximal machinery evaluates the Moreau envelope of the best-response
value phi(x) = max_y V_rho(x, y) at regularization 1/(2 ell): the prox
point minimizes psi(x') = phi(x') + ell ||x - x'||^2, and the distance
||x - prox(x)|| is the near-stationarity measure everything downstream is
calibrated against.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .game import GameSpec, _count
from .mdp import (
    _POLICY_SUM_TOL,
    TeamPolicy,
    adversary_best_response,
    check_policies,
    joint_policy_vector,
    policy_gradient,
    project_product_simplex,
    smoothness_constants,
    uniform_team_policy,
)

log = logging.getLogger(__name__)

SELECTION_MODES = ("prox", "random", "none")

# prox_point stops once an iterate moves less than PROX_TOL, or after
# PROX_MAX_ITER steps.
PROX_TOL = 1e-7
PROX_MAX_ITER = 400

# run refuses more iterations than this, before allocating its trace.
MAX_ITERS = 10**7


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


@dataclass
class IpgmaxConfig:
    """Knobs for one run: eta and iters must be set.

    iterate_selection="none" skips selection, and the trace then keeps
    only x(0) and x(T).
    """

    eta: float | None = None
    iters: int | None = None
    iterate_selection: str = "prox"
    delta: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        if self.iterate_selection not in SELECTION_MODES:
            raise ValueError(f"unknown iterate_selection {self.iterate_selection!r}")
        if self.eta is None or self.iters is None:
            raise ValueError("a run requires eta and iters (--eta, --iters)")
        # Counts must be whole numbers, and no setting may be a boolean:
        # neither is truncated.  `not 0 <= v < inf` also catches NaN.
        if _count("iters", self.iters) < 1:
            raise ValueError(f"iters must be at least 1, got {self.iters}")
        if _count("seed", self.seed) < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        for name in ("eta", "delta"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not 0.0 <= self.eta < math.inf:
            raise ValueError(f"eta must be finite and nonnegative, got {self.eta}")
        _check_delta(self.delta)


@dataclass
class RunTrace:
    """Everything one run produced.

    candidates holds the trace indices iterate selection scores, fixed by
    run before its loop (selection_candidates): in scoring order, repeated
    random draws kept, none for iterate_selection="none".  policies holds
    x(t) for each t in kept, which lists 0, T and the candidates in
    ascending order; no other iterate or adversary policy is kept, since
    the loop's y(t) is the memoized best response to x(t-1).  phi[t] is
    the best-response value of x(t) for every t, including t = T, whose
    entry costs one extra best-response solve after the loop unless the
    iterate stopped moving.  frob_norms[t] is the Frobenius norm of the
    consecutive joint-policy difference, zero at t = 0 by convention; at
    t = 1 only the team part can move since there is no previous adversary
    policy.  prox_gaps holds each scored candidate's proximal gap; indices
    that hold the same policy object, as the copied fixed tail does, share
    one evaluation.  Iterate selection sets t_star; x_hat is x(t_star).
    """

    policies: list[TeamPolicy]
    candidates: list[int]
    phi: np.ndarray
    frob_norms: np.ndarray
    prox_gaps: dict[int, float] = field(default_factory=dict)
    t_star: int | None = None

    @property
    def iterations(self) -> int:
        return len(self.phi) - 1

    @property
    def kept(self) -> list[int]:
        return sorted({0, self.iterations, *self.candidates})

    @property
    def x_hat(self) -> TeamPolicy | None:
        """The selected iterate, None before selection."""
        return None if self.t_star is None else self.policies[self.kept.index(self.t_star)]


# ---------------------------------------------------------------------------
# Schedules: the paper's (eta, T) for a target epsilon, reported, not run
# ---------------------------------------------------------------------------

def _squared(epsilon: float) -> float:
    if isinstance(epsilon, (bool, np.bool_)) or not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    try:  # a Python float raises on overflow where numpy's power only warns
        return float(epsilon) ** 2
    except OverflowError:
        return math.inf


def _derived_step(epsilon: float, eta: float) -> float:
    """eta as a schedule derived it from epsilon, refused unless finite and positive."""
    if not 0.0 < eta < math.inf:
        size = "small" if eta == 0.0 else "large"
        raise ValueError(f"epsilon = {epsilon:g} is too {size}: it gives the step eta = {eta:g}")
    return float(eta)


def schedule_theorem(spec: GameSpec, epsilon: float) -> tuple[float, int]:
    """Step size and iteration count with the full worst-case constants.

        eta = eps^2 (1-gamma)^9 / (32 S^4 D^2 (sum A_k + B)^3)
        T   = ceil( 512 S^8 D^4 (sum A_k + B)^4 / (eps^4 (1-gamma)^12) )

    with D = D_bar from smoothness_constants.  T is exact big-integer
    arithmetic: it overflows float range long before it becomes runnable.
    """
    D = smoothness_constants(spec).D_bar
    S = spec.state_count
    total = spec.sum_team_actions + spec.adversary_actions
    one_minus = 1.0 - spec.discount
    eta = _squared(epsilon) * one_minus**9 / (32.0 * S**4 * D**2 * total**3)
    T_exact = (
        512
        * Fraction(S) ** 8
        * Fraction(D) ** 4
        * Fraction(total) ** 4
        / (Fraction(epsilon) ** 4 * Fraction(one_minus) ** 12)
    )
    return _derived_step(epsilon, eta), int(math.ceil(T_exact))


def schedule_proposition(spec: GameSpec, epsilon: float) -> tuple[float, int]:
    """Dimension-light schedule:

        eta = 2 eps^2 (1-gamma)
        T   = ceil( (1-gamma)^4 / (8 eps^4 (sum A_k + B)^2) )
    """
    total = spec.sum_team_actions + spec.adversary_actions
    one_minus = 1.0 - spec.discount
    eta = 2.0 * _squared(epsilon) * one_minus
    T_exact = Fraction(one_minus) ** 4 / (
        8 * Fraction(epsilon) ** 4 * Fraction(total) ** 2
    )
    return _derived_step(epsilon, eta), max(1, int(math.ceil(T_exact)))


# ---------------------------------------------------------------------------
# The main loop
# ---------------------------------------------------------------------------

def run(spec: GameSpec, x0: TeamPolicy | None, config: IpgmaxConfig) -> RunTrace:
    """Run T = config.iters projected-gradient steps of size eta = config.eta
    from x0 (uniform when None).

    Iteration t computes y(t), the best response to x(t-1), then moves all
    players at once:

        x_k(t) = proj( x_k(t-1) - eta * grad_k V_rho(x(t-1), y(t)) )

    Raises ValueError when config asks for more than MAX_ITERS
    iterations, before anything is allocated, or when a step leaves an
    iterate x(t) that is not finite or whose rows do not sum to 1 within
    check_policies' tolerance.

    phi values for t < T fall out of the loop; the last entry costs one
    extra best-response solve whose policy is not recorded.  When eta = 0
    the update is skipped outright so the trace is exactly constant.  Once
    an update leaves x bitwise unchanged, every later iteration would
    repeat it bit for bit, so the rest of the trace is filled by copying.
    Of the iterates, only x(0), x(T) and the selection candidates are kept.
    Once y(t) is the same policy as y(t-1), the next best response starts
    from it, and one sweep mostly confirms it; while y moves, it starts cold.

    The selection candidates are fixed before the loop and stored on the
    trace; select_iterate scores them at the end and sets t_star.
    """
    config.validate()
    eta, T = float(config.eta), int(config.iters)
    if T > MAX_ITERS:
        raise ValueError(f"the run asks for T = {T} iterations; set --iters to at most {MAX_ITERS}")
    candidates = selection_candidates(T, config.iterate_selection,
                                      delta=config.delta, seed=config.seed)
    keep = {0, T, *candidates}
    if x0 is None:
        x0 = uniform_team_policy(spec)
    check_policies(spec, x0)

    rho = spec.initial_dist
    policies = [x0]
    phi = np.empty(T + 1)
    frob = np.zeros(T + 1)

    x, vec = x0, x0.as_vector()
    row_starts = np.r_[0, np.repeat(spec.team_sizes, spec.state_count).cumsum()[:-1]]
    prev_joint: np.ndarray | None = None
    y = start = None
    for t in range(1, T + 1):
        y_last = y
        y, v_hat, grad = policy_gradient(spec, x, start)
        start = y if y is y_last else None
        phi[t - 1] = float(rho @ v_hat)
        if eta == 0.0:
            x_next = x
        else:
            # A finite eta can still overflow the step or the projection's
            # sums; that would make the iterate NaN.
            try:
                with np.errstate(over="raise", invalid="raise"):
                    x_next = project_product_simplex(spec, vec - eta * grad)
            except FloatingPointError as exc:
                raise ValueError(
                    f"iterate {t} is not finite: the step eta = {eta:g} overflows ({exc})"
                ) from None
        joint = joint_policy_vector(x_next, y)
        # A huge step rounds x's entries away; the projection may then miss the simplex.
        if not np.abs(np.add.reduceat(joint[: vec.size], row_starts) - 1.0).max() <= _POLICY_SUM_TOL:
            raise ValueError(f"iterate {t} is off the simplex: the step eta = {eta:g} is too large")
        if prev_joint is None:
            # No y(0) exists; compare against (x(0), y(1)) so only the team
            # contributes to the first recorded step norm.
            prev_joint = joint_policy_vector(x, y)
        frob[t] = float(np.linalg.norm(joint - prev_joint))
        prev_joint = joint
        if t in keep:
            policies.append(x_next)
        # The team's part of joint is x_next's vector.
        if np.array_equal(joint[: vec.size], vec):
            policies += [x] * (len(keep) - len(policies))
            phi[t:] = phi[t - 1]
            break
        x, vec = x_next, joint[: vec.size]
    else:
        _, v_final = adversary_best_response(spec, x, start)
        phi[T] = float(rho @ v_final)

    trace = RunTrace(policies=policies, candidates=candidates, phi=phi, frob_norms=frob)
    if candidates:
        select_iterate(spec, trace)
    return trace


# ---------------------------------------------------------------------------
# Proximal point and near-stationarity gap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProxResult:
    x_tilde: TeamPolicy
    converged: bool
    iterations: int


def prox_point(spec: GameSpec, x: TeamPolicy) -> ProxResult:
    """Minimize psi(x') = phi(x') + ell ||x - x'||^2 by projected subgradient.

    A subgradient of phi at x' is the team policy gradient evaluated against
    the exact best response y*(x'); adding 2 ell (x' - x) gives one for psi.
    Steps shrink as 2/(ell (t+2)).  psi is evaluated exactly at every
    iterate (the best-response solve provides phi for free; the last
    iterate takes no step, so it needs no gradient), and the best iterate
    seen is returned itself, x when no step lowers psi: starting from
    x' = x makes the method exact at stationary points.  Stops early once
    an iterate moves less than PROX_TOL; otherwise runs all PROX_MAX_ITER
    steps and reports converged=False.  iterations counts the steps taken.
    As in run, a best response starts from the last one once it repeats;
    x's own response (its memo, filled here if empty) is the one before x' = x's.
    """
    ell = smoothness_constants(spec).ell
    rho = spec.initial_dist
    anchor = x.as_vector()

    current = best = x
    best_psi, converged = np.inf, False
    y, start = adversary_best_response(spec, x)[0], None
    for t in range(PROX_MAX_ITER + 1):
        last = converged or t == PROX_MAX_ITER
        y_last = y
        if last:
            y, v_hat = adversary_best_response(spec, current, start)
        else:
            y, v_hat, grad = policy_gradient(spec, current, start)
        start = y if y is y_last else None
        vec = current.as_vector()
        diff = vec - anchor
        psi_val = float(rho @ v_hat) + ell * float(np.dot(diff, diff))
        if psi_val < best_psi:
            best_psi, best = psi_val, current
        if last:
            break
        step = 2.0 / (ell * (t + 2))
        current = project_product_simplex(spec, vec - step * (grad + 2.0 * ell * diff))
        converged = float(np.linalg.norm(current.as_vector() - vec)) < PROX_TOL

    return ProxResult(best, converged, iterations=t)


def prox_gap(spec: GameSpec, x: TeamPolicy) -> float:
    """||x - prox(x)||: the distance defining epsilon-near stationarity."""
    result = prox_point(spec, x)
    if not result.converged:
        log.debug(
            "prox_point used its full budget of %d iterations (tol=%g not met); "
            "the returned gap is the best-iterate estimate",
            result.iterations,
            PROX_TOL,
        )
    return float(np.linalg.norm(x.as_vector() - result.x_tilde.as_vector()))


# ---------------------------------------------------------------------------
# Iterate selection
# ---------------------------------------------------------------------------

def selection_candidates(T: int, mode: str, *, delta: float = 0.5, seed: int = 0) -> list[int]:
    """The trace indices iterate selection scores, in scoring order; run
    keeps these iterates.  "prox": every ceil(T/100)-th plus T - 1.
    "random": ceil(-ln delta) uniform draws from {0, ..., T-1} by
    default_rng(seed), the random output rule of Ghadimi and Lan (2013).
    """
    if mode == "prox":
        return sorted(set(range(0, T, math.ceil(T / 100))) | {T - 1})
    if mode == "random":
        _check_delta(delta)
        rng = np.random.default_rng(seed)
        return [int(i) for i in rng.integers(0, T, size=math.ceil(-math.log(delta)))]
    if mode == "none":
        return []
    raise ValueError(f"unknown selection mode {mode!r}")


def select_iterate(spec: GameSpec, trace: RunTrace) -> int:
    """Score trace.candidates by proximal gap and stamp the best into the trace.

    t_star is the first candidate of least gap: the lowest t of the prox
    scan, the earliest of the random draws; the final policy x(T) is never
    a candidate.  Every candidate's gap is stored in trace.prox_gaps under
    its index; a policy object that several candidates hold is scored once.
    Raises ValueError when the trace has no candidates.
    """
    if not trace.candidates:
        raise ValueError("the trace has no selection candidates")
    kept = dict(zip(trace.kept, trace.policies))
    scored: dict[int, float] = {}
    for t in trace.candidates:
        x = kept[t]
        if id(x) not in scored:
            scored[id(x)] = prox_gap(spec, x)
        trace.prox_gaps[t] = scored[id(x)]
    trace.t_star = min(trace.candidates, key=trace.prox_gaps.__getitem__)
    return trace.t_star
