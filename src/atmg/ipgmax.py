"""Independent projected policy gradient against a best-responding adversary.

Each iteration gets the exact adversary best response to the current team
policy, then every team player takes one projected gradient step on its own
simplex block, all simultaneously.  The trace records every iterate; a
near-stationary one is selected afterwards, either by scanning proximal
gaps or by drawing a few indices at random.

The proximal machinery evaluates the Moreau envelope of the best-response
value phi(x) = max_y V_rho(x, y) at regularization 1/(2 ell): the prox
point minimizes psi(x') = phi(x') + ell ||x - x'||^2, and the distance
||x - prox(x)|| is the near-stationarity measure everything downstream is
calibrated against.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .game import GameSpec
from .mdp import (
    AdversaryPolicy,
    TeamPolicy,
    adversary_best_response,
    check_policies,
    joint_policy_vector,
    policy_gradient,
    project_product_simplex,
    smoothness_constants,
    team_policy_from_vector,
    uniform_team_policy,
)

log = logging.getLogger(__name__)

SCHEDULE_MODES = ("manual", "proposition", "theorem")
SELECTION_MODES = ("prox_scan", "random", "none")

# prox_point stops once an iterate moves less than PROX_TOL, or after
# PROX_MAX_ITER steps.
PROX_TOL = 1e-7
PROX_MAX_ITER = 400

# run refuses a schedule longer than this, before allocating its trace.
MAX_ITERS = 10**7


@dataclass
class IpgmaxConfig:
    """Knobs for one run.

    With schedule_mode="manual", eta and iters must be set explicitly.  The
    other modes derive (eta, iters) from epsilon, the theorem schedule with
    D = D_bar; cap_iters, when given, clamps the derived iteration count.
    iterate_selection="none" skips the selection pass entirely (the trace is
    still complete), which is useful when the caller wants to select later
    or not at all.
    """

    epsilon: float | None = None
    eta: float | None = None
    iters: int | None = None
    schedule_mode: str = "manual"
    iterate_selection: str = "prox_scan"
    delta: float = 0.5
    seed: int = 0
    cap_iters: int | None = None

    def validate(self) -> None:
        if self.schedule_mode not in SCHEDULE_MODES:
            raise ValueError(f"unknown schedule_mode {self.schedule_mode!r}")
        if self.iterate_selection not in SELECTION_MODES:
            raise ValueError(f"unknown iterate_selection {self.iterate_selection!r}")
        if self.schedule_mode == "manual":
            if self.eta is None or self.iters is None:
                raise ValueError("manual schedule requires eta and iters")
            if self.iters < 1:
                raise ValueError(f"iters must be at least 1, got {self.iters}")
        elif self.epsilon is None:
            raise ValueError("schedule modes require epsilon > 0")
        # Values a mode ignores still reach report.json, so they are checked
        # too; `not 0 <= v < inf` also catches NaN.
        if self.eta is not None and not 0.0 <= self.eta < math.inf:
            raise ValueError(f"eta must be finite and nonnegative, got {self.eta}")
        if self.epsilon is not None and not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.cap_iters is not None and self.cap_iters < 1:
            raise ValueError(f"cap_iters must be at least 1, got {self.cap_iters}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass
class RunTrace:
    """Everything one run produced.

    policies has length T+1 (x0 first); best_responses has length T, with
    best_responses[t-1] the response to policies[t-1].  phi[t] is the
    best-response value of policies[t] for every t, including t = T, whose
    entry costs one extra best-response solve after the loop unless the
    iterate stopped moving.  frob_norms[t] is the Frobenius norm of the
    consecutive joint-policy difference, zero at t = 0 by convention; at
    t = 1 only the team part can move since there is no previous adversary
    policy.  prox_gaps caches every proximal gap evaluated at a trace
    index.  Iterate selection sets t_star; x_hat is policies[t_star].
    """

    policies: list[TeamPolicy]
    best_responses: list[AdversaryPolicy]
    phi: np.ndarray
    frob_norms: np.ndarray
    prox_gaps: dict[int, float] = field(default_factory=dict)
    t_star: int | None = None
    wall_clock: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.best_responses)

    @property
    def x_hat(self) -> TeamPolicy | None:
        """The selected iterate, None before selection."""
        return None if self.t_star is None else self.policies[self.t_star]


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def schedule_theorem(spec: GameSpec, epsilon: float, D: float) -> tuple[float, int]:
    """Step size and iteration count with the full worst-case constants.

        eta = eps^2 (1-gamma)^9 / (32 S^4 D^2 (sum A_k + B)^3)
        T   = ceil( 512 S^8 D^4 (sum A_k + B)^4 / (eps^4 (1-gamma)^12) )

    T is exact big-integer arithmetic (it overflows float range long before
    it becomes runnable); callers must cap it for practical runs.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if D < 1.0:
        raise ValueError(f"D must be at least 1, got {D}")
    S = spec.state_count
    total = spec.sum_team_actions + spec.adversary_actions
    one_minus = 1.0 - spec.discount
    eta = epsilon**2 * one_minus**9 / (32.0 * S**4 * D**2 * total**3)
    T_exact = (
        512
        * Fraction(S) ** 8
        * Fraction(D) ** 4
        * Fraction(total) ** 4
        / (Fraction(epsilon) ** 4 * Fraction(one_minus) ** 12)
    )
    return float(eta), int(math.ceil(T_exact))


def schedule_proposition(spec: GameSpec, epsilon: float) -> tuple[float, int]:
    """Dimension-light schedule:

        eta = 2 eps^2 (1-gamma)
        T   = ceil( (1-gamma)^4 / (8 eps^4 (sum A_k + B)^2) )
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    total = spec.sum_team_actions + spec.adversary_actions
    one_minus = 1.0 - spec.discount
    eta = 2.0 * epsilon**2 * one_minus
    T_exact = Fraction(one_minus) ** 4 / (
        8 * Fraction(epsilon) ** 4 * Fraction(total) ** 2
    )
    return float(eta), max(1, int(math.ceil(T_exact)))


def resolve_schedule(spec: GameSpec, config: IpgmaxConfig) -> tuple[float, int]:
    """The (eta, T) a run with this config will actually use."""
    if config.schedule_mode == "manual":
        eta, T = float(config.eta), int(config.iters)
    elif config.schedule_mode == "proposition":
        eta, T = schedule_proposition(spec, config.epsilon)
    else:
        eta, T = schedule_theorem(spec, config.epsilon, smoothness_constants(spec).D_bar)
    if config.cap_iters is not None:
        T = min(T, int(config.cap_iters))
    return eta, T


# ---------------------------------------------------------------------------
# The main loop
# ---------------------------------------------------------------------------

def run(spec: GameSpec, x0: TeamPolicy | None, config: IpgmaxConfig) -> RunTrace:
    """Run T projected-gradient iterations from x0 (uniform when None).

    Iteration t computes y(t), the best response to x(t-1), then moves all
    players at once:

        x_k(t) = proj( x_k(t-1) - eta * grad_k V_rho(x(t-1), y(t)) )

    Raises ValueError when the schedule asks for more than MAX_ITERS
    iterations, before anything is allocated, or when a step leaves a
    non-finite iterate x(t).

    phi values for t < T fall out of the loop; the last entry costs one
    extra best-response solve whose policy is not recorded.  When eta = 0
    the update is skipped outright so the trace is exactly constant.  Once
    an update leaves x bitwise unchanged, every later iteration would
    repeat it bit for bit, so the rest of the trace is filled by copying.

    Iterate selection runs at the end per config (see select_iterate) and
    sets t_star.
    """
    config.validate()
    eta, T = resolve_schedule(spec, config)
    if T > MAX_ITERS:
        knob = "iters (--iters)" if config.schedule_mode == "manual" else "cap_iters (--cap-iters)"
        raise ValueError(
            f"the {config.schedule_mode} schedule asks for T = {T} iterations; "
            f"set {knob} to at most {MAX_ITERS}"
        )
    if x0 is None:
        x0 = uniform_team_policy(spec)
    check_policies(spec, x0)

    started = time.perf_counter()
    rho = spec.initial_dist
    policies = [x0]
    best_responses: list[AdversaryPolicy] = []
    phi = np.empty(T + 1)
    frob = np.zeros(T + 1)

    x = x0
    prev_joint: np.ndarray | None = None
    for t in range(1, T + 1):
        y, v_hat = adversary_best_response(spec, x)
        phi[t - 1] = float(rho @ v_hat)
        if eta == 0.0:
            x_next = x
        else:
            grad = policy_gradient(spec, x, y)
            # A finite eta can still overflow the step or the projection's
            # sums; that would make the iterate NaN.
            try:
                with np.errstate(over="raise", invalid="raise"):
                    x_next = project_product_simplex(spec, x.as_vector() - eta * grad)
            except FloatingPointError as exc:
                raise ValueError(
                    f"iterate {t} is not finite: the step eta = {eta:g} overflows ({exc})"
                ) from None
        joint = joint_policy_vector(x_next, y)
        if prev_joint is None:
            # No y(0) exists; compare against (x(0), y(1)) so only the team
            # contributes to the first recorded step norm.
            prev_joint = joint_policy_vector(x, y)
        frob[t] = float(np.linalg.norm(joint - prev_joint))
        prev_joint = joint
        best_responses.append(y)
        policies.append(x_next)
        if np.array_equal(x_next.as_vector(), x.as_vector()):
            best_responses += [y] * (T - t)
            policies += [x] * (T - t)
            phi[t:] = phi[t - 1]
            break
        x = x_next
    else:
        _, v_final = adversary_best_response(spec, x)
        phi[T] = float(rho @ v_final)

    trace = RunTrace(
        policies=policies,
        best_responses=best_responses,
        phi=phi,
        frob_norms=frob,
    )
    if config.iterate_selection != "none":
        select_iterate(
            spec,
            trace,
            config.iterate_selection,
            delta=config.delta,
            seed=config.seed,
        )
    trace.wall_clock = time.perf_counter() - started
    return trace


# ---------------------------------------------------------------------------
# Proximal point and near-stationarity gap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProxResult:
    x_tilde: TeamPolicy
    converged: bool
    iterations: int
    psi: float


def prox_point(spec: GameSpec, x: TeamPolicy) -> ProxResult:
    """Minimize psi(x') = phi(x') + ell ||x - x'||^2 by projected subgradient.

    A subgradient of phi at x' is the team policy gradient evaluated against
    the exact best response y*(x'); adding 2 ell (x' - x) gives one for psi.
    Steps shrink as 2/(ell (t+2)).  psi is evaluated exactly at every
    iterate (the best-response solve provides phi for free), and the best
    iterate seen is returned; starting from x' = x makes the method exact at
    stationary points.  Stops early once an iterate moves less than
    PROX_TOL; otherwise runs all PROX_MAX_ITER steps and reports
    converged=False.
    """
    ell = smoothness_constants(spec).ell
    rho = spec.initial_dist
    anchor = x.as_vector()

    def psi_and_subgrad(point: TeamPolicy, vec: np.ndarray):
        y_star, v_hat = adversary_best_response(spec, point)
        phi_val = float(rho @ v_hat)
        psi_val = phi_val + ell * float(np.dot(vec - anchor, vec - anchor))
        grad = policy_gradient(spec, point, y_star) + 2.0 * ell * (vec - anchor)
        return psi_val, grad

    current = x
    current_vec = anchor.copy()
    best_vec = current_vec
    best_psi = np.inf
    converged = False
    used = 0

    for t in range(PROX_MAX_ITER):
        used = t + 1
        psi_val, grad = psi_and_subgrad(current, current_vec)
        if psi_val < best_psi:
            best_psi = psi_val
            best_vec = current_vec
        step = 2.0 / (ell * (t + 2))
        nxt = project_product_simplex(spec, current_vec - step * grad)
        nxt_vec = nxt.as_vector()
        move = float(np.linalg.norm(nxt_vec - current_vec))
        current, current_vec = nxt, nxt_vec
        if move < PROX_TOL:
            converged = True
            break

    # The final iterate never got scored inside the loop.
    y_star, v_hat = adversary_best_response(spec, current)
    psi_val = float(rho @ v_hat) + ell * float(
        np.dot(current_vec - anchor, current_vec - anchor)
    )
    if psi_val < best_psi:
        best_psi = psi_val
        best_vec = current_vec

    return ProxResult(
        x_tilde=team_policy_from_vector(spec, best_vec),
        converged=converged,
        iterations=used,
        psi=best_psi,
    )


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

def select_iterate(
    spec: GameSpec,
    trace: RunTrace,
    mode: str,
    *,
    delta: float = 0.5,
    seed: int = 0,
) -> int:
    """Pick t_star in {0, ..., T-1} and stamp it into the trace.

    "prox_scan" evaluates the proximal gap at every ceil(T/100)-th iterate
    plus the last candidate and returns the argmin.  "random" draws
    ceil(ln(1/delta)) indices uniformly with replacement and keeps the best
    of those.  The final policy x(T) is never a candidate.  All evaluated
    gaps are cached in trace.prox_gaps.
    """
    T = trace.iterations
    if T < 1:
        raise ValueError("trace is empty")

    if mode == "prox_scan":
        candidates = sorted(set(range(0, T, math.ceil(T / 100))) | {T - 1})
    elif mode == "random":
        draws = math.ceil(math.log(1.0 / delta))
        rng = np.random.default_rng(seed)
        candidates = [int(i) for i in rng.integers(0, T, size=max(1, draws))]
    else:
        raise ValueError(f"unknown selection mode {mode!r}")

    best_t = None
    best_gap = np.inf
    for t in candidates:
        if t not in trace.prox_gaps:
            trace.prox_gaps[t] = prox_gap(spec, trace.policies[t])
        gap = trace.prox_gaps[t]
        if gap < best_gap:
            best_gap = gap
            best_t = t

    trace.t_star = best_t
    return best_t
