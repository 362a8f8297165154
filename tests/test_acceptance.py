"""Acceptance suite: one test per criterion, each with an independent oracle.

Oracles never reuse the code paths they are checking: values are replayed by
Monte-Carlo rollouts straight off the raw game tensors, best responses by
brute-force enumeration, gradients by central finite differences, and the
end-to-end runs are certified by the exact gap verifier.  Runtime budgets
are asserted where a criterion carries one.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from atmg.extension import adv_nash_policy, extension_constants, nash_gap
from atmg.game import GameSpec, grid_world
from atmg.ipgmax import IpgmaxConfig, prox_point, run, schedule_proposition, schedule_theorem
from atmg.mdp import (
    AdversaryPolicy,
    TeamPolicy,
    adversary_best_response,
    joint_policy_vector,
    policy_gradient,
    smoothness_constants,
    value_rho,
    value_vector,
)
from conftest import (
    dense_transition,
    make_random_game,
    pennies_game,
    random_game_dims,
    random_policies,
)
from oracles import (
    adversary_mdp_primal_dual,
    adversary_policy_gradient,
    qnlp_residuals,
    visitation,
)


# ---------------------------------------------------------------------------
# Independent evaluation helpers (deliberately separate implementations)
# ---------------------------------------------------------------------------

def joint_digits(team_sizes: tuple[int, ...]) -> np.ndarray:
    """(A_joint, n) action digits with the first player's index moving fastest."""
    total = int(np.prod(team_sizes))
    return np.array(np.unravel_index(np.arange(total), team_sizes, order="F")).T


def inverse_cdf_sample(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized categorical draw: rows are per-sample pmfs, u uniform(0,1)."""
    cdf = np.cumsum(rows, axis=1)
    idx = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(idx, rows.shape[1] - 1)


def rollout_returns(
    spec: GameSpec,
    x: TeamPolicy,
    y: AdversaryPolicy,
    s0: int,
    n_rollouts: int,
    horizon: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Discounted returns of independent trajectories started at s0.

    Samples every player action, the adversary action, and the next state by
    inverse CDF directly from the policy tables and the raw transition
    tensor; the only shared ingredient with the code under test is the
    game data itself.
    """
    gamma = spec.discount
    transition = dense_transition(spec.transition)
    states = np.full(n_rollouts, s0)
    returns = np.zeros(n_rollouts)
    disc = 1.0
    for t in range(horizon):
        j = np.zeros(n_rollouts, dtype=np.intp)
        stride = 1
        for block in x.blocks:
            a = inverse_cdf_sample(block[states], rng.random(n_rollouts))
            j += stride * a
            stride *= block.shape[1]
        b = inverse_cdf_sample(y.probs[states], rng.random(n_rollouts))
        returns += disc * spec.reward[states, j, b]
        disc *= gamma
        if t + 1 < horizon and gamma > 0.0:
            states = inverse_cdf_sample(
                transition[states, j, b], rng.random(n_rollouts)
            )
    return returns


def replay_team_marginals(spec: GameSpec, x: TeamPolicy):
    """(r_x, P_x) tables built from scratch off the raw tensors."""
    digits = joint_digits(spec.team_sizes)
    w = np.ones((spec.state_count, digits.shape[0]))
    for k, block in enumerate(x.blocks):
        w *= block[:, digits[:, k]]
    r_x = np.einsum("sj,sjb->sb", w, spec.reward)
    P_x = np.einsum("sj,sjbt->sbt", w, dense_transition(spec.transition))
    return r_x, P_x


def replay_value_rho(spec: GameSpec, blocks, y_probs: np.ndarray) -> float:
    """rho-weighted value from first principles; tolerates off-simplex blocks."""
    digits = joint_digits(spec.team_sizes)
    w = np.ones((spec.state_count, digits.shape[0]))
    for k, block in enumerate(blocks):
        w *= block[:, digits[:, k]]
    P = np.einsum("sj,sb,sjbt->st", w, y_probs, dense_transition(spec.transition))
    r = np.einsum("sj,sb,sjb->s", w, y_probs, spec.reward)
    v = np.linalg.solve(np.eye(spec.state_count) - spec.discount * P, r)
    return float(spec.initial_dist @ v)


def half_game() -> GameSpec:
    rng = np.random.default_rng(0)
    return GameSpec(
        state_count=2,
        team_sizes=(2,),
        adversary_actions=2,
        reward=rng.uniform(0.05, 0.95, size=(2, 2, 2)),
        transition=np.full((2, 2, 2, 2), 0.5),
        discount=0.5,
        initial_dist=np.array([0.5, 0.5]),
    )


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_value_solver_against_rollouts():
    """Exact policy evaluation agrees with Monte-Carlo rollouts (3 SE band)
    and stays inside the reward-range value bounds, on 200 random games.
    Budget: 2 minutes."""
    started = time.perf_counter()
    rng = np.random.default_rng(3)  # fixed stream; the 3 SE band is tight
    horizons = {0.0: 1, 0.5: 20, 0.9: 132}
    n_rollouts = 1500

    for _ in range(200):
        S, sizes, B = random_game_dims(rng)
        gamma = float(rng.choice([0.0, 0.5, 0.9]))
        spec = make_random_game(rng, S, sizes, B, gamma)
        x, y = random_policies(rng, spec)
        v = value_vector(spec, x, y)

        lo = spec.reward.min() / (1.0 - gamma)
        hi = spec.reward.max() / (1.0 - gamma)
        assert v.min() >= lo
        assert v.max() <= hi

        s0 = int(rng.integers(S))
        horizon = horizons[gamma]
        returns = rollout_returns(spec, x, y, s0, n_rollouts, horizon, rng)
        estimate = float(returns.mean())
        se = float(returns.std(ddof=1)) / np.sqrt(n_rollouts)
        truncation = gamma**horizon * spec.reward.max() / (1.0 - gamma)
        band = 3.0 * se + truncation + 1e-12
        assert abs(estimate - v[s0]) <= band

    assert time.perf_counter() - started < 120.0


def test_criterion_02_best_response_equals_enumeration():
    """Policy iteration reproduces the brute-force optimum over every
    deterministic adversary policy: values within 1e-9 and the same greedy
    policy under lowest-index tie-breaking, on 100 random games.
    Budget: 1 minute."""
    started = time.perf_counter()
    rng = np.random.default_rng(404)

    for _ in range(100):
        S, sizes, B = random_game_dims(rng)
        gamma = float(rng.choice([0.0, 0.5, 0.9]))
        spec = make_random_game(rng, S, sizes, B, gamma)
        x, _ = random_policies(rng, spec)
        r_x, P_x = replay_team_marginals(spec, x)

        v_best = np.full(S, -np.inf)
        eye = np.eye(S)
        for choice in itertools.product(range(B), repeat=S):
            picks = np.array(choice)
            P_d = P_x[np.arange(S), picks]
            r_d = r_x[np.arange(S), picks]
            v_d = np.linalg.solve(eye - gamma * P_d, r_d)
            v_best = np.maximum(v_best, v_d)

        y_star, v_hat = adversary_best_response(spec, x)
        assert np.abs(v_hat - v_best).max() <= 1e-9

        q = r_x + gamma * P_x @ v_best
        greedy = q.argmax(axis=1)  # argmax takes the lowest index on ties
        assert np.array_equal(y_star.probs.argmax(axis=1), greedy)

    assert time.perf_counter() - started < 60.0


def test_criterion_03_gradient_against_finite_differences():
    """policy_gradient vs central differences at h = 1e-6: max relative
    error at most 1e-5 over 50 random (game, policy) pairs."""
    rng = np.random.default_rng(1234)
    h = 1e-6

    for _ in range(50):
        S, sizes, B = random_game_dims(rng)
        gamma = float(rng.choice([0.0, 0.5, 0.9]))
        spec = make_random_game(rng, S, sizes, B, gamma)
        x, y = random_policies(rng, spec)
        grad = policy_gradient(spec, x, y)

        fd = []
        for k in range(spec.n_players):
            for s in range(S):
                for a in range(sizes[k]):
                    up = [b.copy() for b in x.blocks]
                    dn = [b.copy() for b in x.blocks]
                    up[k][s, a] += h
                    dn[k][s, a] -= h
                    fd.append(
                        (replay_value_rho(spec, up, y.probs)
                         - replay_value_rho(spec, dn, y.probs)) / (2.0 * h)
                    )
        fd = np.array(fd)
        scale = max(1.0, float(np.abs(fd).max()))
        assert float(np.abs(grad - fd).max()) / scale <= 1e-5


def test_criterion_04_duality_and_occupancy_correspondence():
    """The MDP primal/dual pair closes the duality gap within 1e-7, and the
    dual multipliers factor as lambda(s,b) = d(s) y(s,b) for the visitation
    of the row-normalized policy, on 50 random games."""
    rng = np.random.default_rng(777)

    for _ in range(50):
        S, sizes, B = random_game_dims(rng)
        gamma = float(rng.choice([0.0, 0.5, 0.9]))
        spec = make_random_game(rng, S, sizes, B, gamma)
        x, _ = random_policies(rng, spec)

        v, lam = adversary_mdp_primal_dual(spec, x)
        r_x, _ = replay_team_marginals(spec, x)
        assert abs(float(spec.initial_dist @ v) - float((lam * r_x).sum())) <= 1e-7

        row_sums = lam.sum(axis=1)
        assert np.all(row_sums >= spec.initial_dist - 1e-8)
        y_lam = AdversaryPolicy(np.maximum(lam, 0.0) / row_sums[:, None])
        d = visitation(spec, x, y_lam)
        assert np.abs(lam - d[:, None] * y_lam.probs).max() <= 1e-7


def test_criterion_05_regularized_program_identities():
    """On 10 fixtures: the LP value of the adversary's MDP equals the
    best-response value within 1e-8, and the proximal point's regularized
    objective beats 200 random feasible points of the same program."""
    rng = np.random.default_rng(31337)

    for _ in range(10):
        S, sizes, B = random_game_dims(rng)
        gamma = float(rng.choice([0.0, 0.5, 0.9]))
        spec = make_random_game(rng, S, sizes, B, gamma)
        anchor, _ = random_policies(rng, spec)

        v_lp, _ = adversary_mdp_primal_dual(spec, anchor)
        _, v_vi = adversary_best_response(spec, anchor)
        assert abs(float(spec.initial_dist @ (v_lp - v_vi))) <= 1e-8

        result = prox_point(spec, anchor)
        for _ in range(200):
            x_rand, _ = random_policies(rng, spec)
            _, v_rand = adversary_best_response(spec, x_rand)
            objective = qnlp_residuals(spec, x_rand, v_rand, anchor)["objective"]
            assert result.psi <= objective + 1e-6


def test_criterion_06_schedule_reference_values():
    """Both schedules reproduce hand-derived reference values on the
    two-state fixture (S=2, two team actions, two adversary actions,
    gamma=0.5, D=4, epsilon=0.1) to 12 significant digits."""
    spec = half_game()

    eta_t, T_t = schedule_theorem(spec, 0.1, 4.0)
    # eps^2 (1-gamma)^9 / (32 S^4 D^2 (sum A_k + B)^3) = 1e-2 * 2^-28
    reference_eta = 3.7252902984619140625e-11
    assert abs(eta_t - reference_eta) / reference_eta < 5e-12
    # 512 S^8 D^4 (sum A_k+B)^4 / (eps^4 (1-gamma)^12) = 3.5184372088832e17
    # in exact decimal arithmetic; the first 12 significant digits survive
    # the binary rounding of epsilon, and the exact ceiling is frozen.
    assert str(T_t)[:12] == "351843720888"
    assert T_t == 351843720888319922

    eta_p, T_p = schedule_proposition(spec, 0.1)
    # 2 eps^2 (1-gamma) = 0.01
    assert abs(eta_p - 0.01) / 0.01 < 5e-12
    # ceil( (1-gamma)^4 / (8 eps^4 (sum A_k+B)^2) ) = ceil(4.8828125) = 5
    assert T_p == 5


def test_criterion_07_end_to_end_matching_pennies():
    """The gradient loop on matching pennies (eta=0.05, T=500) reaches a
    proximal gap of at most 0.05; the adversary LP is feasible there; the
    certified Nash gap of the extracted pair is at most 0.1; and shrinking
    epsilon pins the adversary policy within 1.25 c1 eps of uniform.
    Budget: 30 seconds."""
    started = time.perf_counter()
    spec = pennies_game()
    x0 = TeamPolicy(blocks=(np.array([[0.9, 0.1]]),))

    trace = run(spec, x0, IpgmaxConfig(eta=0.05, iters=500))
    measured = trace.prox_gaps[trace.t_star]
    assert measured <= 0.05

    y_hat, _ = adv_nash_policy(spec, trace.x_hat, 1.1 * measured)
    report = nash_gap(spec, trace.x_hat, y_hat)
    assert report.epsilon_certified <= 0.1

    c1 = extension_constants(spec).c1
    for epsilon in (1e-3, 1e-4):
        y_eps, _ = adv_nash_policy(spec, trace.x_hat, epsilon)
        assert np.abs(y_eps.probs[0] - 0.5).max() <= 1.25 * c1 * epsilon + 1e-9

    assert time.perf_counter() - started < 30.0


def test_criterion_08_end_to_end_grid_world():
    """A capped manual run on the 65-state grid world shrinks the running
    minimum of the consecutive-step Frobenius norms, admits a feasible
    adversary LP at the measured proximal gap, and its certified Nash gap
    stays under the worst-case approximation bound evaluated at that gap.
    Budget: 10 minutes."""
    started = time.perf_counter()
    spec = grid_world(2)

    trace = run(
        spec,
        None,
        IpgmaxConfig(
            eta=0.1, iters=2000, iterate_selection="random", delta=0.5, seed=3
        ),
    )
    running_min = np.minimum.accumulate(trace.frob_norms[1:])
    assert np.all(np.diff(running_min) <= 0.0)
    assert running_min[-1] < running_min[0]
    assert running_min[-1] <= 1e-10  # the loop lands on an exact fixed point

    measured = trace.prox_gaps[trace.t_star]
    y_hat, _ = adv_nash_policy(spec, trace.x_hat, 1.1 * measured)
    report = nash_gap(spec, trace.x_hat, y_hat)

    cons = extension_constants(spec)
    sm = smoothness_constants(spec)
    S, B = spec.state_count, spec.adversary_actions
    coefficient = 2.0 * cons.c2 * B * S * sm.D_bar + cons.c1 * S * sm.D_bar
    assert coefficient == pytest.approx(88733351196.9, rel=1e-6)
    # With measured = 0 the bound degenerates to 0; the 1e-8 allowance
    # absorbs round-off in the exact verifier's linear solves.
    assert report.epsilon_certified <= coefficient * measured + 1e-8

    assert time.perf_counter() - started < 600.0


def test_criterion_09_strategic_equivalence_of_gaps():
    """Adding 0.3 to every reward leaves all Nash gaps unchanged within
    1e-9, on 20 random games."""
    rng = np.random.default_rng(55)

    for _ in range(20):
        S, sizes, B = random_game_dims(rng)
        gamma = float(rng.choice([0.0, 0.5, 0.9]))
        spec = make_random_game(rng, S, sizes, B, gamma)
        shifted = GameSpec(
            state_count=S,
            team_sizes=sizes,
            adversary_actions=B,
            reward=spec.reward + 0.3,
            transition=spec.transition,
            discount=gamma,
            initial_dist=spec.initial_dist,
        )
        x, y = random_policies(rng, spec)
        a = nash_gap(spec, x, y)
        b = nash_gap(shifted, x, y)
        np.testing.assert_allclose(a.team_gaps, b.team_gaps, atol=1e-9)
        assert abs(a.adversary_gap - b.adversary_gap) <= 1e-9
        assert abs(a.epsilon_certified - b.epsilon_certified) <= 1e-9


def test_criterion_10_smoothness_certificates():
    """No violations of the Lipschitz and smoothness inequalities for the
    value and its joint-policy gradient over 1000 random policy pairs on
    each of three fixtures."""
    rng = np.random.default_rng(808)
    fixtures = [
        pennies_game(),
        half_game(),
        make_random_game(rng, 3, (2, 2), 2, 0.9),
    ]

    for spec in fixtures:
        sm = smoothness_constants(spec)
        violations = 0
        for _ in range(1000):
            x1, y1 = random_policies(rng, spec)
            x2, y2 = random_policies(rng, spec)
            dz = float(np.linalg.norm(
                joint_policy_vector(x1, y1) - joint_policy_vector(x2, y2)
            ))

            dv = abs(value_rho(spec, x1, y1) - value_rho(spec, x2, y2))
            if dv > sm.L * dz + 1e-12:
                violations += 1

            g1 = np.concatenate([
                policy_gradient(spec, x1, y1),
                adversary_policy_gradient(spec, x1, y1),
            ])
            g2 = np.concatenate([
                policy_gradient(spec, x2, y2),
                adversary_policy_gradient(spec, x2, y2),
            ])
            if float(np.linalg.norm(g1 - g2)) > sm.ell * dz + 1e-12:
                violations += 1
        assert violations == 0
