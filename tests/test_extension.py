from __future__ import annotations

import numpy as np
import pytest

from atmg import (
    GameSpec,
    IpgmaxConfig,
    LpAdvInfeasibleError,
    TeamPolicy,
    adv_nash_policy,
    build_lp_adv,
    check_policies,
    extension_constants,
    nash_gap,
    run,
    uniform_team_policy,
)
from atmg.extension import GAP_FLOOR
from atmg.lp import solve
from atmg.mdp import AdversaryPolicy, adversary_best_response, marginal_reward_table
from atmg.mdp import smoothness_constants
from conftest import make_random_game, pennies_game, random_game_dims, random_policies
from oracles import qnlp_residuals


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
# Constants
# ---------------------------------------------------------------------------

def test_constants_pennies():
    cons = extension_constants(pennies_game())
    # gamma = 0 collapses c2 to sqrt(sum A_k) + L = sqrt(2) + 2
    assert cons.c2 == pytest.approx(np.sqrt(2.0) + 2.0, rel=1e-14)
    assert cons.c1 == pytest.approx(32.0 + np.sqrt(2.0) + 2.0, rel=1e-14)


def test_constants_half_game():
    cons = extension_constants(half_game())
    assert cons.c2 == pytest.approx(40.48528137423857, rel=1e-13)
    assert cons.c1 == pytest.approx(296.48528137423857, rel=1e-13)


def test_c1_dominates_c2():
    rng = np.random.default_rng(3)
    for _ in range(10):
        S, sizes, B = random_game_dims(rng)
        spec = make_random_game(rng, S, sizes, B, float(rng.choice([0.0, 0.5, 0.9])))
        cons = extension_constants(spec)
        assert cons.c1 > cons.c2 > 0.0


# ---------------------------------------------------------------------------
# LP_adv assembly
# ---------------------------------------------------------------------------

def test_lp_adv_row_layout():
    spec = half_game()
    x = uniform_team_policy(spec)
    _, v_hat = adversary_best_response(spec, x)
    lp = build_lp_adv(spec, x, v_hat, 0.01)
    # (a) 2 states x 2 actions, (b) and (c) 4 each, (d) and (e) 2 each
    assert lp.n_rows == 16
    assert lp.n_vars == 4
    assert lp.senses[:4] == (">=",) * 4
    assert lp.senses[4:8] == ("<=",) * 4
    assert lp.senses[8:12] == (">=",) * 4
    assert lp.senses[12:14] == (">=",) * 2
    assert lp.senses[14:16] == ("<=",) * 2
    np.testing.assert_allclose(lp.rhs[12:14], spec.initial_dist)
    np.testing.assert_allclose(lp.rhs[14:16], 2.0)


def test_lp_adv_rhs_scales_with_epsilon():
    spec = half_game()
    x = uniform_team_policy(spec)
    _, v_hat = adversary_best_response(spec, x)
    lp1 = build_lp_adv(spec, x, v_hat, 0.01)
    lp2 = build_lp_adv(spec, x, v_hat, 0.02)
    np.testing.assert_allclose(lp2.rhs[:12], 2.0 * lp1.rhs[:12], rtol=1e-14)
    np.testing.assert_array_equal(lp2.rhs[12:], lp1.rhs[12:])
    np.testing.assert_array_equal(lp2.lhs, lp1.lhs)


def test_lp_adv_bellman_slack_rows():
    # The (b) rows carry the Bellman slack of each (s, b) as their single
    # coefficient; at an exact best-response v_hat every slack is <= 0 and
    # each state has an action with slack 0.
    spec = half_game()
    x = uniform_team_policy(spec)
    _, v_hat = adversary_best_response(spec, x)
    lp = build_lp_adv(spec, x, v_hat, 0.01)
    slack_rows = lp.lhs[4:8]
    assert all(np.count_nonzero(row) <= 1 for row in slack_rows)
    slack = slack_rows.sum(axis=1).reshape(2, 2)
    assert slack.max() <= 1e-9
    assert np.all(np.abs(slack).min(axis=1) <= 1e-9)


def test_lp_adv_input_validation():
    spec = half_game()
    x = uniform_team_policy(spec)
    with pytest.raises(ValueError, match="nonnegative"):
        build_lp_adv(spec, x, np.zeros(2), -0.1)
    with pytest.raises(ValueError, match="v_hat"):
        build_lp_adv(spec, x, np.zeros(3), 0.1)


# ---------------------------------------------------------------------------
# Adversary policy extraction
# ---------------------------------------------------------------------------

def test_pennies_epsilon_zero_is_exact():
    spec = pennies_game()
    y, lam = adv_nash_policy(spec, uniform_team_policy(spec), 0.0)
    np.testing.assert_allclose(y.probs, [[0.5, 0.5]], atol=1e-12)
    assert lam.row_sums[0] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("epsilon", [1e-4, 1e-3])
def test_pennies_feasible_set_corridor(epsilon):
    # At the exactly uniform team policy the (a) rows pin the multiplier
    # imbalance to 2.5 c1 eps, so the phase-1 vertex lands at
    # |y0 - 1/2| = 1.25 c1 eps on the nose.
    spec = pennies_game()
    c1 = extension_constants(spec).c1
    y, _ = adv_nash_policy(spec, uniform_team_policy(spec), epsilon)
    assert abs(y.probs[0, 0] - 0.5) == pytest.approx(1.25 * c1 * epsilon, abs=1e-10)


def test_far_from_stationary_is_infeasible():
    spec = pennies_game()
    x = TeamPolicy(blocks=(np.array([[0.9, 0.1]]),))
    with pytest.raises(LpAdvInfeasibleError) as exc:
        adv_nash_policy(spec, x, 1e-8)
    assert exc.value.max_violation > 0.0


def test_adv_nash_policy_generous_epsilon():
    spec = half_game()
    x = uniform_team_policy(spec)
    y, lam = adv_nash_policy(spec, x, 0.5)
    check_policies(spec, x, y)
    assert np.all(lam.table >= 0.0)
    assert np.all(lam.row_sums >= spec.initial_dist - 1e-8)
    assert np.all(lam.row_sums <= 2.0 + 1e-8)


def test_adv_nash_policy_optimize_picks_better_vertex():
    spec = half_game()
    x = uniform_team_policy(spec)
    r_x = marginal_reward_table(spec, x)
    _, lam_any = adv_nash_policy(spec, x, 0.5)
    # The objective-optimal vertex of the same LP, clipped like the extractor.
    _, v_hat = adversary_best_response(spec, x)
    lam_opt = np.maximum(solve(build_lp_adv(spec, x, v_hat, 0.5)).x.reshape(2, 2), 0.0)
    assert (lam_opt * r_x).sum() >= (lam_any.table * r_x).sum() - 1e-9


def test_extraction_after_gradient_run():
    # End to end on the two-state fixture: run the gradient loop, take the
    # selected iterate, and ask for the adversary policy at a tolerance just
    # above the measured gap.
    spec = half_game()
    trace = run(spec, None, IpgmaxConfig(eta=0.05, iters=80))
    measured = trace.prox_gaps[trace.t_star]
    y, lam = adv_nash_policy(spec, trace.x_hat, 1.1 * measured + 1e-9)
    check_policies(spec, trace.x_hat, y)
    report = nash_gap(spec, trace.x_hat, y)
    assert report.epsilon_certified < 1.0


# ---------------------------------------------------------------------------
# Exact gap verification
# ---------------------------------------------------------------------------

def test_nash_gap_at_equilibrium():
    spec = pennies_game()
    report = nash_gap(spec, uniform_team_policy(spec), AdversaryPolicy(np.array([[0.5, 0.5]])))
    assert report.epsilon_certified <= 1e-9
    assert report.adversary_gap >= GAP_FLOOR
    assert np.all(report.team_gaps >= GAP_FLOOR)


def test_nash_gap_pure_play():
    spec = pennies_game()
    x = TeamPolicy(blocks=(np.array([[1.0, 0.0]]),))
    y = AdversaryPolicy(np.array([[1.0, 0.0]]))
    report = nash_gap(spec, x, y)
    assert report.team_gaps[0] == pytest.approx(0.8, abs=1e-10)
    assert report.adversary_gap == pytest.approx(0.0, abs=1e-10)
    assert report.epsilon_certified == pytest.approx(0.8, abs=1e-10)


def test_nash_gap_is_exact_at_the_best_response(gridworld2):
    # Against its own best response the adversary gains nothing: the gap is
    # a difference of two exact solves of the same chain, not a tolerance.
    rng = np.random.default_rng(5)
    for x in (uniform_team_policy(gridworld2), random_policies(rng, gridworld2)[0]):
        y_star, _ = adversary_best_response(gridworld2, x)
        assert abs(nash_gap(gridworld2, x, y_star).adversary_gap) <= 1e-12


def test_nash_gap_rejects_invalid_policies():
    spec = pennies_game()
    with pytest.raises(ValueError):
        nash_gap(spec, TeamPolicy(blocks=(np.array([[0.7, 0.7]]),)),
                 AdversaryPolicy(np.array([[0.5, 0.5]])))


def test_check_epsilon_ne():
    spec = pennies_game()
    x = uniform_team_policy(spec)
    y = AdversaryPolicy(np.array([[0.5, 0.5]]))
    assert nash_gap(spec, x, y).certifies(1e-6)

    pure_x = TeamPolicy(blocks=(np.array([[1.0, 0.0]]),))
    pure_y = AdversaryPolicy(np.array([[1.0, 0.0]]))
    assert not nash_gap(spec, pure_x, pure_y).certifies(0.5)
    # 1/(1-gamma) bounds every possible gap, so any joint policy passes
    assert nash_gap(spec, pure_x, pure_y).certifies(1.0)


# ---------------------------------------------------------------------------
# Regularized-program residuals
# ---------------------------------------------------------------------------

def test_qnlp_residuals_at_best_response():
    rng = np.random.default_rng(29)
    spec = make_random_game(rng, 3, (2, 2), 2, 0.9)
    x, _ = random_policies(rng, spec)
    anchor, _ = random_policies(rng, spec)
    _, v_hat = adversary_best_response(spec, x)
    out = qnlp_residuals(spec, x, v_hat, anchor)
    assert out["max_violation"] <= 1e-9
    ell = smoothness_constants(spec).ell
    diff = x.as_vector() - anchor.as_vector()
    expect = float(spec.initial_dist @ v_hat) + ell * float(diff @ diff)
    assert out["objective"] == pytest.approx(expect, rel=1e-12)


def test_qnlp_residuals_value_ceiling_is_feasible():
    spec = half_game()
    x = uniform_team_policy(spec)
    v = np.full(2, 1.0 / (1.0 - 0.5))
    out = qnlp_residuals(spec, x, v, x)
    assert out["max_violation"] <= 1e-12
    assert out["objective"] == pytest.approx(2.0, abs=1e-12)


def test_qnlp_residuals_shape_check():
    spec = half_game()
    x = uniform_team_policy(spec)
    with pytest.raises(ValueError, match="shape"):
        qnlp_residuals(spec, x, np.zeros(3), x)
