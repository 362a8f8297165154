from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import atmg.extension
import atmg.mdp
from atmg.extension import (
    GAP_FLOOR,
    LpAdvInfeasibleError,
    adv_nash_policy,
    build_lp_adv,
    extension_constants,
    nash_gap,
)
from atmg.game import GameSpec, grid_world
from atmg.ipgmax import IpgmaxConfig, run
from atmg.lp import FEASIBLE, INFEASIBLE, RESIDUAL_LIMIT, find_feasible, residuals
from atmg.mdp import (
    AdversaryPolicy,
    TeamPolicy,
    _adversary_q,
    _next_mean,
    adversary_best_response,
    check_policies,
    smoothness_constants,
    uniform_team_policy,
)
from conftest import (
    count_calls,
    make_mixed_support_game,
    make_random_game,
    pennies_game,
    random_game_dims,
    random_policies,
)
from oracles import joint_action_distribution, lp_adv_reference, qnlp_residuals, whole_program


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

# half_game has one player with 2 actions and B = 2, so each state owns
# R = 2 + 2*2 + 2 = 8 consecutive rows: (a) 2, (b) 2, (c) 2, (d) 1, (e) 1.
HALF_R = 8


def test_lp_adv_row_layout():
    spec = half_game()
    x = uniform_team_policy(spec)
    lp = whole_program(build_lp_adv(spec, x, 0.01))
    # (a) 2 states x 2 actions, (b) and (c) 4 each, (d) and (e) 2 each
    assert lp.n_rows == 16
    assert lp.n_vars == 4
    per_state = (">=",) * 2 + ("<=",) * 2 + (">=",) * 2 + (">=", "<=")
    assert lp.senses == per_state * 2
    np.testing.assert_allclose(lp.rhs[6::HALF_R], spec.initial_dist)
    np.testing.assert_allclose(lp.rhs[7::HALF_R], 2.0)


def test_lp_adv_rhs_scales_with_epsilon():
    spec = half_game()
    x = uniform_team_policy(spec)
    lp1 = whole_program(build_lp_adv(spec, x, 0.01))
    lp2 = whole_program(build_lp_adv(spec, x, 0.02))
    scaled = np.tile(np.arange(HALF_R) < 6, 2)  # the (a), (b), (c) rows
    np.testing.assert_allclose(lp2.rhs[scaled], 2.0 * lp1.rhs[scaled], rtol=1e-14)
    np.testing.assert_array_equal(lp2.rhs[~scaled], lp1.rhs[~scaled])
    np.testing.assert_array_equal(lp2.lhs, lp1.lhs)


def test_lp_adv_bellman_slack_rows():
    # The (b) rows carry the Bellman slack of each (s, b) as their single
    # coefficient; at an exact best-response v_hat every slack is <= 0 and
    # each state has an action with slack 0.
    spec = half_game()
    x = uniform_team_policy(spec)
    lp = whole_program(build_lp_adv(spec, x, 0.01))
    slack_rows = lp.lhs.reshape(2, HALF_R, 4)[:, 2:4].reshape(4, 4)
    assert all(np.count_nonzero(row) <= 1 for row in slack_rows)
    slack = slack_rows.sum(axis=1).reshape(2, 2)
    assert slack.max() <= 1e-9
    assert np.all(np.abs(slack).min(axis=1) <= 1e-9)


def _lp_cases(gridworld2: GameSpec, seed: int) -> list[tuple[GameSpec, TeamPolicy]]:
    """grid_world(2) at the uniform policy, then 10 random games and one
    three-player team game (its middle player's deviations mask a factor
    between two others) at random policies."""
    rng = np.random.default_rng(seed)
    cases = [(gridworld2, uniform_team_policy(gridworld2))]
    for i in range(11):
        S, sizes, B = random_game_dims(rng) if i < 10 else (3, (2, 3, 2), 2)
        spec = make_random_game(rng, S, sizes, B, float(rng.choice([0.0, 0.5, 0.9])))
        cases.append((spec, random_policies(rng, spec)[0]))
    return cases


def test_lp_adv_rows_touch_one_state(gridworld2):
    # build_lp_adv returns one R x B program per state: no row has a
    # coefficient outside its state's B variables, which is what lets
    # adv_nash_policy solve the program state by state.
    for spec, x in _lp_cases(gridworld2, 13):
        S, B = spec.state_count, spec.adversary_actions
        R = spec.sum_team_actions + 2 * B + 2
        programs = build_lp_adv(spec, x, 0.01)
        assert len(programs) == S
        assert all(p.lhs.shape == (R, B) for p in programs)
        assert (programs.n_rows, programs.n_vars) == (S * R, S * B)
        lp = whole_program(programs)
        assert lp.lhs.shape == (S * R, S * B)
        blocks = lp.lhs.reshape(S, R, S, B).copy()
        blocks[np.arange(S), :, np.arange(S), :] = 0.0
        assert not blocks.any()
        if spec is gridworld2:
            assert lp.lhs.shape == (1170, 260)
            assert (len(programs), programs.n_rows, programs.n_vars) == (65, 1170, 260)
            assert all(p.lhs.shape == (18, 4) for p in programs)


def test_lp_adv_matches_row_by_row_reference(gridworld2):
    for spec, x in _lp_cases(gridworld2, 17):
        _, v_hat = adversary_best_response(spec, x)
        for epsilon in (0.0, 0.01):
            lp = whole_program(build_lp_adv(spec, x, epsilon))
            lhs, senses, rhs = lp_adv_reference(spec, x, v_hat, epsilon)
            assert lp.senses == senses
            np.testing.assert_array_equal(lp.rhs, rhs)
            np.testing.assert_allclose(lp.lhs, lhs, rtol=0.0, atol=1e-12)


def test_lp_adv_evaluates_x_hat_once(gridworld2, monkeypatch):
    # Every deviation row and the slack rows read one gather of x_hat's
    # blocks and one table of expected next values at v_hat, which comes
    # from x_hat's memo; no other gather of x_hat or of next values is made,
    # in extension or in mdp.
    x = uniform_team_policy(gridworld2)
    _, v_hat = adversary_best_response(gridworld2, x)
    gathers = [count_calls(monkeypatch, m, "_gathered") for m in (atmg.extension, atmg.mdp)]
    tables = [count_calls(monkeypatch, m, "_next_mean") for m in (atmg.extension, atmg.mdp)]
    build_lp_adv(gridworld2, x, 0.01)
    assert (sum(map(len, gathers)), [len(t) for t in tables]) == (1, [1, 0])
    assert tables[0][0][1] is v_hat


@pytest.mark.parametrize("make", [
    pytest.param(lambda rng: grid_world(2), id="grid2"),
    pytest.param(lambda rng: make_random_game(rng, 5, (2, 3), 3, 0.9), id="stochastic"),
    pytest.param(lambda rng: make_mixed_support_game(rng, 5, (2, 3), 3, 0.9), id="mixed-support"),
])
def test_lp_adv_slack_rows_are_the_adversarys_backup(make):
    # The (b) and (c) rows hold the adversary's Bellman slack at x_hat: its
    # policy-iteration backup at v_hat, less v_hat, bit for bit, so the LP
    # and the best response evaluate one formula.
    rng = np.random.default_rng(200)
    spec = make(rng)
    x = random_policies(rng, spec)[0]
    _, v_hat = adversary_best_response(spec, x)
    w = joint_action_distribution(spec, x)
    r = (w[:, None, :] @ spec.reward)[:, 0, :]
    want = _adversary_q(spec, w, r, _next_mean(spec, v_hat)) - v_hat[:, None]
    A, B = spec.sum_team_actions, spec.adversary_actions
    for s, lp in enumerate(build_lp_adv(spec, x, 0.01)):
        for rows in (lp.lhs[A : A + B], lp.lhs[A + B : A + 2 * B]):
            assert np.diagonal(rows).tobytes() == want[s].tobytes()
            np.testing.assert_array_equal(rows, np.diag(want[s]))


def test_lp_adv_memory_grows_with_states_not_their_square():
    # grid_world(3) has 730 states; one (S*R, S*B) matrix of its program
    # would take 293 MiB, its 730 blocks of 18 x 4 take 0.4 MiB.  No dense
    # (S, B, S) table (16 MiB) is built either.
    spec = grid_world(3)
    x = uniform_team_policy(spec)
    adversary_best_response(spec, x)  # x's memo is filled, as x_hat's is in a solve
    tracemalloc.start()
    try:
        programs = build_lp_adv(spec, x, 0.01)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (programs.n_rows, programs.n_vars) == (13140, 2920)
    assert peak < 8 * 2**20
    assert held < 2 * 2**20
    arrays = sum(p.lhs.nbytes + p.rhs.nbytes + p.objective.nbytes for p in programs)
    assert arrays < 2 * 2**20


def test_lp_adv_input_validation():
    spec = half_game()
    x = uniform_team_policy(spec)
    with pytest.raises(ValueError, match="nonnegative"):
        build_lp_adv(spec, x, -0.1)


# ---------------------------------------------------------------------------
# Adversary policy extraction
# ---------------------------------------------------------------------------

def test_pennies_epsilon_zero_is_exact():
    spec = pennies_game()
    y, lam = adv_nash_policy(spec, uniform_team_policy(spec), 0.0)
    np.testing.assert_allclose(y.probs, [[0.5, 0.5]], atol=1e-12)
    assert lam.sum(axis=1)[0] == pytest.approx(1.0, abs=1e-10)


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
    assert "at state 0," in str(exc.value)


def test_adv_nash_policy_generous_epsilon():
    spec = half_game()
    x = uniform_team_policy(spec)
    y, lam = adv_nash_policy(spec, x, 0.5)
    check_policies(spec, x, y)
    assert np.all(lam >= 0.0)
    assert np.all(lam.sum(axis=1) >= spec.initial_dist - 1e-8)
    assert np.all(lam.sum(axis=1) <= 2.0 + 1e-8)


def test_adv_nash_policy_solves_one_program_per_state(gridworld2, monkeypatch):
    calls = count_calls(monkeypatch, atmg.extension, "find_feasible")
    adv_nash_policy(gridworld2, uniform_team_policy(gridworld2), 0.01)
    assert len(calls) == gridworld2.state_count
    assert all(lp.lhs.shape == (18, 4) for (lp,) in calls)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stitched_lambda_is_feasible_for_the_whole_program(seed):
    # Per-state solves find a point exactly when the whole program has one,
    # and the stitched point satisfies every row of it.  At eps0 the (a)
    # rows cannot bind harder than lambda = rho at a best-response action
    # allows, so the larger epsilons are feasible by construction; the
    # smaller ones may go either way.
    rng = np.random.default_rng(seed)
    for _ in range(4):
        S, sizes, B = random_game_dims(rng)
        spec = make_random_game(rng, S, sizes, B, float(rng.choice([0.0, 0.5, 0.9])))
        x = random_policies(rng, spec)[0]
        eps0 = np.abs(whole_program(build_lp_adv(spec, x, 0.0)).lhs).max()
        eps0 /= extension_constants(spec).c1
        for epsilon in (1e-3 * eps0, 0.1 * eps0, eps0, 3.0 * eps0, 10.0 * eps0):
            lp = whole_program(build_lp_adv(spec, x, epsilon))
            whole = find_feasible(lp).status
            try:
                _, lam = adv_nash_policy(spec, x, epsilon)
            except LpAdvInfeasibleError:
                assert whole == INFEASIBLE and epsilon < eps0
                continue
            assert whole == FEASIBLE
            assert residuals(lp, lam.ravel()) <= RESIDUAL_LIMIT


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


def nash_gap_games():
    rng = np.random.default_rng(8)
    games = [pytest.param(grid_world(2), id="grid2")]
    for i in range(3):
        S, sizes, B = random_game_dims(rng)
        games.append(pytest.param(make_random_game(rng, S + 1, sizes, B, 0.9), id=f"full{i}"))
    return games


@pytest.mark.parametrize("spec", nash_gap_games())
def test_nash_gap_at_the_memo_best_response_is_bitwise_the_fresh_report(spec):
    # nash_gap reads the base value and the adversary's best response off
    # x's memo; a copy of x without one evaluates both anew.
    x, _ = random_policies(np.random.default_rng(9), spec)
    y_star, _ = adversary_best_response(spec, x)
    memo = nash_gap(spec, x, y_star)
    copy = nash_gap(spec, TeamPolicy(tuple(block.copy() for block in x.blocks)), y_star)
    assert memo.team_gaps.tobytes() == copy.team_gaps.tobytes()
    assert memo.adversary_gap == copy.adversary_gap
    assert memo.epsilon_certified == copy.epsilon_certified


def test_loop_and_certificate_solve_count(gridworld2, monkeypatch):
    # grid3-certify's call pattern on grid_world(2): three loop steps, the
    # final best response, then the certificate.  Every policy iteration
    # here ends after one evaluation, so the loop steps take two solves
    # each (with the transposed one), the last iterate one, and each team
    # player's best response one.  The repeated best responses to the last
    # iterate and the certificate's base value come from the memo; without
    # it this pattern takes 12 solves.
    solves = count_calls(monkeypatch, atmg.mdp, "_solve")
    trace = run(gridworld2, None, IpgmaxConfig(eta=0.1, iters=3, iterate_selection="none"))
    x = trace.policies[-1]
    y, _ = adversary_best_response(gridworld2, x)
    nash_gap(gridworld2, x, y)
    assert len(solves) == 9


def test_grid3_certify_takes_one_evaluation_per_best_response(monkeypatch):
    # grid3-certify's call pattern on grid_world(3) from the uniform start.
    # Starting policy iteration from one value-iteration step lands every
    # best response here on its optimum, so each policy iteration builds
    # one chain: three loop steps of two solves, the last iterate one, and
    # the two team players one each.  From the myopic greedy start every
    # best response took a second sweep, 15 solves in all.  Under the
    # adversary's pure best response each chain here is acyclic apart from
    # self-loops, so every solve, transposed ones included, sweeps its
    # levels on the chain's row lists: none reaches LAPACK, and the whole
    # pattern peaks below one S x S float64 matrix.  Every adversary policy
    # here is a best response, whose skeleton hands it its support, so no
    # support is sorted.  Only the adversary's policy iterations build full
    # (S, J, B) continuation tables, two each (the start and v_hat); the
    # team players contract y's support slice alone.  The response moves at
    # every step here, so run never starts policy iteration from the last
    # one: from y(1), step 2 would take a second sweep.
    spec = grid_world(3)
    chains, tables = [], []
    real = atmg.mdp._policy_iteration
    real_mean = atmg.mdp._successor_mean

    def counted(spec, r, q_of, chain_of, start=None):
        chains.append(0)

        def chain(policy):
            chains[-1] += 1
            return chain_of(policy)

        return real(spec, r, q_of, chain, start)

    def mean(succ, prob, v):
        table = real_mean(succ, prob, v)
        tables.append(table.shape == spec.transition.succ.shape[:3])
        return table

    monkeypatch.setattr(atmg.mdp, "_policy_iteration", counted)
    monkeypatch.setattr(atmg.mdp, "_successor_mean", mean)
    solves = count_calls(monkeypatch, atmg.mdp, "_solve")
    lapack = count_calls(monkeypatch, np.linalg, "solve")
    sorts = count_calls(monkeypatch, np, "argsort")
    tracemalloc.start()
    try:
        trace = run(spec, None, IpgmaxConfig(eta=0.1, iters=3, iterate_selection="none"))
        x = trace.policies[-1]
        y, _ = adversary_best_response(spec, x)
        nash_gap(spec, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(solves) == 9
    assert chains == [1] * 6
    assert sum(tables) == 8
    assert lapack == []
    assert sorts == []
    assert peak < spec.state_count**2 * 8


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
