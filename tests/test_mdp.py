from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from atmg.game import GameSpec, grid_world
from atmg.mdp import (
    AdversaryPolicy,
    TeamPolicy,
    _player_mdp,
    _successor_mean,
    adversary_best_response,
    check_policies,
    induced_reward,
    induced_transition,
    marginal_reward_table,
    marginal_transition_table,
    policy_gradient,
    project_product_simplex,
    q_table,
    smoothness_constants,
    team_player_best_response,
    team_policy_from_vector,
    uniform_team_policy,
    value_rho,
    value_vector,
)
from conftest import (
    dense_transition,
    joint_index,
    make_mixed_support_game,
    make_random_game,
    pennies_game,
    random_game_dims,
    random_policies,
    uniform_adversary_policy,
)
from oracles import (
    adversary_policy_gradient,
    dense_marginal_transition,
    dense_player_transition,
    dense_successor_mean,
    q_table as oracle_q_table,
    visitation,
)


def single_state_game(rewards: np.ndarray, gamma: float) -> GameSpec:
    """1-state game with team action count taken from the reward matrix."""
    A, B = rewards.shape
    return GameSpec(
        state_count=1,
        team_sizes=(A,),
        adversary_actions=B,
        reward=rewards[None, :, :],
        transition=np.ones((1, A, B, 1)),
        discount=gamma,
        initial_dist=np.array([1.0]),
    )


# ---------------------------------------------------------------------------
# Induced chains and marginals
# ---------------------------------------------------------------------------

def test_induced_transition_point_mass_copies_rows():
    rng = np.random.default_rng(2)
    spec = make_random_game(rng, 3, (2, 2), 2, 0.5)
    x = TeamPolicy(blocks=(
        np.tile([1.0, 0.0], (3, 1)),
        np.tile([0.0, 1.0], (3, 1)),
    ))
    y = AdversaryPolicy(probs=np.tile([0.0, 1.0], (3, 1)))
    P = induced_transition(spec, x, y)
    j = joint_index(spec, (0, 1))
    for s in range(3):
        np.testing.assert_allclose(P[s], dense_transition(spec.transition)[s, j, 1], atol=1e-15)


def test_induced_transition_uniform_average():
    spec = single_state_game(np.array([[0.2, 0.8], [0.6, 0.4]]), 0.5)
    x = uniform_team_policy(spec)
    y = uniform_adversary_policy(spec)
    P = induced_transition(spec, x, y)
    np.testing.assert_allclose(P, [[1.0]], atol=1e-15)
    r = induced_reward(spec, x, y)
    assert r[0] == pytest.approx(0.5)


def test_induced_rows_stochastic_on_gridworld(gridworld2):
    rng = np.random.default_rng(7)
    x, y = random_policies(rng, gridworld2)
    P = induced_transition(gridworld2, x, y)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-10)
    r = induced_reward(gridworld2, x, y)
    assert np.all((r > 0.0) & (r < 1.0))


def test_marginals_match_definitions():
    rng = np.random.default_rng(9)
    spec = make_random_game(rng, 2, (2, 3), 2, 0.9)
    x, _ = random_policies(rng, spec)
    w = np.ones(spec.joint_action_count)
    digits = spec.action_digits
    for j in range(spec.joint_action_count):
        w[j] = x.blocks[0][0, digits[j, 0]] * x.blocks[1][0, digits[j, 1]]
    expect_r = w @ spec.reward[0, :, 1]
    assert marginal_reward_table(spec, x)[0, 1] == pytest.approx(expect_r, rel=1e-12)
    expect_P = w @ dense_transition(spec.transition)[0, :, 1, :]
    np.testing.assert_allclose(marginal_transition_table(spec, x)[0, 1], expect_P, rtol=1e-12)
    np.testing.assert_allclose(
        marginal_transition_table(spec, x).sum(axis=2), 1.0, atol=1e-12
    )


def test_marginal_multilinearity():
    # Mixing the per-action deviation values with x_k's own weights recovers
    # the fully mixed marginal.
    rng = np.random.default_rng(13)
    spec = make_random_game(rng, 2, (3,), 2, 0.5)
    x, _ = random_policies(rng, spec)
    mixed = marginal_reward_table(spec, x)
    acc = np.zeros_like(mixed)
    for a in range(3):
        e = np.zeros((2, 3))
        e[:, a] = 1.0
        acc += x.blocks[0][:, a][:, None] * marginal_reward_table(
            spec, TeamPolicy(blocks=(e,))
        )
    np.testing.assert_allclose(acc, mixed, rtol=1e-12)


def successor_list_games():
    """One game per support regime of the successor lists, with its K."""
    rng = np.random.default_rng(17)
    games = [pytest.param(grid_world(2), 1, id="grid2")]
    for i in range(3):
        S, sizes, B = random_game_dims(rng)
        games.append(pytest.param(make_random_game(rng, S, sizes, B, 0.9), S, id=f"full{i}"))
    for i in range(3):
        S, sizes, B = random_game_dims(rng)
        spec = make_mixed_support_game(rng, S + 2, sizes, B, 0.9)
        K = int(np.count_nonzero(dense_transition(spec.transition), axis=-1).max())
        games.append(pytest.param(spec, K, id=f"mixed{i}"))
    return games


@pytest.mark.parametrize("spec,K", successor_list_games())
def test_successor_list_contractions_match_dense_oracles(spec, K):
    assert spec.transition.succ.shape[-1] == K
    rng = np.random.default_rng(23)
    x, y = random_policies(rng, spec)
    v = rng.random(spec.state_count)
    np.testing.assert_allclose(
        marginal_transition_table(spec, x), dense_marginal_transition(spec, x), rtol=0, atol=1e-15
    )
    for k in range(spec.n_players):
        _, P_k = _player_mdp(spec, k, x, y)
        np.testing.assert_allclose(
            P_k, dense_player_transition(spec, k, x, y), rtol=0, atol=1e-15
        )
    np.testing.assert_allclose(
        _successor_mean(spec, v), dense_successor_mean(spec, v), rtol=0, atol=1e-15
    )


@pytest.mark.parametrize("spec,K", successor_list_games())
def test_q_table_matches_the_marginal_table_oracle(spec, K):
    # q_table gathers through the successor lists; the oracle contracts the
    # (S, B, S) marginal transition table.
    rng = np.random.default_rng(29)
    x, _ = random_policies(rng, spec)
    v = rng.random(spec.state_count) / (1.0 - spec.discount)
    np.testing.assert_allclose(q_table(spec, x, v), oracle_q_table(spec, x, v), rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# Values and visitation
# ---------------------------------------------------------------------------

def test_value_vector_geometric_series():
    spec = single_state_game(np.array([[0.5]]), 0.5)
    x = uniform_team_policy(spec)
    y = uniform_adversary_policy(spec)
    assert value_vector(spec, x, y)[0] == pytest.approx(1.0, rel=1e-14)


def test_value_vector_two_state_chain():
    # s0 -> s1 -> s1 with rewards (0.5, 0.25) and gamma = 0.5.
    transition = np.zeros((2, 1, 1, 2))
    transition[0, 0, 0, 1] = 1.0
    transition[1, 0, 0, 1] = 1.0
    reward = np.array([[[0.5]], [[0.25]]])
    spec = GameSpec(
        state_count=2, team_sizes=(1,), adversary_actions=1,
        reward=reward, transition=transition, discount=0.5,
        initial_dist=np.array([0.5, 0.5]),
    )
    v = value_vector(spec, uniform_team_policy(spec), uniform_adversary_policy(spec))
    np.testing.assert_allclose(v, [0.75, 0.5], rtol=1e-14)


def test_value_bounds_on_random_games():
    rng = np.random.default_rng(21)
    for _ in range(20):
        S, sizes, B = random_game_dims(rng)
        gamma = float(rng.choice([0.0, 0.5, 0.9]))
        spec = make_random_game(rng, S, sizes, B, gamma)
        x, y = random_policies(rng, spec)
        v = value_vector(spec, x, y)
        assert np.all(v > 0.0)
        assert np.all(v < 1.0 / (1.0 - gamma))


def test_value_vector_scales_with_rewards():
    # Round-off in the solve grows with the rewards; the residual check must
    # not mistake it for a failed solve.
    rng = np.random.default_rng(0)
    spec = make_random_game(rng, 4, (2,), 2, 0.9)
    x, y = random_policies(rng, spec)
    v = value_vector(spec, x, y)
    for scale in (1e6, 1e12):
        big = dataclasses.replace(spec, reward=spec.reward * scale)
        np.testing.assert_allclose(value_vector(big, x, y), scale * v, rtol=1e-12)


def test_visitation_identity_and_bounds():
    rng = np.random.default_rng(33)
    for _ in range(100):
        S, sizes, B = random_game_dims(rng)
        gamma = float(rng.choice([0.0, 0.5, 0.9]))
        spec = make_random_game(rng, S, sizes, B, gamma)
        x, y = random_policies(rng, spec)
        d = visitation(spec, x, y)
        assert d.sum() == pytest.approx(1.0 / (1.0 - gamma), abs=1e-10)
        assert np.all(d >= spec.initial_dist - 1e-12)
        assert np.all(d <= 1.0 / (1.0 - gamma) + 1e-12)
        lhs = value_rho(spec, x, y)
        rhs = float(d @ induced_reward(spec, x, y))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_visitation_gamma_zero_is_rho():
    spec = pennies_game()
    d = visitation(spec, uniform_team_policy(spec), uniform_adversary_policy(spec))
    np.testing.assert_allclose(d, spec.initial_dist, atol=1e-15)


def test_vec_inequality():
    rng = np.random.default_rng(17)
    for _ in range(20):
        S, sizes, B = random_game_dims(rng)
        spec = make_random_game(rng, S, sizes, B, 0.9)
        x, y = random_policies(rng, spec)
        P = induced_transition(spec, x, y)
        r = induced_reward(spec, x, y)
        v_guess = rng.uniform(0.0, 5.0, size=spec.state_count)
        c = r + 0.9 * P @ v_guess - v_guess + rng.uniform(0.0, 0.5, size=spec.state_count)
        v = value_vector(spec, x, y)
        M = np.eye(spec.state_count) - 0.9 * P
        bound = v_guess + np.linalg.solve(M, c)
        assert np.all(v <= bound + 1e-9)


# ---------------------------------------------------------------------------
# Best responses
# ---------------------------------------------------------------------------

def test_adversary_best_response_myopic():
    spec = single_state_game(np.array([[0.9, 0.1]]), 0.0)
    y, v = adversary_best_response(spec, uniform_team_policy(spec))
    np.testing.assert_array_equal(y.probs, [[1.0, 0.0]])
    assert v[0] == pytest.approx(0.9)


def test_adversary_best_response_single_state_discounted():
    spec = single_state_game(np.array([[0.3, 0.8, 0.6]]), 0.5)
    _, v = adversary_best_response(spec, uniform_team_policy(spec))
    assert v[0] == pytest.approx(0.8 / 0.5, rel=1e-10)


def test_adversary_best_response_tie_break_lowest_index():
    spec = single_state_game(np.array([[0.4, 0.7, 0.7]]), 0.5)
    y, _ = adversary_best_response(spec, uniform_team_policy(spec))
    np.testing.assert_array_equal(y.probs, [[0.0, 1.0, 0.0]])


def test_adversary_best_response_matches_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(20):
        spec = make_random_game(rng, 2, (2,), 2, 0.9)
        x, _ = random_policies(rng, spec)
        _, v_hat = adversary_best_response(spec, x)
        best = -np.inf
        for b0 in range(2):
            for b1 in range(2):
                probs = np.zeros((2, 2))
                probs[0, b0] = 1.0
                probs[1, b1] = 1.0
                val = value_rho(spec, x, AdversaryPolicy(probs=probs))
                best = max(best, val)
        assert float(spec.initial_dist @ v_hat) == pytest.approx(best, abs=1e-12)


def test_team_player_best_response_tie_break_lowest_index():
    # Actions 1-3 tie for the minimum: 0.1 + 0.2 exceeds 0.3 by one ulp,
    # which is within the tie tolerance, so the lowest index wins.
    spec = single_state_game(np.array([[0.9], [0.1 + 0.2], [0.3], [0.3]]), 0.5)
    x, y = uniform_team_policy(spec), uniform_adversary_policy(spec)
    table, value = team_player_best_response(spec, 0, x, y)
    np.testing.assert_array_equal(table, [[0.0, 1.0, 0.0, 0.0]])
    assert value == pytest.approx(0.6, rel=1e-12)


def test_team_player_best_response_pennies():
    spec = pennies_game()
    y = AdversaryPolicy(probs=np.array([[1.0, 0.0]]))
    table, value = team_player_best_response(spec, 0, uniform_team_policy(spec), y)
    np.testing.assert_array_equal(table, [[0.0, 1.0]])
    assert value == pytest.approx(0.1)


def test_team_player_best_response_matches_enumeration():
    rng = np.random.default_rng(43)
    for gamma in [0.5] * 20 + [0.9] * 20:
        spec = make_random_game(rng, 2, (2, 2), 2, gamma)
        x, y = random_policies(rng, spec)
        k = int(rng.integers(0, 2))
        _, value = team_player_best_response(spec, k, x, y)
        best = np.inf
        for d0 in range(2):
            for d1 in range(2):
                block = np.zeros((2, 2))
                block[0, d0] = 1.0
                block[1, d1] = 1.0
                x_dev = x.with_block(k, block)
                best = min(best, value_rho(spec, x_dev, y))
        assert value == pytest.approx(best, abs=1e-12)


def test_strategic_equivalence_of_best_responses():
    rng = np.random.default_rng(47)
    spec = make_random_game(rng, 3, (2, 2), 3, 0.5)
    shifted = GameSpec(
        state_count=spec.state_count,
        team_sizes=spec.team_sizes,
        adversary_actions=spec.adversary_actions,
        reward=spec.reward + 0.3,
        transition=spec.transition,
        discount=spec.discount,
        initial_dist=spec.initial_dist,
    )
    x, y = random_policies(rng, spec)
    y1, v1 = adversary_best_response(spec, x)
    y2, v2 = adversary_best_response(shifted, x)
    np.testing.assert_array_equal(y1.probs, y2.probs)
    np.testing.assert_allclose(v2 - v1, 0.3 / 0.5, atol=1e-9)
    t1, w1 = team_player_best_response(spec, 1, x, y)
    t2, w2 = team_player_best_response(shifted, 1, x, y)
    np.testing.assert_array_equal(t1, t2)
    assert w2 - w1 == pytest.approx(0.3 / 0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def test_policy_gradient_bilinear_case():
    spec = pennies_game()
    x = TeamPolicy(blocks=(np.array([[0.3, 0.7]]),))
    y = AdversaryPolicy(probs=np.array([[0.6, 0.4]]))
    grad = policy_gradient(spec, x, y)
    R = spec.reward[0]
    np.testing.assert_allclose(grad, R @ y.probs[0], rtol=1e-14)


def test_policy_gradient_finite_differences():
    rng = np.random.default_rng(51)
    spec = make_random_game(rng, 3, (2, 2), 2, 0.9)
    x, y = random_policies(rng, spec)
    grad = policy_gradient(spec, x, y)
    fd = finite_difference_gradient(spec, x, y, h=1e-6)
    scale = max(1.0, float(np.abs(fd).max()))
    assert float(np.abs(grad - fd).max()) / scale < 1e-5


def finite_difference_gradient(spec, x, y, h):
    """Central differences of V_rho in the raw team coordinates.

    Evaluates the value formula directly from the game tensors so the check
    is independent of the library's induced-chain helpers; the perturbed
    policies leave the simplex, which the formula tolerates for small h.
    """
    def vrho(blocks):
        w = np.ones((spec.state_count, spec.joint_action_count))
        digits = spec.action_digits
        for k, block in enumerate(blocks):
            w = w * block[:, digits[:, k]]
        P = np.einsum("sj,sb,sjbt->st", w, y.probs, dense_transition(spec.transition))
        r = np.einsum("sj,sb,sjb->s", w, y.probs, spec.reward)
        v = np.linalg.solve(np.eye(spec.state_count) - spec.discount * P, r)
        return float(spec.initial_dist @ v)

    out = []
    for k in range(spec.n_players):
        block = x.blocks[k]
        g = np.zeros_like(block)
        for s in range(spec.state_count):
            for a in range(block.shape[1]):
                up = [b.copy() for b in x.blocks]
                dn = [b.copy() for b in x.blocks]
                up[k][s, a] += h
                dn[k][s, a] -= h
                g[s, a] = (vrho(up) - vrho(dn)) / (2.0 * h)
        out.append(g.ravel())
    return np.concatenate(out)


def test_gradient_norm_bounded_by_lipschitz_constant():
    rng = np.random.default_rng(53)
    spec = make_random_game(rng, 2, (2,), 2, 0.5)
    L = smoothness_constants(spec).L
    for _ in range(50):
        x, y = random_policies(rng, spec)
        assert np.linalg.norm(policy_gradient(spec, x, y)) <= L + 1e-12


def test_adversary_policy_gradient_finite_differences():
    rng = np.random.default_rng(57)
    spec = make_random_game(rng, 2, (2,), 3, 0.5)
    x, y = random_policies(rng, spec)
    grad = adversary_policy_gradient(spec, x, y)
    h = 1e-6
    fd = np.zeros_like(y.probs)
    for s in range(2):
        for b in range(3):
            up = y.probs.copy(); up[s, b] += h
            dn = y.probs.copy(); dn[s, b] -= h
            r_x = marginal_reward_table(spec, x)
            P_x = marginal_transition_table(spec, x)
            def val(probs):
                P = np.einsum("sb,sbt->st", probs, P_x)
                r = np.einsum("sb,sb->s", probs, r_x)
                v = np.linalg.solve(np.eye(2) - 0.5 * P, r)
                return float(spec.initial_dist @ v)
            fd[s, b] = (val(up) - val(dn)) / (2.0 * h)
    scale = max(1.0, float(np.abs(fd).max()))
    assert float(np.abs(grad - fd.ravel()).max()) / scale < 1e-5


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def test_projection_known_blocks():
    spec = single_state_game(np.full((2, 2), 0.5), 0.5)
    assert np.allclose(
        project_product_simplex(spec, np.array([0.6, 0.6])).blocks[0], [[0.5, 0.5]]
    )
    assert np.allclose(
        project_product_simplex(spec, np.array([2.0, 0.0])).blocks[0], [[1.0, 0.0]]
    )
    spec3 = single_state_game(np.full((3, 2), 0.5), 0.5)
    np.testing.assert_allclose(
        project_product_simplex(spec3, np.array([0.3, 0.3, 0.4])).blocks[0],
        [[0.3, 0.3, 0.4]],
        atol=1e-15,
    )


def test_projection_feasible_and_nonexpansive():
    rng = np.random.default_rng(61)
    spec = make_random_game(rng, 3, (2, 3), 2, 0.5)
    dim = sum(3 * a for a in spec.team_sizes)
    for _ in range(50):
        z1 = rng.normal(size=dim) * 3.0
        z2 = rng.normal(size=dim) * 3.0
        p1 = project_product_simplex(spec, z1)
        p2 = project_product_simplex(spec, z2)
        check_policies(spec, p1)
        check_policies(spec, p2)
        assert (
            np.linalg.norm(p1.as_vector() - p2.as_vector())
            <= np.linalg.norm(z1 - z2) + 1e-12
        )


def test_projection_is_euclidean_argmin():
    rng = np.random.default_rng(63)
    spec = single_state_game(np.full((3, 2), 0.5), 0.5)
    for _ in range(20):
        z = rng.normal(size=3) * 2.0
        p = project_product_simplex(spec, z).blocks[0][0]
        # compare against a fine grid over the 2-simplex
        best = None
        for i in np.linspace(0.0, 1.0, 201):
            for j in np.linspace(0.0, 1.0 - i, max(2, int(201 * (1.0 - i)) + 1)):
                q = np.array([i, j, 1.0 - i - j])
                d = np.sum((q - z) ** 2)
                if best is None or d < best:
                    best = d
        assert np.sum((p - z) ** 2) <= best + 1e-4


# ---------------------------------------------------------------------------
# Smoothness constants
# ---------------------------------------------------------------------------

def test_smoothness_closed_forms():
    rng = np.random.default_rng(65)
    spec = make_random_game(rng, 2, (2,), 2, 0.5)
    sm = smoothness_constants(spec)
    assert sm.L == pytest.approx(8.0, rel=1e-15)
    assert sm.ell == pytest.approx(64.0, rel=1e-15)

    uniform_rho = GameSpec(
        state_count=2, team_sizes=(2,), adversary_actions=2,
        reward=spec.reward, transition=spec.transition, discount=0.5,
        initial_dist=np.array([0.5, 0.5]),
    )
    assert smoothness_constants(uniform_rho).D_bar == pytest.approx(4.0, rel=1e-15)


def test_smoothness_monotone_in_discount():
    rng = np.random.default_rng(67)
    lo = make_random_game(rng, 2, (2,), 2, 0.5)
    hi = GameSpec(
        state_count=2, team_sizes=(2,), adversary_actions=2,
        reward=lo.reward, transition=lo.transition, discount=0.9,
        initial_dist=lo.initial_dist,
    )
    a, b = smoothness_constants(lo), smoothness_constants(hi)
    assert b.L > a.L and b.ell > a.ell and b.D_bar > a.D_bar


def test_team_policy_vector_round_trip():
    rng = np.random.default_rng(69)
    spec = make_random_game(rng, 2, (2, 3), 2, 0.5)
    x, _ = random_policies(rng, spec)
    vec = x.as_vector()
    back = team_policy_from_vector(spec, vec)
    for b1, b2 in zip(back.blocks, x.blocks):
        np.testing.assert_array_equal(b1, b2)
