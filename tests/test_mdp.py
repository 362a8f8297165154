from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

import atmg.mdp
from atmg import cli
from atmg.extension import build_lp_adv, nash_gap
from atmg.game import GameSpec, Transitions, grid_world, validate
from atmg.mdp import (
    AdversaryPolicy,
    TeamPolicy,
    _SKELETONS,
    _TIE_RTOL,
    _bellman_rows,
    _adversary_q,
    _chain_rows,
    _next_mean,
    _project_simplex_rows,
    _skeleton,
    _solve,
    _successor_mean,
    _support,
    adversary_best_response,
    check_policies,
    policy_gradient,
    project_product_simplex,
    smoothness_constants,
    team_player_best_response,
    uniform_team_policy,
    value_rho,
    value_vector,
)
from conftest import (
    count_calls,
    dense_transition,
    joint_index,
    make_mixed_support_game,
    make_random_game,
    pennies_game,
    random_game_dims,
    random_policies,
    team_policy_from_vector,
    uniform_adversary_policy,
    with_block,
)
from oracles import (
    adversary_policy_gradient,
    chain,
    chain_rows,
    dense_marginal_transition,
    dense_player_transition,
    dense_successor_mean,
    full_table_adversary_best_response,
    full_table_player_best_response,
    induced_reward,
    induced_transition,
    joint_action_distribution,
    marginal_reward_table,
    q_table as oracle_q_table,
    team_policy_gradient,
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


def pure_adversary_policy(spec: GameSpec, b) -> AdversaryPolicy:
    """The adversary playing action b[s] in state s; b may be one action for all states."""
    actions = np.broadcast_to(b, (spec.state_count,))
    return AdversaryPolicy(np.eye(spec.adversary_actions)[actions])


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
    np.testing.assert_allclose(
        induced_transition(spec, x, pure_adversary_policy(spec, 1))[0], expect_P, rtol=1e-12
    )
    for b in range(spec.adversary_actions):
        np.testing.assert_allclose(
            induced_transition(spec, x, pure_adversary_policy(spec, b)).sum(axis=1), 1.0, atol=1e-12
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
    # induced_transition at every pure adversary action is the marginal
    # table's slice, and at every action player k pins, its deviation
    # table's slice.
    states = np.arange(spec.state_count)
    P_x = dense_marginal_transition(spec, x)
    for b in range(spec.adversary_actions):
        np.testing.assert_allclose(
            induced_transition(spec, x, pure_adversary_policy(spec, b)), P_x[:, b],
            rtol=0, atol=1e-15,
        )
    varying = rng.integers(spec.adversary_actions, size=spec.state_count)
    np.testing.assert_allclose(
        induced_transition(spec, x, pure_adversary_policy(spec, varying)),
        P_x[states, varying], rtol=0, atol=1e-15,
    )
    for k, size in enumerate(spec.team_sizes):
        P_k = dense_player_transition(spec, k, x, y)
        for a in range(size):
            pinned = with_block(x, k, np.tile(np.eye(size)[a], (spec.state_count, 1)))
            np.testing.assert_allclose(
                induced_transition(spec, pinned, y), P_k[:, a], rtol=0, atol=1e-15
            )
    np.testing.assert_allclose(
        _successor_mean(spec.transition.succ, spec.transition.prob, v),
        dense_successor_mean(spec, v), rtol=0, atol=1e-15,
    )


@pytest.mark.parametrize("spec,K", successor_list_games())
def test_q_table_matches_the_marginal_table_oracle(spec, K):
    # build_lp_adv's (b) rows carry q(s, b) - v(s) at x's best-response
    # value v, gathered through the successor lists; the oracle contracts
    # the (S, B, S) marginal transition table.
    rng = np.random.default_rng(29)
    x, _ = random_policies(rng, spec)
    _, v = adversary_best_response(spec, x)
    A, B = spec.sum_team_actions, spec.adversary_actions
    slack = np.array([lp.lhs[A : A + B].sum(axis=1) for lp in build_lp_adv(spec, x, 0.0)])
    np.testing.assert_allclose(
        slack, oracle_q_table(spec, x, v) - v[:, None], rtol=0, atol=1e-14
    )


@pytest.mark.parametrize("spec,K", successor_list_games())
def test_policy_iteration_rewards_are_q_at_zero(spec, K, monkeypatch):
    # Each best response passes policy iteration its reward table, which
    # is its q_of at v = 0 exactly: the adversary's and each team player's.
    x, y = random_policies(np.random.default_rng(31), spec)
    seen = []
    real = atmg.mdp._policy_iteration

    def spy(spec, r, q_of, chain_of, start=None):
        seen.append((r, q_of(np.zeros(spec.state_count))))
        return real(spec, r, q_of, chain_of, start)

    monkeypatch.setattr(atmg.mdp, "_policy_iteration", spy)
    adversary_best_response(spec, x)
    for k in range(spec.n_players):
        team_player_best_response(spec, k, x, y)
    assert len(seen) == 1 + spec.n_players
    for r, at_zero in seen:
        np.testing.assert_array_equal(r, at_zero)


def test_deterministic_successor_mean_is_the_reduction_bit_for_bit(gridworld2):
    # Grid moves are deterministic (K = 1).  A sum over the length-1 axis
    # returns its one term (save the sign of a zero term: -0.0 comes back
    # +0.0), and a certain game's prob, passed as None, reads the term alone.
    T = gridworld2.transition
    assert T.succ.shape[-1] == 1 and T.certain
    v = np.random.default_rng(33).normal(size=gridworld2.state_count)
    reduction = (T.prob * v[T.succ]).sum(-1).tobytes()
    assert _successor_mean(T.succ, T.prob, v).tobytes() == reduction
    assert _successor_mean(T.succ, None, v).tobytes() == reduction


@pytest.mark.parametrize("spec,K", [
    pytest.param(grid_world(2), 1, id="grid2"),
    pytest.param(make_random_game(np.random.default_rng(41), 5, (2, 2), 3, 0.9), 5, id="stochastic"),
])
def test_next_mean_fills_one_fresh_table(spec, K):
    # E[v(next)] is the successor mean of the game's lists in a fresh table
    # that shares no memory with the game.  On the deterministic grid the
    # dense oracle has its bits too; on K > 1 successors it sums in another
    # order, so it agrees to round-off.
    T = spec.transition
    assert T.succ.shape[-1] == K
    v = np.random.default_rng(43).normal(size=spec.state_count)
    nxt = _next_mean(spec, v)
    assert nxt.tobytes() == _successor_mean(T.succ, T.prob, v).tobytes()
    dense = dense_successor_mean(spec, v)
    if K == 1:
        assert nxt.tobytes() == dense.tobytes()
    np.testing.assert_allclose(nxt, dense, rtol=0, atol=1e-15)
    for table in (spec.reward, T.prob, T.succ, v, _next_mean(spec, v)):
        assert not np.shares_memory(nxt, table)


def test_one_sweep_best_response_gathers_the_continuation_twice(gridworld2, monkeypatch):
    # The adversary's backup and its table of expected next values, once for
    # the value-iteration step that starts policy iteration, once at v_hat;
    # the rewards are not gathered at v = 0.  One sweep builds one chain.
    chains = count_calls(monkeypatch, atmg.mdp, "_chain_rows")
    tables = count_calls(monkeypatch, atmg.mdp, "_next_mean")
    gathers = count_calls(monkeypatch, atmg.mdp, "_adversary_q")
    _, v_hat = adversary_best_response(gridworld2, uniform_team_policy(gridworld2))
    assert len(chains) == 1
    assert len(gathers) == 2
    assert len(tables) == 2
    assert tables[1][1] is v_hat


def test_only_the_gradient_builds_an_on_support_table(gridworld2, monkeypatch):
    # A best response on a memo miss builds no _on_support table of y_star;
    # policy_gradient builds one, on a memo hit or a miss.
    tables = count_calls(monkeypatch, atmg.mdp, "_on_support")
    x = uniform_team_policy(gridworld2)
    adversary_best_response(gridworld2, x)
    assert tables == []
    policy_gradient(gridworld2, x)
    policy_gradient(gridworld2, TeamPolicy(x.blocks))
    assert len(tables) == 2


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
# The solver: level substitution on acyclic chains, dense on cyclic ones
# ---------------------------------------------------------------------------

def layered_chain(rng: np.random.Generator, S: int, depth: int):
    """(P, layer): a random permutation of a lower-triangular chain with
    self-loops.  The states fall in `depth` layers; layer 0 only loops, and
    every other state loops, moves to a state of the layer just below and
    maybe to further states below."""
    layer = rng.permutation(np.concatenate([np.arange(depth), rng.integers(0, depth, S - depth)]))
    P = np.diag(rng.uniform(0.1, 1.0, S))
    for s in np.flatnonzero(layer > 0):
        below = np.flatnonzero(layer < layer[s])
        P[s, below] = rng.uniform(0.1, 1.0, below.size) * (rng.random(below.size) < 0.3)
        P[s, rng.choice(np.flatnonzero(layer == layer[s] - 1))] = rng.uniform(0.1, 1.0)
    return P / P.sum(axis=1, keepdims=True), layer


def bellman_rows(P: np.ndarray, gamma: float):
    """_bellman_rows of the dense chain P, whose row lists keep each row's
    nonzeros in column order, padded with zero entries to the widest row.
    Its last entry is the level of each state, or None."""
    T = Transitions.from_dense(P)
    return _bellman_rows((T.succ, T.prob), gamma, T.succ == np.arange(P.shape[0])[:, None])


def test_acyclic_chains_solve_both_ways_from_one_schedule(monkeypatch):
    rng = np.random.default_rng(83)
    lapack = count_calls(monkeypatch, np.linalg, "solve")
    for S in range(1, 41):
        depth = int(rng.integers(1, min(S, atmg.mdp._MAX_LEVELS) + 1))
        P, layer = layered_chain(rng, S, depth)
        gamma = rng.uniform(0.0, 0.99)
        M = bellman_rows(P, gamma)
        assert M[-1].tolist() == layer.tolist()
        b = rng.uniform(0.05, 0.95, S)
        z, d = _solve(M, b), _solve(M, b, transpose=True)
        assert lapack == []
        dense = np.eye(S) - gamma * P
        np.testing.assert_allclose(z, np.linalg.solve(dense, b), rtol=1e-12)
        np.testing.assert_allclose(d, np.linalg.solve(dense.T, b), rtol=1e-12)
        lapack.clear()


def test_a_schedule_one_level_short_fails_the_residual_check():
    # The residual is taken with a fresh carry, so a solve whose schedule stops
    # one level short of the chain's depth (1 to 4) is caught in both
    # directions, and the true schedule passes.
    rng = np.random.default_rng(211)
    for depth in range(1, 5):
        for S in range(depth + 1, depth + 40):
            P, _ = layered_chain(rng, S, depth + 1)
            M = bellman_rows(P, rng.uniform(0.05, 0.99))
            assert M[-1].max() == depth
            short = (*M[:-1], np.minimum(M[-1], depth - 1))
            b = rng.uniform(0.05, 0.95, S)
            for transpose in (False, True):
                _solve(M, b, transpose)
                with pytest.raises(RuntimeError, match="out of tolerance"):
                    _solve(short, b, transpose)


def test_cyclic_chains_solve_densely_bit_for_bit():
    # A full-support chain, a ring with self-loops, and a layered chain with
    # one edge back up a downward path, which peels part way and then stalls.
    rng = np.random.default_rng(89)
    for S in range(2, 41):
        perm = rng.permutation(S)
        ring = 0.5 * np.eye(S)
        ring[perm, np.roll(perm, 1)] += 0.5
        P, layer = layered_chain(rng, S, int(rng.integers(2, min(S, 8) + 1)))
        top = s = int(np.argmax(layer))
        while layer[s] > 0:
            s = int(np.flatnonzero((P[s] > 0) & (layer == layer[s] - 1))[0])
        P[s, top] = 1.0
        for P in (rng.dirichlet(np.ones(S), size=S), ring, P / P.sum(axis=1, keepdims=True)):
            gamma = rng.uniform(0.0, 0.99)
            M = bellman_rows(P, gamma)
            assert M[-1] is None
            dense = np.eye(S) - gamma * P
            b = rng.uniform(0.05, 0.95, S)
            assert _solve(M, b).tobytes() == np.linalg.solve(dense, b).tobytes()
            assert _solve(M, b, transpose=True).tobytes() == np.linalg.solve(dense.T, b).tobytes()


@pytest.mark.parametrize("S", [1, 5])
@pytest.mark.parametrize("gamma", [0.0, 0.9])
def test_an_all_self_loop_chain_is_one_level(S, gamma):
    M = bellman_rows(np.eye(S), gamma)
    assert M[-1].tolist() == [0] * S
    b = np.random.default_rng(97).uniform(0.05, 0.95, S)
    assert _solve(M, b).tobytes() == (b / (1.0 - gamma)).tobytes()
    assert _solve(M, b, transpose=True).tobytes() == (b / (1.0 - gamma)).tobytes()


def path_chain(S: int, rng: np.random.Generator) -> np.ndarray:
    """A permuted path: state i loops or moves to state i - 1, state 0 loops.
    Its schedule has S levels."""
    P = 0.5 * np.eye(S) + 0.5 * np.eye(S, k=-1)
    P[0, 0] = 1.0
    perm = rng.permutation(S)
    return P[np.ix_(perm, perm)]


@pytest.mark.parametrize("S", [200, 730])
def test_a_chain_deeper_than_the_level_cap_solves_densely(S, monkeypatch):
    rng = np.random.default_rng(S)
    P, b = path_chain(S, rng), rng.uniform(0.05, 0.95, S)
    M = bellman_rows(P, 0.99)
    assert M[-1] is None
    lapack = count_calls(monkeypatch, np.linalg, "solve")
    z, d = _solve(M, b), _solve(M, b, transpose=True)
    assert len(lapack) == 2
    # Swept level by level without the cap, the same chain gives the same
    # solution to round-off.
    monkeypatch.setattr(atmg.mdp, "_MAX_LEVELS", S)
    M = bellman_rows(P, 0.99)
    assert sorted(M[-1].tolist()) == list(range(S))
    np.testing.assert_allclose(_solve(M, b), z, rtol=1e-12)
    np.testing.assert_allclose(_solve(M, b, transpose=True), d, rtol=1e-12)
    assert len(lapack) == 2


def test_a_chain_as_deep_as_the_level_cap_is_substituted():
    depth = atmg.mdp._MAX_LEVELS
    M = bellman_rows(path_chain(depth, np.random.default_rng(101)), 0.99)
    assert sorted(M[-1].tolist()) == list(range(depth))


def unequal_support_games():
    """grid_world(2) and random full-support games."""
    rng = np.random.default_rng(103)
    games = [pytest.param(grid_world(2), id="grid2")]
    for i in range(4):
        S, sizes, B = random_game_dims(rng)
        spec = make_random_game(rng, max(S, 3), sizes, max(B, 3), 0.9)
        games.append(pytest.param(spec, id=f"full{i}"))
    return games


def unequal_support_table(rng: np.random.Generator, S: int, B: int) -> np.ndarray:
    """A random (S, B) adversary table whose rows play 1, 2 or all B
    actions, each kind on about a third of the states."""
    probs = np.zeros((S, B))
    for s, kind in enumerate(rng.permutation(np.arange(S) % 3)):
        acts = rng.choice(B, size=(1, 2, B)[kind], replace=False)
        probs[s, acts] = rng.dirichlet(np.ones(acts.size))
    return probs


@pytest.mark.parametrize("spec", unequal_support_games())
def test_value_vector_on_rows_of_unequal_support(spec):
    # The adversary's table mixes pure, two-action and full rows, so the
    # chain's rows are compacted to each state's support and padded to the
    # widest; a pure table gives the rows built on its skeleton exactly.
    rng = np.random.default_rng(107)
    S, B = spec.state_count, spec.adversary_actions
    x, _ = random_policies(rng, spec)
    probs = unequal_support_table(rng, S, B)
    y = AdversaryPolicy(probs)
    P = np.einsum("sb,sbt->st", probs, dense_marginal_transition(spec, x))
    expect = np.linalg.solve(np.eye(S) - spec.discount * P, induced_reward(spec, x, y))
    np.testing.assert_allclose(value_vector(spec, x, y), expect, rtol=1e-12)
    acts, p = _support(y)
    assert acts.shape == (S, B)
    assert (np.count_nonzero(p, axis=1) == np.count_nonzero(probs, axis=1)).all()
    policy = rng.integers(B, size=S)
    pure = AdversaryPolicy(np.eye(B)[policy])
    w = joint_action_distribution(spec, x)
    rows = chain_rows(spec, w, *_support(pure))
    M = _chain_rows(spec, w, policy[:, None])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(rows[:3], M[:3]))
    v = _solve(M, marginal_reward_table(spec, x)[np.arange(S), policy])
    assert value_vector(spec, x, pure).tobytes() == v.tobytes()


# ---------------------------------------------------------------------------
# Skeletons of adversary supports
# ---------------------------------------------------------------------------

def layered_game(rng: np.random.Generator, S: int, back_edge: bool = False) -> GameSpec:
    """Random game, team (2, 2) against 3 adversary actions, where every
    (s, j, b) row moves to up to 3 of the states s..S-1 (S-1 absorbs), so the
    full pattern of every adversary support is acyclic.  back_edge adds a move
    from S-1 to 0 under joint team action 0, which makes every pattern cyclic
    unless that action has weight zero in state S-1."""
    spec = make_random_game(rng, S, (2, 2), 3, 0.9)
    dense = np.zeros((S, spec.joint_action_count, 3, S))
    for s, j, b in np.ndindex(dense.shape[:3]):
        succ = rng.choice(np.arange(s, S), size=min(3, S - s), replace=False)
        dense[s, j, b, succ] = rng.dirichlet(np.ones(succ.size))
    if back_edge:
        dense[S - 1, 0, :, 0] = 0.5
        dense[S - 1, 0, :, S - 1] = 0.5
    return dataclasses.replace(spec, transition=dense)


def team_blocks(rng: np.random.Generator, spec: GameSpec, zeros: bool) -> tuple:
    """A random team policy's blocks; with zeros, about half of each
    player's entries are exactly zero."""
    blocks = []
    for a in spec.team_sizes:
        block = rng.dirichlet(np.ones(a), size=spec.state_count)
        if zeros:
            block = block * (rng.random(block.shape) < 0.5)
            block[np.arange(spec.state_count), rng.integers(a, size=spec.state_count)] += 0.1
            block /= block.sum(axis=1, keepdims=True)
        blocks.append(block)
    return tuple(blocks)


def team_weights(rng: np.random.Generator, spec: GameSpec, zeros: bool) -> np.ndarray:
    """Joint team weights of a random team_blocks policy."""
    return joint_action_distribution(spec, TeamPolicy(team_blocks(rng, spec, zeros)))


def assert_skeleton_rows_match(rng, spec, w, acts, p=None):
    """Check that the rows built on the skeleton of acts, at its first use
    and at a later one, and both of their solves equal those of the chain
    built from scratch, byte for byte.  Returns the later use's schedule and
    the chain's own."""
    chain = chain_rows(spec, w, acts, p)
    b = rng.uniform(-1.0, 1.0, spec.state_count)
    for _ in range(2):
        M = _chain_rows(spec, w, acts, p)
        for got, want in zip(M[:3], chain[:3]):
            assert got.tobytes() == want.tobytes()
        assert _solve(M, b).tobytes() == _solve(chain, b).tobytes()
        assert _solve(M, b, transpose=True).tobytes() == _solve(chain, b, transpose=True).tobytes()
    return M[-1], chain[-1]


def test_skeleton_rows_and_solves_match_the_chain_bit_for_bit():
    rng = np.random.default_rng(131)
    for S in range(2, 9):
        spec = layered_game(rng, S)
        assert spec.transition.succ.shape[-1] >= 2
        for _ in range(3):
            policy = rng.integers(3, size=S)
            w = team_weights(rng, spec, False)
            levels, own = assert_skeleton_rows_match(rng, spec, w, policy[:, None])
            assert levels is not None and own is not None
            assert levels.max() >= own.max()


def test_skeleton_schedule_deeper_than_the_chains_keeps_the_bits():
    # Zero team weights drop edges of the full pattern, so the chain's own
    # schedule can be shallower than the skeleton's, which the solves sweep.
    rng = np.random.default_rng(137)
    deeper = 0
    for S in range(3, 9):
        spec = layered_game(rng, S)
        for _ in range(4):
            policy = rng.integers(3, size=S)
            w = team_weights(rng, spec, True)
            levels, own = assert_skeleton_rows_match(rng, spec, w, policy[:, None])
            assert levels.max() >= own.max()
            deeper += levels.max() > own.max()
    assert deeper >= 5


def test_cyclic_full_pattern_falls_back_to_the_chains_own_schedule():
    rng = np.random.default_rng(139)
    for S in range(2, 9):
        spec = layered_game(rng, S, back_edge=True)
        acts = rng.integers(3, size=(S, 1))
        # With joint action 0 weighted in state S-1 the chain is cyclic too
        # and is solved densely; without it, it has a schedule of its own.
        w = team_weights(rng, spec, False)
        assert assert_skeleton_rows_match(rng, spec, w, acts) == (None, None)
        assert atmg.mdp._skeleton(spec, acts)[3] is None
        w[S - 1, 0] = 0.0
        levels, own = assert_skeleton_rows_match(rng, spec, w, acts)
        assert own is not None and levels.tobytes() == own.tobytes()


def test_mixed_support_rows_and_solves_match_the_chain_bit_for_bit():
    # Rows of unequal support are padded with actions of probability zero,
    # whose moves are in the skeleton's full pattern but not in the chain.
    # The pure support of each support's first column is built first, so a
    # skeleton keyed by less than the whole support would be the wrong one.
    rng = np.random.default_rng(157)
    fallbacks = cyclic = 0
    for S in range(2, 9):
        games = (layered_game(rng, S), layered_game(rng, S, back_edge=True),
                 make_mixed_support_game(rng, S, (2, 2), 3, 0.9))
        for spec in games:
            for zeros in (False, True):
                acts, p = _support(AdversaryPolicy(unequal_support_table(rng, S, 3)))
                w = team_weights(rng, spec, zeros)
                w[S - 1, 0] *= not zeros  # with zeros, the chain keeps no back edge
                assert_skeleton_rows_match(rng, spec, w, acts[:, :1])
                levels, own = assert_skeleton_rows_match(rng, spec, w, acts, p)
                assert (levels is None) == (own is None)
                assert own is None or levels.max() >= own.max()
                full = atmg.mdp._skeleton(spec, acts)[3]
                fallbacks += full is None and own is not None
                cyclic += own is None
    assert fallbacks >= 5 and cyclic >= 5


@pytest.mark.parametrize("back_edge", [False, True])
def test_best_responses_on_skeletons_match_the_chain_path(back_edge, monkeypatch):
    rng = np.random.default_rng(149 + back_edge)
    cases = []
    for S in (2, 5, 8):
        spec = layered_game(rng, S, back_edge)
        for zeros in (False, True):
            blocks = team_blocks(rng, spec, zeros)
            pure = AdversaryPolicy(np.eye(3)[rng.integers(3, size=S)])
            cases.append((spec, blocks, pure, AdversaryPolicy(unequal_support_table(rng, S, 3))))

    def outputs():
        out = []
        for spec, blocks, *ys in cases:
            x = TeamPolicy(blocks)
            y_star, v_hat, grad = policy_gradient(spec, x)
            # The memo hit's rows are built on y_star's skeleton again.
            out += [y_star.probs, v_hat, grad, policy_gradient(spec, x)[2]]
            for y in ys:
                out.append(value_vector(spec, x, y))
                for k in range(spec.n_players):
                    table, value = team_player_best_response(spec, k, x, y)
                    out += [table, np.array(value)]
        return [a.tobytes() for a in out]

    on_skeletons = outputs()
    monkeypatch.setattr(atmg.mdp, "_chain_rows", chain_rows)
    assert outputs() == on_skeletons


def test_a_skeleton_is_built_whole_at_its_first_use(monkeypatch):
    # The full pattern is scheduled once, when its skeleton is built, and a
    # hit schedules nothing.  A pure support's one-hot policy is built with
    # it and shared by every team policy with that best response; a mixed
    # support has none.
    rng = np.random.default_rng(163)
    spec = layered_game(rng, 6)
    x = TeamPolicy(team_blocks(rng, spec, False))
    levels = count_calls(monkeypatch, atmg.mdp, "_levels")
    y, _ = adversary_best_response(spec, x)
    built = len(levels)
    assert built == len(spec._skeletons)
    policy = y.probs.argmax(axis=1)[:, None]
    assert atmg.mdp._skeleton(spec, policy)[4] is y
    policy_gradient(spec, x)
    value_vector(spec, x, y)
    assert adversary_best_response(spec, TeamPolicy(x.blocks))[0] is y
    assert len(levels) == built
    acts, p = _support(AdversaryPolicy(unequal_support_table(rng, 6, 3)))
    w = team_weights(rng, spec, False)
    for _ in range(3):
        _chain_rows(spec, w, acts, p)
    assert len(levels) == built + 1
    assert atmg.mdp._skeleton(spec, acts)[4] is None


def test_a_pure_skeleton_hands_its_policy_the_support_unsorted(monkeypatch):
    # The one-hot y of a pure skeleton carries its support: _support returns
    # a read-only copy of the skeleton's acts and None weights without a
    # sort.  A fresh policy with the same table sorts once to the same support.
    rng = np.random.default_rng(167)
    spec = layered_game(rng, 6)
    acts = rng.integers(3, size=(6, 1))
    sorts = count_calls(monkeypatch, np, "argsort")
    y = _skeleton(spec, acts)[4]
    got = _support(y)
    assert sorts == []
    assert got[0].tobytes() == acts.tobytes() and got[0].dtype == acts.dtype
    assert got[1] is None
    acts[0, 0] = (acts[0, 0] + 1) % 3  # the memo holds its own copy
    assert _support(y)[0].tobytes() != acts.tobytes()
    fresh = AdversaryPolicy(y.probs)
    sorted_support = _support(fresh)
    assert len(sorts) == 1
    assert _support(fresh) is sorted_support and len(sorts) == 1
    assert sorted_support[0].tobytes() == got[0].tobytes() and sorted_support[1] is None
    mixed = _support(AdversaryPolicy(unequal_support_table(rng, 6, 3)))
    for arr in (got[0], sorted_support[0], *mixed):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0


def pure_policy_games():
    rng = np.random.default_rng(193)
    return [
        pytest.param(grid_world(2), id="certain"),
        pytest.param(layered_game(rng, 6), id="layered"),
        pytest.param(make_random_game(rng, 5, (2, 3), 3, 0.9), id="random"),
    ]


@pytest.mark.parametrize("spec", pure_policy_games())
def test_every_pure_policy_carries_none_weights(spec):
    # None is the one spelling of weights all exactly 1.0: a skeleton's y, a
    # copy of it, its np.eye table and the same table read back from a
    # policies file all skip the multiply, so all give the same bytes.
    rng = np.random.default_rng(197)
    x = TeamPolicy(team_blocks(rng, spec, False))
    y, _ = adversary_best_response(spec, x)
    acts, p = _support(y)
    assert p is None
    eye = AdversaryPolicy(np.eye(spec.adversary_actions)[acts[:, 0]])
    _, loaded = cli._policies_from_json(cli._policies_payload(x, y, None))
    for other in (eye, dataclasses.replace(y), loaded):
        assert _support(other)[1] is None and _support(other)[0].tobytes() == acts.tobytes()
    v = value_vector(spec, x, y).tobytes()
    gaps = [(k, *team_player_best_response(spec, k, x, y)) for k in range(spec.n_players)]
    report = nash_gap(spec, x, y)
    for other in (eye, loaded):
        assert value_vector(spec, x, other).tobytes() == v
        for k, policy, value in gaps:
            got, got_value = team_player_best_response(spec, k, x, other)
            assert got.tobytes() == policy.tobytes() and got_value == value
        got = nash_gap(spec, x, other)
        assert got.team_gaps.tobytes() == report.team_gaps.tobytes()
        assert (got.adversary_gap, got.epsilon_certified) == (
            report.adversary_gap, report.epsilon_certified)


@pytest.mark.parametrize("spec", pure_policy_games())
def test_a_weight_just_below_one_keeps_its_weights(spec):
    # Only weights of exactly 1.0 are skipped: a pure row weighted 1 - 1e-13
    # keeps its table, and its chain rows hold w * p, not w.
    rng = np.random.default_rng(199)
    S = spec.state_count
    probs = np.eye(spec.adversary_actions)[rng.integers(spec.adversary_actions, size=S)]
    probs[0] *= 1.0 - 1e-13
    acts, p = _support(AdversaryPolicy(probs))
    assert p is not None and p[0, 0] == 1.0 - 1e-13 and (p[1:] == 1.0).all()
    w = team_weights(rng, spec, False)
    cols, off, diag, *_ = _chain_rows(spec, w, acts, p)
    wts = chain(spec, w, acts, p)[1]
    if spec.transition.certain:
        assert wts.tobytes() == (w * p).tobytes()
    loops = cols == np.arange(S)[:, None]
    assert off.tobytes() == np.where(loops, 0.0, wts).tobytes()
    assert diag.tobytes() == (1.0 - spec.discount * np.where(loops, wts, 0.0).sum(axis=1)).tobytes()


def test_a_game_keeps_at_most_its_bound_of_skeletons():
    spec, rng = grid_world(2), np.random.default_rng(151)
    S, B = spec.state_count, spec.adversary_actions
    w = np.full((S, spec.joint_action_count), 1.0 / spec.joint_action_count)
    policies = [np.full(S, b) for b in range(B)] + [rng.integers(B, size=S) for _ in range(_SKELETONS)]
    for policy in policies:
        _chain_rows(spec, w, policy[:, None])
        assert len(spec._skeletons) <= _SKELETONS
    assert list(spec._skeletons) == [p.tobytes() for p in policies[-_SKELETONS:]]
    # A hit makes its skeleton the last one evicted.
    _chain_rows(spec, w, policies[-_SKELETONS][:, None])
    _chain_rows(spec, w, policies[0][:, None])
    assert policies[-_SKELETONS].tobytes() in spec._skeletons
    assert policies[-_SKELETONS + 1].tobytes() not in spec._skeletons
    assert dataclasses.replace(spec)._skeletons == {}


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


def test_adversary_best_response_looks_one_step_ahead(monkeypatch):
    # In state 0 action 0 pays 0.5 and stays, action 1 pays nothing and
    # moves to state 1, which pays 2 per step for good: 18 against 5 at
    # gamma 0.9.  The myopic greedy policy plays action 0 and needs a
    # second sweep; one value-iteration step already sees state 1's payoff.
    spec = GameSpec(
        state_count=2,
        team_sizes=(1,),
        adversary_actions=2,
        reward=np.array([[[0.5, 0.0]], [[2.0, 2.0]]]),
        transition=np.array([[[[1.0, 0.0], [0.0, 1.0]]], [[[0.0, 1.0], [0.0, 1.0]]]]),
        discount=0.9,
        initial_dist=np.array([0.5, 0.5]),
    )
    x = uniform_team_policy(spec)
    chains = count_calls(monkeypatch, atmg.mdp, "_chain_rows")
    y, v = adversary_best_response(spec, x)
    assert len(chains) == 1
    np.testing.assert_array_equal(y.probs, [[0.0, 1.0], [1.0, 0.0]])
    best = max(
        value_rho(spec, x, AdversaryPolicy(np.eye(2)[[b0, b1]]))
        for b0 in range(2) for b1 in range(2)
    )
    assert float(spec.initial_dist @ v) == pytest.approx(best, abs=1e-12)
    np.testing.assert_allclose(v, [18.0, 20.0], rtol=1e-12)


def warm_start_games():
    rng = np.random.default_rng(191)
    return [
        pytest.param(grid_world(2), id="grid2"),
        pytest.param(grid_world(3), id="grid3"),
        pytest.param(make_random_game(rng, 6, (2, 3), 3, 0.9), id="stochastic"),
        pytest.param(make_random_game(rng, 5, (2, 2, 2), 3, 0.9), id="three-players"),
    ]


@pytest.mark.parametrize("spec", warm_start_games())
def test_best_response_from_a_given_start_is_exact(spec):
    # Policy iteration is exact from any start: from the cold best response,
    # a random pure policy and the best response at a nearby x, no state of
    # the response gains more than the tie slack on a Q table the oracle
    # builds afresh.  Where the cold optimum is strict in every state it is
    # the only optimum, so each start must land on its bits.  A memo hit
    # ignores the start.
    rng = np.random.default_rng(193)
    S, B = spec.state_count, spec.adversary_actions
    states = np.arange(S)
    x, _ = random_policies(rng, spec)
    y_cold, v_cold = adversary_best_response(spec, fresh(x))
    step = 0.05 * rng.normal(size=S * spec.sum_team_actions)
    nearby = project_product_simplex(spec, x.as_vector() + step)
    pure = AdversaryPolicy(np.eye(B)[rng.integers(B, size=S)])
    q = np.sort(oracle_q_table(spec, x, v_cold), axis=1)
    unique = (q[:, -1] - q[:, -2] > _TIE_RTOL * np.abs(q).max(axis=1)).all()
    for start in (y_cold, pure, adversary_best_response(spec, nearby)[0]):
        y, v = adversary_best_response(spec, fresh(x), start)
        q = oracle_q_table(spec, x, v)
        gain = q.max(axis=1) - q[states, y.probs.argmax(axis=1)]
        assert (gain <= _TIE_RTOL * np.abs(q).max(axis=1)).all()
        assert policy_gradient(spec, fresh(x), start)[1].tobytes() == v.tobytes()
        if unique:
            assert y.probs.tobytes() == y_cold.probs.tobytes()
            assert v.tobytes() == v_cold.tobytes()
    memo = adversary_best_response(spec, x)
    assert adversary_best_response(spec, x, pure)[0] is memo[0]


def test_a_warm_start_keeps_its_action_on_a_tie():
    # Adversary actions 1 and 2 are one action under two indices.  The cold
    # start takes the lower index wherever they are best; a start on the
    # higher one keeps it there, since leaving it gains nothing, and moves
    # to action 0 where that is better.  Both chains have the same rows, so
    # the values agree bit for bit.
    rng = np.random.default_rng(197)
    base = make_random_game(rng, 5, (2,), 2, 0.9)
    spec = GameSpec(
        state_count=5,
        team_sizes=(2,),
        adversary_actions=3,
        reward=base.reward[:, :, [0, 1, 1]],
        transition=dense_transition(base.transition)[:, :, [0, 1, 1]],
        discount=0.9,
        initial_dist=base.initial_dist,
    )
    x, _ = random_policies(rng, spec)
    y_cold, v_cold = adversary_best_response(spec, x)
    y_warm, v_warm = adversary_best_response(spec, fresh(x), AdversaryPolicy(np.eye(3)[[2] * 5]))
    cold, warm = y_cold.probs.argmax(axis=1), y_warm.probs.argmax(axis=1)
    assert set(cold) == {0, 1}
    np.testing.assert_array_equal(warm, np.where(cold == 1, 2, cold))
    assert v_warm.tobytes() == v_cold.tobytes()


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
                x_dev = with_block(x, k, block)
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


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees allocated while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_best_responses_stay_within_three_state_by_state_matrices():
    # A cyclic chain's dense solve holds its S x S matrix and LAPACK's copy
    # of it; one (S, U, S) table with U >= 4 actions would alone exceed the
    # bound.
    spec = grid_world(3)
    S = spec.state_count
    x, y = uniform_team_policy(spec), uniform_adversary_policy(spec)
    bound = 3 * S**2 * 8
    assert traced_peak(lambda: adversary_best_response(spec, x)) < bound
    assert traced_peak(lambda: team_player_best_response(spec, 0, x, y)) < bound


def test_acyclic_solves_hold_no_state_by_state_matrix():
    # Against a pure adversary policy every grid_world(3) chain here is
    # acyclic, so its solves run on the (S, n) row lists alone: each call
    # peaks below one S x S float64 matrix.
    spec = grid_world(3)
    S = spec.state_count
    y, _ = adversary_best_response(spec, uniform_team_policy(spec))
    bound = S**2 * 8
    assert traced_peak(lambda: adversary_best_response(spec, uniform_team_policy(spec))) < bound
    assert traced_peak(lambda: policy_gradient(spec, uniform_team_policy(spec))) < bound
    for k in range(spec.n_players):
        x = uniform_team_policy(spec)
        assert traced_peak(lambda: team_player_best_response(spec, k, x, y)) < bound


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def test_policy_gradient_bilinear_case():
    spec = pennies_game()
    x = TeamPolicy(blocks=(np.array([[0.3, 0.7]]),))
    y = AdversaryPolicy(probs=np.array([[0.6, 0.4]]))
    grad = team_policy_gradient(spec, x, y)
    R = spec.reward[0]
    np.testing.assert_allclose(grad, R @ y.probs[0], rtol=1e-14)


def test_policy_gradient_finite_differences():
    rng = np.random.default_rng(51)
    spec = make_random_game(rng, 3, (2, 2), 2, 0.9)
    x, y = random_policies(rng, spec)
    grad = team_policy_gradient(spec, x, y)
    fd = finite_difference_gradient(spec, x, y, h=1e-6)
    scale = max(1.0, float(np.abs(fd).max()))
    assert float(np.abs(grad - fd).max()) / scale < 1e-5


@pytest.mark.parametrize("spec,K", successor_list_games())
def test_policy_gradient_is_the_gradient_at_the_best_response(spec, K):
    # One policy iteration and one transposed solve give what the best
    # response and the gradient at it give separately: bit for bit with the
    # visitation from mdp's own solver, and to round-off with the dense
    # LAPACK one, which an acyclic chain's level sweeps do not use.
    rng = np.random.default_rng(59)
    x, _ = random_policies(rng, spec)
    y_star, v_hat, grad = policy_gradient(spec, x)
    y_ref, v_ref = adversary_best_response(spec, x)
    assert y_star.probs.tobytes() == y_ref.probs.tobytes()
    assert v_hat.tobytes() == v_ref.tobytes()
    M = chain_rows(spec, joint_action_distribution(spec, x), *_support(y_ref))
    d = _solve(M, spec.initial_dist, transpose=True)
    assert grad.tobytes() == team_policy_gradient(spec, x, y_ref, d).tobytes()
    np.testing.assert_allclose(grad, team_policy_gradient(spec, x, y_ref), rtol=1e-13, atol=0)



def support_contraction_games():
    rng = np.random.default_rng(181)
    return [
        pytest.param(grid_world(2), id="grid2"),
        pytest.param(grid_world(3), id="grid3"),
        pytest.param(make_random_game(rng, 5, (2, 3), 3, 0.9), id="stochastic"),
        pytest.param(make_mixed_support_game(rng, 7, (2, 2), 3, 0.9), id="mixed-support"),
    ]


@pytest.mark.parametrize("spec", support_contraction_games())
def test_contraction_over_the_support_matches_the_full_tables(spec, monkeypatch):
    # Against a pure y the library reads only y's slice of each table, and
    # weighs it by ones: the bits of q @ y.probs[:, :, None] over the full
    # (S, J, B) table, for the gradient (y_star's slice, on a memo miss and
    # on a hit) and for each team player's best response, neither of which
    # builds a full table.  Against a mixed y the
    # support sum runs in another order than the matmul over all B, so the
    # policies agree and the values to round-off.
    rng = np.random.default_rng(183)
    S, B = spec.state_count, spec.adversary_actions
    x, mixed = random_policies(rng, spec)
    y_star, _, grad = policy_gradient(spec, x)
    d = _solve(chain_rows(spec, joint_action_distribution(spec, x), *_support(y_star)),
               spec.initial_dist, transpose=True)
    want = team_policy_gradient(spec, x, y_star, d).tobytes()
    assert grad.tobytes() == want
    tables = count_calls(monkeypatch, atmg.mdp, "_next_mean")
    assert policy_gradient(spec, x)[2].tobytes() == want
    pure = AdversaryPolicy(np.eye(B)[rng.integers(B, size=S)])
    for y, exact in ((y_star, True), (pure, True), (mixed, False),
                     (AdversaryPolicy(unequal_support_table(rng, S, B)), False)):
        for k in range(spec.n_players):
            table, value = team_player_best_response(spec, k, x, y)
            want_table, want_value = full_table_player_best_response(spec, k, x, y)
            assert table.tobytes() == want_table.tobytes()
            if exact:
                assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
            else:
                assert value == pytest.approx(want_value, rel=1e-13, abs=0)
            assert tables == []


def tied_game(rng: np.random.Generator, K: int) -> GameSpec:
    """Random game, team (2, 2) against 3 adversary actions, whose action 1
    copies action 0's rewards and moves, so the two tie exactly everywhere;
    every move has K successors, each of probability 1.0 for K = 1."""
    spec = make_random_game(rng, 6, (2, 2), 3, 0.9)
    succ = rng.integers(6, size=(6, 4, 3, K))
    prob = rng.dirichlet(np.ones(K), size=(6, 4, 3)) if K > 1 else np.ones((6, 4, 3, 1))
    reward = spec.reward.copy()
    for table in (succ, prob, reward):
        table[:, :, 1] = table[:, :, 0]
    return dataclasses.replace(spec, reward=reward, transition=Transitions(succ, prob, 6))


def folded_backup_games():
    rng = np.random.default_rng(191)
    return [
        pytest.param(grid_world(2), id="grid2"),
        pytest.param(grid_world(3), id="grid3"),
        *(pytest.param(make_random_game(rng, S, sizes, B, 0.9), id=f"stochastic-{i}")
          for i, (S, sizes, B) in enumerate([(5, (2, 2), 3), (7, (3,), 4), (4, (2, 3), 2)])),
        pytest.param(make_mixed_support_game(rng, 7, (2, 2), 3, 0.9), id="mixed-support"),
        pytest.param(tied_game(rng, 1), id="tied-certain"),
        pytest.param(tied_game(rng, 3), id="tied-stochastic"),
    ]


@pytest.mark.parametrize("spec", folded_backup_games())
def test_folded_backup_matches_the_full_table_best_response(spec):
    # The adversary's backup contracts the expected next values with the
    # team weights before gamma and the rewards are added; the full-table
    # path adds first.  The two differ in the last bits of Q at most, far
    # below the tie slack, so the best response, its exact value and the
    # gradient, whose y_star column comes from the skeleton, keep their bits.
    rng = np.random.default_rng(193)
    policies = [uniform_team_policy(spec), *(random_policies(rng, spec)[0] for _ in range(3))]
    played = np.zeros(spec.adversary_actions)
    for x in policies:
        y_star, v_hat, grad = policy_gradient(spec, x)
        want_y, want_v, want_grad = full_table_adversary_best_response(spec, x)
        assert y_star.probs.tobytes() == want_y.probs.tobytes()
        assert v_hat.tobytes() == want_v.tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        played += y_star.probs.sum(axis=0)
    T = spec.transition
    if all(np.array_equal(t[:, :, 0], t[:, :, 1]) for t in (spec.reward, T.succ, T.prob)):
        # Action 1 ties action 0 wherever either is best; the tie goes to 0.
        assert played[0] > 0 and played[1] == 0


def test_a_certain_game_multiplies_no_probability_but_a_near_certain_one_does(monkeypatch):
    # Every grid move has one successor of probability exactly 1.0, so the
    # gathers read v(succ) alone.  Probabilities of 1 - 1e-13 are within
    # validate's tolerance but not 1.0: there each table is still
    # prob * v(succ), bit for bit, and differs from the certain game's.
    grid = grid_world(2)
    T, S = grid.transition, grid.state_count
    prob = T.prob.copy()
    prob[np.random.default_rng(197).random(prob.shape) < 0.5] = 1.0 - 1e-13
    near = dataclasses.replace(grid, transition=Transitions(T.succ, prob, S))
    assert validate(near) == [] and T.certain and not near.transition.certain
    rng = np.random.default_rng(199)
    v = rng.normal(size=S)
    w = team_weights(rng, grid, False)
    r = (w[:, None, :] @ grid.reward)[:, 0, :]
    acts = rng.integers(grid.adversary_actions, size=(S, 1))
    passed = []
    real_mean = atmg.mdp._successor_mean

    def mean(succ, prob, v):
        passed.append(prob is not None)
        return real_mean(succ, prob, v)

    monkeypatch.setattr(atmg.mdp, "_successor_mean", mean)
    tables = {}
    for spec in (grid, near):
        passed.clear()
        P = spec.transition.prob
        expected = (P * v[T.succ]).sum(axis=-1)
        nxt = _next_mean(spec, v)
        assert nxt.tobytes() == expected.tobytes()
        backup = _adversary_q(spec, w, r, nxt)
        folded = (w[:, None, :] @ expected)[:, 0, :]
        assert backup.tobytes() == (r + spec.discount * folded).tobytes()
        M = _chain_rows(spec, w, acts)
        for got, want in zip(M[:3], chain_rows(spec, w, acts)[:3]):
            assert got.tobytes() == want.tobytes()
        mixed = atmg.mdp._on_support(spec, acts, np.ones((S, 1)), v)
        q = spec.reward + spec.discount * expected
        assert mixed.tobytes() == q[np.arange(S), :, acts[:, 0]].tobytes()
        assert passed == [spec is near] * len(passed) and len(passed) == 2
        tables[spec is near] = (nxt, backup, M[1])
    for certain, near_certain in zip(tables[False], tables[True]):
        assert certain.tobytes() != near_certain.tobytes()


def test_a_certain_game_reads_no_probability_once_it_is_flagged():
    # After Transitions.certain is known, best responses, the gradient and the
    # certificate against a pure and a mixed y gather successors alone: the
    # skeletons take no probabilities either.
    spec = grid_world(2)
    assert spec.transition.certain
    object.__setattr__(spec.transition, "prob", None)
    x = uniform_team_policy(spec)
    y_star = policy_gradient(spec, x)[0]
    for y in (y_star, uniform_adversary_policy(spec)):
        value_vector(spec, x, y)
        nash_gap(spec, x, y)


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
        assert np.linalg.norm(team_policy_gradient(spec, x, y)) <= L + 1e-12


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
            P_x = dense_marginal_transition(spec, x)
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


@pytest.mark.parametrize("spec", [
    pytest.param(grid_world(2), id="grid2-equal-widths"),
    pytest.param(make_random_game(np.random.default_rng(64), 3, (2, 3), 2, 0.5), id="mixed-widths"),
])
def test_projection_of_one_width_at_once_is_per_block(spec):
    # All blocks of one width go through one _project_simplex_rows call;
    # each comes out as its own projection would, rows on a vertex too.
    rng = np.random.default_rng(65)
    z = rng.normal(size=spec.state_count * spec.sum_team_actions)
    z[: spec.team_sizes[0]] = np.eye(spec.team_sizes[0])[-1]
    z[-spec.team_sizes[-1] :] = np.eye(spec.team_sizes[-1])[0]
    blocks = team_policy_from_vector(spec, z).blocks
    projected = project_product_simplex(spec, z).blocks
    assert len(projected) == len(blocks)
    for got, block in zip(projected, blocks):
        assert got.tobytes() == _project_simplex_rows(block).tobytes()
    assert projected[0][0].tolist() == np.eye(spec.team_sizes[0])[-1].tolist()
    # A vector one row short or long is refused, even when its length is
    # still a multiple of the width.
    for bad in (z[: -spec.team_sizes[-1]], np.concatenate([z, z[: spec.team_sizes[0]]])):
        with pytest.raises(ValueError, match="team vector has"):
            project_product_simplex(spec, bad)


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


def test_policies_own_their_data():
    # A policy built from a view must not change when the viewed array does,
    # and building it must leave the caller's array writable.
    spec = make_random_game(np.random.default_rng(70), 2, (2, 2), 2, 0.5)
    vec = uniform_team_policy(spec).as_vector()
    x = team_policy_from_vector(spec, vec)
    vec[:4] = [1.0, 0.0, 0.0, 0.0]
    np.testing.assert_array_equal(x.blocks[0], np.full((2, 2), 0.5))
    probs = np.full((2, 2), 0.5)
    y = AdversaryPolicy(probs)
    probs[0] = [1.0, 0.0]
    np.testing.assert_array_equal(y.probs, np.full((2, 2), 0.5))
    assert not x.blocks[0].flags.writeable and not y.probs.flags.writeable


# ---------------------------------------------------------------------------
# The per-policy best-response memo
# ---------------------------------------------------------------------------

def memo_games():
    rng = np.random.default_rng(71)
    games = [pytest.param(grid_world(2), id="grid2")]
    for i in range(3):
        S, sizes, B = random_game_dims(rng)
        games.append(pytest.param(make_random_game(rng, S, sizes, B, 0.9), id=f"full{i}"))
    return games


def fresh(x: TeamPolicy) -> TeamPolicy:
    """A copy of x with an empty memo."""
    return TeamPolicy(tuple(block.copy() for block in x.blocks))


@pytest.mark.parametrize("spec", memo_games())
def test_second_best_response_reads_the_memo(spec, monkeypatch):
    x, _ = random_policies(np.random.default_rng(72), spec)
    calls = count_calls(monkeypatch, atmg.mdp, "_policy_iteration")
    y_star, v_hat = adversary_best_response(spec, x)
    assert len(calls) == 1
    again = adversary_best_response(spec, x)
    assert len(calls) == 1
    assert again[0] is y_star and again[1] is v_hat
    assert not v_hat.flags.writeable


def test_memo_belongs_to_one_spec_object(gridworld2, monkeypatch):
    # An equal spec that is another object misses, and so does another game
    # of the same shape; each gets its own exact answer.
    x = uniform_team_policy(gridworld2)
    y_star, v_hat = adversary_best_response(gridworld2, x)
    calls = count_calls(monkeypatch, atmg.mdp, "_policy_iteration")
    twin = dataclasses.replace(gridworld2)
    y_twin, v_twin = adversary_best_response(twin, x)
    assert len(calls) == 1 and y_twin is not y_star
    assert v_twin.tobytes() == v_hat.tobytes()
    flipped = dataclasses.replace(gridworld2, reward=1.0 - gridworld2.reward)
    _, v_flipped = adversary_best_response(flipped, x)
    assert len(calls) == 2
    assert v_flipped.tobytes() == adversary_best_response(flipped, fresh(x))[1].tobytes()
    assert not np.array_equal(v_flipped, v_hat)


@pytest.mark.parametrize("spec", memo_games())
def test_policy_gradient_is_the_same_on_a_memo_hit(spec, monkeypatch):
    x, _ = random_policies(np.random.default_rng(73), spec)
    miss = policy_gradient(spec, fresh(x))
    adversary_best_response(spec, x)
    calls = count_calls(monkeypatch, atmg.mdp, "_policy_iteration")
    hit = policy_gradient(spec, x)
    assert calls == []
    assert hit[0].probs.tobytes() == miss[0].probs.tobytes()
    assert hit[1].tobytes() == miss[1].tobytes()
    assert hit[2].tobytes() == miss[2].tobytes()
    assert policy_gradient(spec, x)[2].tobytes() == miss[2].tobytes()


@pytest.mark.parametrize("spec", memo_games())
def test_value_rho_at_the_memo_best_response_is_the_dense_value(spec, monkeypatch):
    x, y = random_policies(np.random.default_rng(74), spec)
    y_star, _ = adversary_best_response(spec, x)
    dense = value_rho(spec, fresh(x), y_star)
    solves = count_calls(monkeypatch, atmg.mdp, "_solve")
    assert value_rho(spec, x, y_star) == dense
    assert solves == []
    # Any other adversary policy, even an equal copy, is evaluated afresh.
    assert value_rho(spec, x, AdversaryPolicy(y_star.probs)) == dense
    assert value_rho(spec, x, y) == value_rho(spec, fresh(x), y)
    assert len(solves) == 3
