from __future__ import annotations

import json

import numpy as np
import pytest

import atmg.game
from atmg.game import (
    DegenerateRewardsError,
    GameSpec,
    Transitions,
    grid_world,
    load_game,
    normalize_rewards,
    save_game,
    validate,
)
from conftest import (
    dense_transition,
    joint_index,
    make_mixed_support_game,
    make_random_game,
    pennies_game,
    v1_document,
)
from oracles import grid_world_loop


def small_game(**overrides) -> GameSpec:
    """A hand-sized valid 2-state game that tests can break one field at a time."""
    rng = np.random.default_rng(11)
    base = dict(
        state_count=2,
        team_sizes=(2,),
        adversary_actions=2,
        reward=rng.uniform(0.1, 0.9, size=(2, 2, 2)),
        transition=rng.dirichlet(np.ones(2), size=(2, 2, 2)),
        discount=0.5,
        initial_dist=np.array([0.3, 0.7]),
    )
    base.update(overrides)
    return GameSpec(**base)


# ---------------------------------------------------------------------------
# Joint-action indexing
# ---------------------------------------------------------------------------

def test_joint_index_player_one_fastest():
    spec = small_game(
        team_sizes=(2, 3),
        reward=np.full((2, 6, 2), 0.5),
        transition=np.full((2, 6, 2, 2), 0.5),
    )
    assert joint_index(spec, (0, 0)) == 0
    assert joint_index(spec, (1, 0)) == 1
    assert joint_index(spec, (0, 1)) == 2
    assert joint_index(spec, (1, 2)) == 5


def test_action_digits_invert_joint_index():
    spec = small_game(
        team_sizes=(3, 2, 2),
        reward=np.full((2, 12, 2), 0.5),
        transition=np.full((2, 12, 2, 2), 0.5),
    )
    digits = spec.action_digits
    assert digits.shape == (12, 3)
    for j in range(12):
        assert joint_index(spec, digits[j]) == j


def test_joint_index_range_check():
    spec = small_game()
    with pytest.raises(ValueError):
        joint_index(spec, (2,))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_accepts_well_formed_games():
    assert validate(small_game()) == []
    assert validate(pennies_game()) == []
    rng = np.random.default_rng(0)
    assert validate(make_random_game(rng, 4, (2, 3), 3, 0.9)) == []


def test_validate_flags_negative_transition_entry():
    t = dense_transition(small_game().transition)
    t[1, 0, 1, 0] -= 2.0
    t[1, 0, 1, 1] += 2.0     # keep the row sum at 1 to isolate the sign check
    problems = validate(small_game(transition=t))
    assert any("negative" in p and "s=1" in p for p in problems)


def test_validate_flags_bad_row_sum():
    t = dense_transition(small_game().transition)
    t[0, 1, 0, 0] += 1e-6
    problems = validate(small_game(transition=t))
    assert any("sums to" in p for p in problems)


def test_validate_flags_successor_outside_the_state_space():
    spec = small_game()
    succ = spec.transition.succ.copy()
    succ[1, 0, 1, 0] = 2
    succ[0, 1, 0, 1] = -1
    bad = small_game(transition=Transitions(succ, spec.transition.prob, 2))
    problems = [p for p in validate(bad) if "outside" in p]
    assert len(problems) == 2
    assert "(s=0, a_joint=1, b=0, s'=-1)" in problems[0]
    assert "(s=1, a_joint=0, b=1, s'=2)" in problems[1]


def test_validate_flags_bad_initial_dist():
    problems = validate(small_game(initial_dist=np.array([1.0, 0.0])))
    assert any("full support" in p for p in problems)
    problems = validate(small_game(initial_dist=np.array([0.4, 0.4])))
    assert any("sums to" in p for p in problems)


def test_validate_flags_bad_scalars():
    assert validate(small_game(discount=1.0))
    assert validate(small_game(state_count=0))
    bad_shape = small_game(reward=np.full((2, 2, 3), 0.5))
    assert any("reward shape" in p for p in validate(bad_shape))


@pytest.mark.parametrize("overrides,problem", [
    (dict(team_sizes=(0,)), "team_sizes must be positive integers, got (0,)"),
    (dict(team_sizes=()), "team_sizes must be positive integers, got ()"),
    (dict(adversary_actions=0), "adversary_actions must be positive, got 0"),
    (dict(transition=np.full((2, 2, 2, 3), 1 / 3)),
     "transition shape (2, 2, 2, 3) != expected (2, 2, 2, 2)"),
    (dict(initial_dist=np.array([0.2, 0.3, 0.5])), "initial_dist shape (3,) != expected (2,)"),
    (dict(transition=np.full((2, 2, 2, 2), np.nan)),
     "transition has non-finite entry at (s=0, a_joint=0, b=0, s'=0)"),
    (dict(initial_dist=np.array([np.nan, 1.0])), "initial_dist has non-finite entries"),
], ids=["player-without-actions", "no-players", "adversary-without-actions",
        "transition-shape", "initial-dist-shape", "transition-nan", "initial-dist-nan"])
def test_validate_names_the_problem(overrides, problem):
    assert problem in validate(small_game(**overrides))


def test_from_dense_rejects_a_scalar():
    with pytest.raises(ValueError, match="must be an \\(S, A_joint, B, S\\) array, got a scalar"):
        Transitions.from_dense(0.5)


def test_validate_reports_nonfinite_entries():
    r = small_game().reward.copy()
    r[0, 0, 0] = np.nan
    assert any("non-finite" in p for p in validate(small_game(reward=r)))


def test_validate_flags_rewards_whose_values_could_overflow():
    for value, flagged in ((-1e200, True), (-1e12, False)):
        r = small_game().reward.copy()
        r[0, 0, 0] = value
        problems = validate(small_game(reward=r))
        assert any("reward magnitude" in p for p in problems) == flagged


# ---------------------------------------------------------------------------
# normalize_rewards
# ---------------------------------------------------------------------------

def test_normalize_three_point_rewards():
    reward = np.array([[[-1.0, 0.0], [1.0, 0.0]]])
    spec = small_game(
        state_count=1,
        reward=reward,
        transition=np.full((1, 2, 2, 1), 1.0),
        initial_dist=np.array([1.0]),
    )
    normalized, shift, scale = normalize_rewards(spec)
    assert shift == pytest.approx(1.05, abs=0)
    assert scale == pytest.approx(1.0 / 2.1, rel=1e-15)
    r = normalized.reward
    assert r[0, 0, 0] == pytest.approx(0.05 / 2.1, rel=1e-15)
    assert r[0, 0, 1] == 0.5
    assert r[0, 1, 0] == pytest.approx(2.05 / 2.1, rel=1e-15)


def test_normalize_nearly_flat_rewards():
    reward = np.full((2, 2, 2), 0.5)
    reward[0, 0, 0] = 0.6
    normalized, _, _ = normalize_rewards(small_game(reward=reward))
    assert normalized.reward[0, 0, 0] == pytest.approx(0.75)
    assert normalized.reward[1, 1, 1] == pytest.approx(0.25)
    assert 0.0 < normalized.reward.min() <= normalized.reward.max() < 1.0


def test_normalize_idempotent_on_fixed_family():
    rng = np.random.default_rng(5)
    reward = rng.uniform(0.05, 0.95, size=(2, 2, 2))
    reward[0, 0, 0] = 0.05
    reward[1, 1, 1] = 0.95
    spec = small_game(reward=reward)
    once, _, _ = normalize_rewards(spec)
    twice, _, _ = normalize_rewards(once)
    np.testing.assert_allclose(once.reward, spec.reward, atol=1e-12)
    np.testing.assert_allclose(twice.reward, once.reward, atol=1e-12)


def test_normalize_degenerate_rewards_error():
    with pytest.raises(DegenerateRewardsError):
        normalize_rewards(small_game(reward=np.full((2, 2, 2), 0.7)))
    with pytest.raises(DegenerateRewardsError, match=r"delta=1e\+300"):
        normalize_rewards(small_game(), delta=1e300)


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -1.0, -1e-12])
def test_normalize_rejects_a_bad_margin(delta):
    with pytest.raises(ValueError, match="finite and >= 0"):
        normalize_rewards(small_game(), delta=delta)


# ---------------------------------------------------------------------------
# grid_world
# ---------------------------------------------------------------------------

def test_grid_world_dimensions(gridworld2):
    assert gridworld2.state_count == 65
    assert gridworld2.team_sizes == (4, 4)
    assert gridworld2.adversary_actions == 4
    assert validate(gridworld2) == []
    assert grid_world(3).state_count == 730


def test_grid_world_rejects_tiny_grids():
    with pytest.raises(ValueError):
        grid_world(1)


@pytest.mark.parametrize("n_grid", [2, 3, 4])
def test_grid_world_broadcast_matches_the_joint_move_loop(n_grid):
    spec, reference = grid_world(n_grid), grid_world_loop(n_grid)
    assert spec.transition.succ.tobytes() == reference.transition.succ.tobytes()
    assert spec.reward.tobytes() == reference.reward.tobytes()


def test_grid_world_refuses_arrays_larger_than_physical_memory(monkeypatch):
    # grid_world(2)'s reward, successors and probabilities take 65 x 64 x 24
    # bytes: a machine with exactly that much memory builds it, one with a
    # byte less refuses it.
    needed = 65 * 16 * 4 * 24
    for pages, ok in ((needed, True), (needed - 1, False)):
        monkeypatch.setattr(atmg.game.os, "sysconf",
                            lambda name, pages=pages: 1 if name == "SC_PAGE_SIZE" else pages)
        if ok:
            assert grid_world(2).state_count == 65
        else:
            with pytest.raises(ValueError, match=r"grid_world\(2\) needs .* GiB of physical memory"):
                grid_world(2)


def test_grid_world_transitions_deterministic(gridworld2):
    assert gridworld2.transition.succ.shape == (65, 16, 4, 1)
    t = dense_transition(gridworld2.transition)
    assert np.all(t.sum(axis=3) == 1.0)
    assert np.all(np.count_nonzero(t, axis=3) == 1)
    assert np.all((t == 0.0) | (t == 1.0))


def test_transitions_are_certain_with_one_successor_of_probability_exactly_one(gridworld2):
    assert gridworld2.transition.certain and pennies_game().transition.certain
    assert grid_world(3).transition.certain
    assert not make_random_game(np.random.default_rng(8), 3, (2,), 2, 0.9).transition.certain
    # A padded second successor makes K = 2; a probability off 1.0 by round-off is not 1.0.
    assert not Transitions(np.zeros((1, 1, 1, 2), dtype=int), [[[[1.0, 0.0]]]], 1).certain
    assert not Transitions(np.zeros((1, 1, 1, 1), dtype=int), [[[[1.0 - 1e-13]]]], 1).certain


def test_grid_world_3_successor_lists_are_small():
    big = grid_world(3).transition
    assert big.succ.shape == (730, 16, 4, 1)
    assert big.nbytes < 2 * 2**20


def test_grid_world_reward_levels(gridworld2):
    vals = np.unique(gridworld2.reward)
    assert vals.shape == (3,)
    assert vals[0] == pytest.approx(0.05 / 2.1, rel=1e-15)
    assert vals[1] == 0.5
    assert vals[2] == pytest.approx(2.05 / 2.1, rel=1e-15)


def test_grid_world_landmark_outcomes(gridworld2):
    # 2x2 grid, cells row-major: 0=(0,0) and 3=(1,1) are the landmarks.
    # State packing: s = p1 + 4 p2 + 16 p_adv; moves 0=up 1=down 2=left 3=right.
    lo, mid, hi = np.unique(gridworld2.reward)
    P = dense_transition(gridworld2.transition)
    s = 1 + 4 * 2 + 16 * 1          # p1 top-right, p2 bottom-left, adv top-right
    terminal = 64

    # Team covers both landmarks while the adversary also arrives: team wins.
    j = 2 + 4 * 3                   # p1 left -> cell 0, p2 right -> cell 3
    b = 1                           # adversary down -> cell 3
    assert gridworld2.reward[s, j, b] == lo
    assert P[s, j, b, terminal] == 1.0

    # Adversary reaches a landmark with the team not covering: adversary wins.
    j = 0 + 4 * 3                   # p1 up (clamped, stays), p2 right -> cell 3
    assert gridworld2.reward[s, j, b] == hi
    assert P[s, j, b, terminal] == 1.0

    # No landmark event: zero-level reward, deterministic non-terminal move.
    j = 0 + 4 * 2                   # p1 stays at 1, p2 left (clamped, stays at 2)
    b = 0                           # adversary up (clamped, stays at 1)
    assert gridworld2.reward[s, j, b] == mid
    assert P[s, j, b, s] == 1.0

    # Terminal state self-loops at the midpoint reward.
    assert np.all(P[terminal, :, :, terminal] == 1.0)
    assert np.all(gridworld2.reward[terminal] == mid)


def test_grid_world_initial_dist_uniform(gridworld2):
    np.testing.assert_allclose(gridworld2.initial_dist, 1.0 / 65, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def v2_round_trip(spec, path):
    """Save spec, check the file is atmg-v2, and load it back bit for bit."""
    save_game(spec, path)
    doc = json.loads(path.read_text())
    assert doc["schema"] == "atmg-v2"
    assert set(doc["transition"]) == {"successors", "probabilities"}
    loaded = load_game(path)
    assert loaded.state_count == spec.state_count
    assert loaded.team_sizes == spec.team_sizes
    assert loaded.adversary_actions == spec.adversary_actions
    assert loaded.discount == spec.discount
    assert loaded.reward.tobytes() == spec.reward.tobytes()
    assert loaded.transition.succ.tobytes() == spec.transition.succ.tobytes()
    assert loaded.transition.prob.tobytes() == spec.transition.prob.tobytes()
    assert loaded.initial_dist.tobytes() == spec.initial_dist.tobytes()
    return loaded


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    spec = make_random_game(rng, 3, (2, 2), 3, 0.9)
    assert spec.transition.succ.shape[-1] == 3
    loaded = v2_round_trip(spec, tmp_path / "game.json")
    assert np.array_equal(dense_transition(loaded.transition), dense_transition(spec.transition))


def dense_games():
    rng = np.random.default_rng(29)
    return [
        pytest.param(make_random_game(rng, 4, (2, 3), 2, 0.9), id="full"),
        pytest.param(make_mixed_support_game(rng, 5, (3,), 2, 0.5), id="mixed"),
        pytest.param(pennies_game(), id="pennies"),
    ]


@pytest.mark.parametrize("spec", dense_games())
def test_dense_round_trip_is_bitwise(spec):
    dense = dense_transition(spec.transition)
    back = GameSpec(
        state_count=spec.state_count, team_sizes=spec.team_sizes,
        adversary_actions=spec.adversary_actions, reward=spec.reward,
        transition=dense, discount=spec.discount, initial_dist=spec.initial_dist,
    ).transition
    assert dense_transition(back).tobytes() == dense.tobytes()
    assert back.succ.tobytes() == spec.transition.succ.tobytes()
    assert back.prob.tobytes() == spec.transition.prob.tobytes()


def test_from_dense_keeps_nonzero_entries_in_successor_order():
    dense = np.array([[0.0, 0.25, 0.0, 0.75], [1.0, 0.0, 0.0, 0.0], [0.0, np.nan, 0.5, 0.0]])
    lists = Transitions.from_dense(dense)
    assert lists.shape == (3, 4)
    assert lists.succ[0].tolist() == [1, 3] and lists.prob[0].tolist() == [0.25, 0.75]
    assert lists.succ[1, 0] == 0 and lists.prob[1].tolist() == [1.0, 0.0]
    assert lists.succ[2].tolist() == [1, 2] and np.isnan(lists.prob[2, 0])


def test_v2_round_trip_grid_world(tmp_path, gridworld2):
    v2_round_trip(gridworld2, tmp_path / "grid.json")


def test_v1_files_still_load(tmp_path):
    spec = make_mixed_support_game(np.random.default_rng(6), 4, (2,), 3, 0.9)
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(v1_document(spec)))
    loaded = load_game(path)
    dense = dense_transition(spec.transition)
    assert dense_transition(loaded.transition).tobytes() == dense.tobytes()
    assert loaded.transition.succ.tobytes() == spec.transition.succ.tobytes()
    assert loaded.reward.tobytes() == spec.reward.tobytes()
    assert validate(loaded) == []


@pytest.mark.parametrize("transition", [
    [[[[0.5, 1.0]]]],
    {"successors": [[[[0]]]]},
    {"successors": [[[[0, 1]]]], "probabilities": [[[[1.0]]]]},
    {"successors": [[[[0.0]]]], "probabilities": [[[[1.0]]]]},
    {"successors": [[[[None]]]], "probabilities": [[[[1.0]]]]},
    {"successors": [[[[10**400]]]], "probabilities": [[[[1.0]]]]},
], ids=["dense-in-v2", "no-probabilities", "shape-mismatch", "float-index",
        "null-index", "huge-index"])
def test_load_rejects_malformed_successor_lists(tmp_path, transition):
    doc = {"schema": "atmg-v2", "states": 1, "team_sizes": [1], "adversary_actions": 1,
           "gamma": 0.5, "rho": [1.0], "reward": [[[0.5]]], "transition": transition}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="malformed"):
        load_game(path)


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "atmg-v3"}')
    with pytest.raises(ValueError, match="schema"):
        load_game(path)


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text('{"schema": "atmg-v1", "states": 1}')
    with pytest.raises(ValueError, match="missing"):
        load_game(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json {")
    with pytest.raises(ValueError, match="JSON"):
        load_game(path)


def test_load_names_the_file_of_a_non_utf8_game(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema": "\xe9"}')
    with pytest.raises(ValueError, match="latin1.json: not valid UTF-8 JSON"):
        load_game(path)


def test_game_spec_tensors_are_read_only():
    spec = small_game()
    with pytest.raises(ValueError):
        spec.reward[0, 0, 0] = 0.0
    for arr in (spec.transition.succ, spec.transition.prob):
        with pytest.raises(ValueError):
            arr[0, 0, 0, 0] = 0
