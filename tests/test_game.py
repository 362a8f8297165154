from __future__ import annotations

import numpy as np
import pytest

from atmg import (
    DegenerateRewardsError,
    GameSpec,
    grid_world,
    load_game,
    normalize_rewards,
    save_game,
    validate,
)
from conftest import make_random_game, pennies_game


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
    assert spec.joint_index((0, 0)) == 0
    assert spec.joint_index((1, 0)) == 1
    assert spec.joint_index((0, 1)) == 2
    assert spec.joint_index((1, 2)) == 5


def test_action_digits_invert_joint_index():
    spec = small_game(
        team_sizes=(3, 2, 2),
        reward=np.full((2, 12, 2), 0.5),
        transition=np.full((2, 12, 2, 2), 0.5),
    )
    digits = spec.action_digits
    assert digits.shape == (12, 3)
    for j in range(12):
        assert spec.joint_index(digits[j]) == j


def test_joint_index_range_check():
    spec = small_game()
    with pytest.raises(ValueError):
        spec.joint_index((2,))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_accepts_well_formed_games():
    assert validate(small_game()) == []
    assert validate(pennies_game()) == []
    rng = np.random.default_rng(0)
    assert validate(make_random_game(rng, 4, (2, 3), 3, 0.9)) == []


def test_validate_flags_negative_transition_entry():
    t = small_game().transition.copy()
    t[1, 0, 1, 0] -= 2.0
    t[1, 0, 1, 1] += 2.0     # keep the row sum at 1 to isolate the sign check
    problems = validate(small_game(transition=t))
    assert any("negative" in p and "s=1" in p for p in problems)


def test_validate_flags_bad_row_sum():
    t = small_game().transition.copy()
    t[0, 1, 0, 0] += 1e-6
    problems = validate(small_game(transition=t))
    assert any("sums to" in p for p in problems)


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


def test_grid_world_transitions_deterministic(gridworld2):
    t = gridworld2.transition
    assert np.all(t.sum(axis=3) == 1.0)
    assert np.all(np.count_nonzero(t, axis=3) == 1)
    assert np.all((t == 0.0) | (t == 1.0))


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
    s = 1 + 4 * 2 + 16 * 1          # p1 top-right, p2 bottom-left, adv top-right
    terminal = 64

    # Team covers both landmarks while the adversary also arrives: team wins.
    j = 2 + 4 * 3                   # p1 left -> cell 0, p2 right -> cell 3
    b = 1                           # adversary down -> cell 3
    assert gridworld2.reward[s, j, b] == lo
    assert gridworld2.transition[s, j, b, terminal] == 1.0

    # Adversary reaches a landmark with the team not covering: adversary wins.
    j = 0 + 4 * 3                   # p1 up (clamped, stays), p2 right -> cell 3
    assert gridworld2.reward[s, j, b] == hi
    assert gridworld2.transition[s, j, b, terminal] == 1.0

    # No landmark event: zero-level reward, deterministic non-terminal move.
    j = 0 + 4 * 2                   # p1 stays at 1, p2 left (clamped, stays at 2)
    b = 0                           # adversary up (clamped, stays at 1)
    assert gridworld2.reward[s, j, b] == mid
    assert gridworld2.transition[s, j, b, s] == 1.0

    # Terminal state self-loops at the midpoint reward.
    assert np.all(gridworld2.transition[terminal, :, :, terminal] == 1.0)
    assert np.all(gridworld2.reward[terminal] == mid)


def test_grid_world_initial_dist_uniform(gridworld2):
    np.testing.assert_allclose(gridworld2.initial_dist, 1.0 / 65, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    spec = make_random_game(rng, 3, (2, 2), 3, 0.9)
    path = tmp_path / "game.json"
    save_game(spec, path)
    loaded = load_game(path)
    assert loaded.state_count == spec.state_count
    assert loaded.team_sizes == spec.team_sizes
    assert loaded.adversary_actions == spec.adversary_actions
    assert loaded.discount == spec.discount
    assert np.array_equal(loaded.reward, spec.reward)
    assert np.array_equal(loaded.transition, spec.transition)
    assert np.array_equal(loaded.initial_dist, spec.initial_dist)


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "atmg-v2"}')
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


def test_game_spec_tensors_are_read_only():
    spec = small_game()
    with pytest.raises(ValueError):
        spec.reward[0, 0, 0] = 0.0
