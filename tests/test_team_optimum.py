"""Known answers for games whose adversary has one action (B = 1).

Such a game is an MDP over joint team actions.  The team minimizes, so the
pure joint policy that attains the MDP's optimum is a Nash equilibrium with
gap 0, no team policy has a lower value, and a one-player team's gap at any
policy is its value less the optimum.  The optimum comes from
oracles.team_optimum, which does not use atmg.mdp.
"""

from __future__ import annotations

import numpy as np
import pytest

from atmg.extension import nash_gap
from atmg.mdp import AdversaryPolicy, TeamPolicy, value_rho
from conftest import make_random_game
from oracles import team_optimum

TEAMS = [pytest.param(seed, (2, 3), id=f"team-2x3-seed{seed}") for seed in range(400, 405)]
PLAYERS = [pytest.param(seed, (3,), id=f"one-player-seed{seed}") for seed in range(410, 413)]


def game(seed: int, team_sizes: tuple[int, ...]):
    return make_random_game(np.random.default_rng(seed), 6, team_sizes, 1, 0.9)


def only_action(spec) -> AdversaryPolicy:
    return AdversaryPolicy(np.ones((spec.state_count, 1)))


def random_team_policies(spec, rng, count: int = 10) -> list[TeamPolicy]:
    S = spec.state_count
    return [TeamPolicy(tuple(rng.dirichlet(np.ones(a), size=S) for a in spec.team_sizes))
            for _ in range(count)]


@pytest.mark.parametrize("seed,team_sizes", TEAMS + PLAYERS)
def test_nash_gap_certifies_the_team_optimum(seed, team_sizes):
    spec = game(seed, team_sizes)
    x, v_opt = team_optimum(spec)
    y = only_action(spec)
    assert value_rho(spec, x, y) == pytest.approx(v_opt, abs=1e-12)
    assert nash_gap(spec, x, y).epsilon_certified <= 1e-12


@pytest.mark.parametrize("seed,team_sizes", TEAMS + PLAYERS)
def test_no_team_policy_beats_the_optimum(seed, team_sizes):
    spec = game(seed, team_sizes)
    _, v_opt = team_optimum(spec)
    y = only_action(spec)
    for x in random_team_policies(spec, np.random.default_rng(seed + 1000)):
        assert value_rho(spec, x, y) >= v_opt - 1e-12


@pytest.mark.parametrize("seed,team_sizes", PLAYERS)
def test_one_players_gap_is_its_value_above_the_optimum(seed, team_sizes):
    spec = game(seed, team_sizes)
    _, v_opt = team_optimum(spec)
    y = only_action(spec)
    for x in random_team_policies(spec, np.random.default_rng(seed + 2000)):
        gap = nash_gap(spec, x, y).team_gaps[0]
        assert gap == pytest.approx(value_rho(spec, x, y) - v_opt, abs=1e-12)
        assert gap > 1e-6  # a random policy is not optimal, so the check has teeth
