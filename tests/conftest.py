"""Shared fixtures: the matching-pennies game and random-game generators.

Random games use Dirichlet transition rows, rewards uniform in (0.05, 0.95)
so value bounds have real margin, and an initial distribution mixed with
uniform so it always has full support.  The small helpers below (the dense
transition tensor, joint-action indices, the uniform adversary) serve only
the tests, so they live here rather than in atmg.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from atmg.game import GameSpec, Transitions, grid_world
from atmg.mdp import AdversaryPolicy, TeamPolicy


def dense_transition(transitions: Transitions) -> np.ndarray:
    """The dense tensor P[s, a_joint, b, s'] of successor lists; indices must lie in [0, S)."""
    out = np.zeros(transitions.shape)
    rows = np.indices(transitions.succ.shape, sparse=True)[:-1]
    np.add.at(out, (*rows, transitions.succ), transitions.prob)
    return out


def joint_index(spec: GameSpec, actions) -> int:
    """Flatten per-player actions (a_1, ..., a_n) to the joint index, player 1 fastest."""
    j = 0
    radix = 1
    for a, size in zip(actions, spec.team_sizes):
        if not 0 <= a < size:
            raise ValueError(f"action {a} out of range for size {size}")
        j += int(a) * radix
        radix *= size
    return j


def uniform_adversary_policy(spec: GameSpec) -> AdversaryPolicy:
    S, B = spec.state_count, spec.adversary_actions
    return AdversaryPolicy(np.full((S, B), 1.0 / B))


def make_random_game(
    rng: np.random.Generator,
    state_count: int,
    team_sizes: tuple[int, ...],
    adversary_actions: int,
    discount: float,
) -> GameSpec:
    A_joint = int(np.prod(team_sizes))
    S, B = state_count, adversary_actions
    reward = rng.uniform(0.05, 0.95, size=(S, A_joint, B))
    transition = rng.dirichlet(np.ones(S), size=(S, A_joint, B))
    rho = 0.5 * rng.dirichlet(np.ones(S)) + 0.5 / S
    return GameSpec(
        state_count=S,
        team_sizes=team_sizes,
        adversary_actions=B,
        reward=reward,
        transition=transition,
        discount=discount,
        initial_dist=rho,
    )


def make_mixed_support_game(
    rng: np.random.Generator,
    state_count: int,
    team_sizes: tuple[int, ...],
    adversary_actions: int,
    discount: float,
) -> GameSpec:
    """Random game whose transition rows have between 1 and S - 1 successors."""
    spec = make_random_game(rng, state_count, team_sizes, adversary_actions, discount)
    dense = dense_transition(spec.transition)
    support = rng.integers(1, state_count, size=dense.shape[:3])
    keep = rng.permuted(np.arange(state_count) < support[..., None], axis=-1)
    dense = np.where(keep, dense, 0.0)
    return dataclasses.replace(spec, transition=dense / dense.sum(axis=-1, keepdims=True))


def v1_document(spec: GameSpec) -> dict:
    """spec as an "atmg-v1" game file, which stores the dense transition tensor."""
    return {
        "schema": "atmg-v1",
        "states": spec.state_count,
        "team_sizes": list(spec.team_sizes),
        "adversary_actions": spec.adversary_actions,
        "gamma": spec.discount,
        "rho": spec.initial_dist.tolist(),
        "reward": spec.reward.tolist(),
        "transition": dense_transition(spec.transition).tolist(),
    }


def random_game_dims(rng: np.random.Generator) -> tuple[int, tuple[int, ...], int]:
    S = int(rng.integers(1, 6))
    n = int(rng.integers(1, 3))
    team_sizes = tuple(int(rng.integers(2, 4)) for _ in range(n))
    B = int(rng.integers(2, 4))
    return S, team_sizes, B


def random_policies(
    rng: np.random.Generator, spec: GameSpec
) -> tuple[TeamPolicy, AdversaryPolicy]:
    blocks = tuple(
        rng.dirichlet(np.ones(a), size=spec.state_count) for a in spec.team_sizes
    )
    probs = rng.dirichlet(np.ones(spec.adversary_actions), size=spec.state_count)
    return TeamPolicy(blocks=blocks), AdversaryPolicy(probs=probs)


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that records the arguments of each call."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def pennies_game() -> GameSpec:
    reward = np.array([[[0.9, 0.1], [0.1, 0.9]]])
    transition = np.ones((1, 2, 2, 1))
    return GameSpec(
        state_count=1,
        team_sizes=(2,),
        adversary_actions=2,
        reward=reward,
        transition=transition,
        discount=0.0,
        initial_dist=np.array([1.0]),
    )


@pytest.fixture
def pennies() -> GameSpec:
    return pennies_game()


@pytest.fixture(scope="session")
def gridworld2() -> GameSpec:
    return grid_world(2)
