"""Certificate quality: fixed cases, each with a ceiling on its certified gap.

Each case runs the library pipeline: the gradient loop with the prox scan,
the adversary LP at 1.1x the measured prox gap, and the exact Nash gap of
the extracted pair.  The measured certified gap of each case is in a
comment next to it.

The pennies rows start from the same policies as the benchmark's
pennies-prox workload and use criterion 07's ceiling of 0.1.  Only seeds 0
and 2 run here.  At seed 2 the LP's phase one returns a vertex far from
equilibrium inside the epsilon corridor (ROADMAP item 1), so that row is an
expected failure until item 1 lands.
"""

from __future__ import annotations

import numpy as np
import pytest

from atmg.extension import adv_nash_policy, nash_gap
from atmg.ipgmax import IpgmaxConfig, run
from atmg.mdp import TeamPolicy
from conftest import pennies_game

PENNIES_CEILING = 0.1


def pennies_start(seed: int) -> float:
    """First-action probability of pennies-prox's start policy for seed."""
    if seed == 0:
        return 0.9
    return float(np.random.default_rng(seed).uniform(0.05, 0.95))


def certified_gap(spec, x0: TeamPolicy, eta: float, iters: int) -> float:
    trace = run(spec, x0, IpgmaxConfig(eta=eta, iters=iters))
    y_hat, _ = adv_nash_policy(spec, trace.x_hat, 1.1 * trace.prox_gaps[trace.t_star])
    return nash_gap(spec, trace.x_hat, y_hat).epsilon_certified


@pytest.mark.parametrize("seed", [
    0,  # certifies -2.2e-16
    pytest.param(2, marks=pytest.mark.xfail(
        strict=True, reason="certifies 0.299: the LP keeps phase one's vertex (ROADMAP item 1)")),
])
def test_pennies_certifies_within_the_ceiling(seed):
    p = pennies_start(seed)
    x0 = TeamPolicy(blocks=(np.array([[p, 1.0 - p]]),))
    assert certified_gap(pennies_game(), x0, eta=0.05, iters=30) <= PENNIES_CEILING
