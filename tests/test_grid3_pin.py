"""The bytes of grid_world(3)'s gradient loop and certificate, pinned.

Each seed starts from a team policy drawn from a Dirichlet by
default_rng(seed), or from the uniform policy at seed 0, and takes 3
projected-gradient steps at eta = 0.1 with no iterate selection.  Its last
iterate x(T) is certified against its best response y*(x(T)) by nash_gap.
The pin covers phi, the step norms, x(T), y* and the gaps at full
precision, so a change to the evaluation layer that moves one bit of any
of them fails here.  A change that moves these bits updates them and says why.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from atmg.extension import nash_gap
from atmg.game import grid_world
from atmg.ipgmax import IpgmaxConfig, run
from atmg.mdp import TeamPolicy, adversary_best_response

# SHA-256 prefixes of each seed's outputs, as grid3_outputs joins them.
GRID3_DIGESTS = {
    0: "1c6007a39be7f03b", 1: "451548d6e9acd677", 2: "ad784a91ff54b8e2",
    3: "1c060d9b52720412", 4: "5a4c8701cf06a97d", 5: "0a2f0bdd0a1019c3",
    6: "87c1909e229823b7", 7: "a34f5ae08ba30142", 8: "c02a1128ff9f6d3b",
    9: "7cce64abd8973f06", 10: "ba4d3f6eff7d202a", 11: "53eaca9d0c6b7856",
}


def grid3_outputs(seed: int) -> bytes:
    spec, x0 = grid_world(3), None
    if seed != 0:
        rng = np.random.default_rng(seed)
        x0 = TeamPolicy(tuple(rng.dirichlet(np.ones(a), size=spec.state_count)
                              for a in spec.team_sizes))
    trace = run(spec, x0, IpgmaxConfig(eta=0.1, iters=3, iterate_selection="none"))
    x = trace.policies[-1]
    y, _ = adversary_best_response(spec, x)
    report = nash_gap(spec, x, y)
    gaps = [*report.team_gaps, report.adversary_gap, report.epsilon_certified]
    arrays = (trace.phi, trace.frob_norms, x.as_vector(), y.probs, np.array(gaps))
    return b"".join(a.tobytes() for a in arrays)


@pytest.mark.parametrize("seed", range(12))
def test_grid3_outputs_keep_their_bytes(seed):
    assert hashlib.sha256(grid3_outputs(seed)).hexdigest()[:16] == GRID3_DIGESTS[seed]
