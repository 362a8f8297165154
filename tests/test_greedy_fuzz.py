"""Property test of the best responses' greedy rule.

mdp._greedy reduces an action-major copy of its (S, U) table; the oracle
reduces each row.  max, |.|-max and a first-index argmax round nothing, so
the two must agree bit for bit on any finite table: exact ties, pairs
within the tie tolerance of each other, signed zeros, all-negative rows
(the team side's negated values) and magnitudes up to 1e300.
"""

from __future__ import annotations

import numpy as np
import pytest

from atmg.mdp import _TIE_RTOL, _greedy
from oracles import greedy_rows

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

VALUES = (
    st.floats(-1e300, 1e300)
    | st.floats(-10.0, 10.0)
    | st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 5e-324])
)
# How a row is edited after its draw: left alone, an exact tie with its
# max, a pair within 1e-12 relative (inside or just outside the tolerance),
# made all negative, or made of signed zeros.
EDITS = st.sampled_from(["none", "tie", "near", "negative", "zeros"])


@st.composite
def tables(draw):
    S, U = draw(st.integers(1, 50)), draw(st.integers(1, 6))
    q = np.array(draw(st.lists(VALUES, min_size=S * U, max_size=S * U))).reshape(S, U)
    for s, edit in enumerate(draw(st.lists(EDITS, min_size=S, max_size=S))):
        row = q[s]
        j = draw(st.integers(0, U - 1))
        if edit == "tie":
            row[j] = row.max()
        elif edit == "near":
            rel = draw(st.sampled_from([0.5, 1.0, 1.0 - 2**-40, 1.0 + 2**-40, 2.0]))
            row[j] = row.max() - rel * _TIE_RTOL * np.abs(row).max()
        elif edit == "negative":
            row[:] = -np.abs(row)
        elif edit == "zeros":
            row[:] = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=U, max_size=U))
    # _greedy gets strided views from the best responses' matmuls.
    if draw(st.booleans()):
        q = np.stack([q, np.zeros_like(q)], axis=1)[:, 0, :]
    return q


@settings(max_examples=100, deadline=None)
@given(q=tables())
def test_greedy_matches_the_row_wise_rule_bit_for_bit(q):
    best, slack = _greedy(q)
    want_best, want_slack = greedy_rows(q)
    assert best.tobytes() == want_best.tobytes()
    assert slack.tobytes() == want_slack.tobytes()
