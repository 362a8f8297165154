"""Property test of the simplex projection.

mdp._project_simplex_rows sorts an action-major copy of its (m, d) table by
a network of maxima and minima and reduces along the action axis; the
oracle sorts, sums and thresholds each row.  Neither sort rounds and both
cumulative sums add in descending order, so the two must agree bit for bit
on any finite table: exact ties, signed zeros and magnitudes up to 1e300.
"""

from __future__ import annotations

import numpy as np
import pytest

from atmg.mdp import _project_simplex_rows
from oracles import project_simplex_rows

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

VALUES = (
    st.floats(-1e300, 1e300)
    | st.floats(-10.0, 10.0)
    | st.floats(0.0, 1.0)
    | st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e300, 5e-324])
)
# How a row is edited after its draw: left alone, an exact tie of two
# entries, all entries equal, or made of signed zeros.
EDITS = st.sampled_from(["none", "tie", "equal", "zeros"])


@st.composite
def tables(draw):
    m, d = draw(st.integers(1, 50)), draw(st.integers(1, 6))
    mat = np.array(draw(st.lists(VALUES, min_size=m * d, max_size=m * d))).reshape(m, d)
    for row, edit in zip(mat, draw(st.lists(EDITS, min_size=m, max_size=m))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        if edit == "tie":
            row[j] = row[i]
        elif edit == "equal":
            row[:] = row[i]
        elif edit == "zeros":
            row[:] = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=d, max_size=d))
    return mat


@settings(max_examples=100, deadline=None)
@given(mat=tables())
def test_projection_matches_the_row_wise_formula_bit_for_bit(mat):
    assert _project_simplex_rows(mat).tobytes() == project_simplex_rows(mat).tobytes()
