"""Property test of the input boundary.

A game file, in either schema, and a policies file are changed one edit at
a time and passed to `atmg verify`.  Every call must return 0, 1 or 3 and
never raise, and an edit that leaves a file malformed must give exit code 1.
The number flags of `atmg gridworld` and `atmg verify` get arbitrary floats,
nan, infinities and negatives included: gridworld must return 0 or 1 and
write a valid game only on 0, and verify must return 1 exactly when
--epsilon is not a finite number >= 0.  Random iterate selection takes any
delta in (0, 1), subnormals included, and draws ceil(-ln delta) indices.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from atmg.cli import main
from atmg.game import load_game, save_game, validate
from atmg.ipgmax import selection_candidates
from conftest import make_random_game, v1_document

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

GAME = make_random_game(np.random.default_rng(3), 2, (2,), 2, 0.9)
POLICIES = {"x": [[[0.5, 0.5], [0.5, 0.5]]], "y": [[0.5, 0.5], [0.5, 0.5]], "lambda": None}
REQUIRED = {
    "game": ("schema", "states", "team_sizes", "adversary_actions", "gamma", "rho",
             "reward", "transition"),
    "policies": ("x", "y"),
}

# Values no numeric field accepts.  The big integers are valid JSON that no
# float can hold.
MALFORMED = st.sampled_from([None, "x", [], {}, float("nan"), float("inf"), -float("inf")]) | (
    st.integers(min_value=10**400, max_value=10**401)
)
NUMBERS = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**20, 10**20)
# Flag values: any float, plus the edges of each flag's valid range.
FLAG_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 1.0, 1e-300, -1e-300, 1e308])


def numeric_leaves(doc, path=()):
    """Paths to every number in doc, skipping the lambda table verify ignores."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key != "lambda":
                yield from numeric_leaves(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from numeric_leaves(value, path + (i,))
    elif isinstance(doc, (int, float)):
        yield path


def replace(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_verify_never_raises_on_mutated_input(tmp_path, data):
    game_path, pol_path = tmp_path / "game.json", tmp_path / "policies.json"
    save_game(GAME, game_path)
    schema = data.draw(st.sampled_from(["atmg-v2", "atmg-v1"]), label="schema")
    game = json.loads(game_path.read_text()) if schema == "atmg-v2" else v1_document(GAME)
    docs = {"game": game, "policies": json.loads(json.dumps(POLICIES))}

    target = data.draw(st.sampled_from(["game", "policies"]), label="file")
    doc = docs[target]
    kind = data.draw(st.sampled_from(["malformed", "number", "drop", "text", "truncate"]),
                     label="edit")
    path = data.draw(st.sampled_from(list(numeric_leaves(doc))), label="leaf")
    if kind == "malformed":
        replace(doc, path, data.draw(MALFORMED, label="value"))
    elif kind == "number":
        replace(doc, path, data.draw(NUMBERS, label="value"))
    elif kind == "drop":
        del doc[data.draw(st.sampled_from(REQUIRED[target]), label="key")]

    contents = {name: json.dumps(d).encode() for name, d in docs.items()}
    if kind == "text":
        contents[target] = data.draw(st.binary() | st.text().map(str.encode), label="bytes")
    elif kind == "truncate":
        # Every proper prefix of a JSON object is invalid JSON.
        cut = data.draw(st.integers(0, len(contents[target]) - 1), label="cut")
        contents[target] = contents[target][:cut]
    game_path.write_bytes(contents["game"])
    pol_path.write_bytes(contents["policies"])

    code = main(["verify", "--game", str(game_path), "--policies", str(pol_path),
                 "--epsilon", "0.1"])
    assert code in (0, 1, 3)
    if kind != "number":
        assert code == 1


def flag(name, value):
    # "--name=value" keeps argparse from reading a negative value as an option.
    return f"--{name}={value!r}"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gamma=FLAG_FLOATS, shift_delta=FLAG_FLOATS)
def test_gridworld_number_flags_never_write_an_invalid_game(tmp_path, gamma, shift_delta):
    out = tmp_path / "grid.json"
    out.unlink(missing_ok=True)
    code = main(["gridworld", "--n", "2", "--out", str(out),
                 flag("gamma", gamma), flag("shift-delta", shift_delta)])
    assert code in (0, 1)
    assert out.exists() == (code == 0)
    if code == 0:
        assert validate(load_game(out)) == []


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(epsilon=FLAG_FLOATS)
def test_verify_epsilon_flag_never_raises(tmp_path, epsilon):
    game_path, pol_path = tmp_path / "game.json", tmp_path / "policies.json"
    save_game(GAME, game_path)
    pol_path.write_text(json.dumps(POLICIES))
    code = main(["verify", "--game", str(game_path), "--policies", str(pol_path),
                 flag("epsilon", epsilon)])
    assert code in (0, 1, 3)
    assert (code == 1) == (not (np.isfinite(epsilon) and epsilon >= 0.0))


@settings(max_examples=200, deadline=None)
@given(delta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
       | st.sampled_from([5e-324, 1e-310, 5.5e-309, 5.6e-309, 2.2250738585072014e-308]))
def test_random_selection_takes_any_delta_in_the_open_unit_interval(delta):
    candidates = selection_candidates(7, "random", delta=delta, seed=0)
    assert all(0 <= t < 7 for t in candidates)
    assert len(candidates) == math.ceil(-math.log(delta))
