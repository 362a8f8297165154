from __future__ import annotations

import numpy as np
import pytest

from atmg import lp
from atmg.lp import LinearProgram, find_feasible, solve
from atmg.mdp import adversary_best_response, marginal_reward_table, uniform_team_policy
from conftest import make_random_game, pennies_game, random_policies
from lp_oracle import adversary_mdp_primal_dual


# ---------------------------------------------------------------------------
# Simplex basics
# ---------------------------------------------------------------------------

def test_single_variable_optimum():
    sol = solve(LinearProgram(
        objective=[1.0], lhs=[[1.0]], senses=("<=",), rhs=[1.0],
    ))
    assert sol.status == lp.OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.objective == pytest.approx(1.0, abs=1e-12)


def test_two_variable_vertex():
    sol = solve(LinearProgram(
        objective=[1.0, 1.0],
        lhs=[[1.0, 2.0], [3.0, 1.0]],
        senses=("<=", "<="),
        rhs=[4.0, 6.0],
    ))
    assert sol.status == lp.OPTIMAL
    np.testing.assert_allclose(sol.x, [1.6, 1.2], atol=1e-10)
    assert sol.objective == pytest.approx(2.8, abs=1e-10)


def test_infeasible_reports_violation():
    sol = solve(LinearProgram(
        objective=[1.0],
        lhs=[[1.0], [1.0]],
        senses=(">=", "<="),
        rhs=[2.0, 1.0],
    ))
    assert sol.status == lp.INFEASIBLE
    assert sol.x is None
    assert sol.max_violation > 0.1


def test_unbounded():
    sol = solve(LinearProgram(
        objective=[1.0], lhs=[[1.0]], senses=(">=",), rhs=[0.0],
    ))
    assert sol.status == lp.UNBOUNDED


def test_equality_row_with_upper_bound():
    sol = solve(LinearProgram(
        objective=[2.0, 1.0],
        lhs=[[1.0, 1.0]],
        senses=("=",),
        rhs=[1.0],
        upper=[0.3, np.inf],
    ))
    assert sol.status == lp.OPTIMAL
    np.testing.assert_allclose(sol.x, [0.3, 0.7], atol=1e-10)
    assert sol.objective == pytest.approx(1.3, abs=1e-10)


def test_free_variable():
    sol = solve(LinearProgram(
        objective=[-1.0],
        lhs=[[1.0]],
        senses=(">=",),
        rhs=[-3.0],
        lower=[-np.inf],
    ))
    assert sol.status == lp.OPTIMAL
    assert sol.x[0] == pytest.approx(-3.0, abs=1e-10)
    assert sol.objective == pytest.approx(3.0, abs=1e-10)


def test_upper_bounds_bind():
    sol = solve(LinearProgram(
        objective=[1.0], lhs=[[1.0]], senses=(">=",), rhs=[0.0], upper=[2.5],
    ))
    assert sol.status == lp.OPTIMAL
    assert sol.x[0] == pytest.approx(2.5, abs=1e-10)


def test_find_feasible_trivial_and_contradictory():
    ok = find_feasible(LinearProgram(
        objective=[0.0], lhs=[[1.0]], senses=("<=",), rhs=[5.0],
    ))
    assert ok.status == lp.FEASIBLE
    assert ok.max_residual <= lp.RESIDUAL_LIMIT

    bad = find_feasible(LinearProgram(
        objective=[0.0],
        lhs=[[1.0], [-1.0]],
        senses=(">=", ">="),
        rhs=[1.0, 0.0],
    ))
    assert bad.status == lp.INFEASIBLE


def test_shape_and_sense_validation():
    with pytest.raises(ValueError, match="inconsistent"):
        LinearProgram(objective=[1.0, 1.0], lhs=[[1.0]], senses=("<=",), rhs=[1.0])
    with pytest.raises(ValueError, match="sense"):
        LinearProgram(objective=[1.0], lhs=[[1.0]], senses=("<",), rhs=[1.0])
    with pytest.raises(ValueError, match="finite"):
        LinearProgram(objective=[np.nan], lhs=[[1.0]], senses=("<=",), rhs=[1.0])


def test_random_lps_residual_and_determinism():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n, k = int(rng.integers(2, 6)), int(rng.integers(2, 8))
        prog = LinearProgram(
            objective=rng.normal(size=n),
            lhs=rng.normal(size=(k, n)),
            senses=tuple(rng.choice(["<=", ">="], size=k)),
            rhs=rng.uniform(0.5, 2.0, size=k),
            upper=np.full(n, 10.0),  # keep everything bounded
        )
        first = solve(prog)
        again = solve(prog)
        assert first.status == again.status
        if first.status == lp.OPTIMAL:
            np.testing.assert_array_equal(first.x, again.x)
            assert first.max_residual <= lp.RESIDUAL_LIMIT


def test_degenerate_rows_are_handled():
    # Duplicate equality rows leave a redundant artificial in the basis;
    # the solver must drop the row rather than stall.
    sol = solve(LinearProgram(
        objective=[1.0, -1.0],
        lhs=[[1.0, 1.0], [1.0, 1.0]],
        senses=("=", "="),
        rhs=[1.0, 1.0],
    ))
    assert sol.status == lp.OPTIMAL
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-10)


# ---------------------------------------------------------------------------
# Adversary MDP primal/dual pair
# ---------------------------------------------------------------------------

def test_primal_dual_single_state():
    spec = make_random_game(np.random.default_rng(11), 1, (2,), 3, 0.5)
    x = uniform_team_policy(spec)
    v, lam = adversary_mdp_primal_dual(spec, x)
    r_x = marginal_reward_table(spec, x)
    b_star = int(np.argmax(r_x[0]))
    assert v[0] == pytest.approx(r_x[0, b_star] / 0.5, rel=1e-9)
    assert lam[0, b_star] == pytest.approx(2.0, abs=1e-9)
    assert lam[0].sum() == pytest.approx(2.0, abs=1e-9)


def test_primal_matches_value_iteration():
    rng = np.random.default_rng(13)
    for _ in range(10):
        spec = make_random_game(rng, 3, (2,), 2, 0.9)
        x, _ = random_policies(rng, spec)
        v, _ = adversary_mdp_primal_dual(spec, x)
        _, v_hat = adversary_best_response(spec, x)
        np.testing.assert_allclose(v, v_hat, atol=1e-7)


def test_strong_duality_and_occupancy_bounds():
    rng = np.random.default_rng(17)
    for _ in range(10):
        spec = make_random_game(rng, 3, (2, 2), 3, 0.9)
        x, _ = random_policies(rng, spec)
        v, lam = adversary_mdp_primal_dual(spec, x)
        r_x = marginal_reward_table(spec, x)
        primal_value = float(spec.initial_dist @ v)
        dual_value = float((lam * r_x).sum())
        assert primal_value == pytest.approx(dual_value, abs=1e-7)
        row_sums = lam.sum(axis=1)
        assert np.all(row_sums >= spec.initial_dist - 1e-8)
        assert np.all(row_sums <= 1.0 / (1.0 - 0.9) + 1e-6)
        assert np.all(lam >= -1e-10)


def test_primal_dual_pennies():
    spec = pennies_game()
    x = uniform_team_policy(spec)
    v, lam = adversary_mdp_primal_dual(spec, x)
    # Both adversary actions pay 0.5 against the uniform team; gamma = 0 so
    # the occupancy is rho spread over any optimal action.
    assert v[0] == pytest.approx(0.5, abs=1e-10)
    assert lam.sum() == pytest.approx(1.0, abs=1e-10)
