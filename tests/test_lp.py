from __future__ import annotations

import hashlib

import numpy as np
import pytest

from atmg import lp
from atmg.extension import build_lp_adv
from atmg.lp import LinearProgram, find_feasible, solve
from atmg.mdp import adversary_best_response, uniform_team_policy
from conftest import count_calls, make_random_game, pennies_game, random_policies
from oracles import adversary_mdp_primal_dual, marginal_reward_table


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


def test_a_simplex_past_its_pivot_budget_raises(monkeypatch):
    # The two-variable vertex takes two pivots of phase two.
    program = LinearProgram(objective=[1.0, 1.0], lhs=[[1.0, 2.0], [3.0, 1.0]],
                            senses=("<=", "<="), rhs=[4.0, 6.0])
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 1)
    with pytest.raises(lp.NumericInstabilityError, match="^simplex exceeded the pivot budget$"):
        solve(program)


def test_a_vertex_past_the_residual_limit_raises(monkeypatch):
    # x = 0.7 / 0.3 rounds to a point whose row misses 0.7 by 1.1e-16.
    program = LinearProgram(objective=[1.0], lhs=[[0.3]], senses=("=",), rhs=[0.7])
    assert lp.residuals(program, solve(program).x) == 2.0**-53
    monkeypatch.setattr(lp, "RESIDUAL_LIMIT", 1e-16)
    for run in (solve, find_feasible):
        with pytest.raises(lp.NumericInstabilityError,
                           match="^solution residual 1.11022e-16 exceeds 1e-16$"):
            run(program)


def test_equality_row_with_upper_bound():
    # The bound x_0 <= 0.3 is an explicit row.
    sol = solve(LinearProgram(
        objective=[2.0, 1.0],
        lhs=[[1.0, 1.0], [1.0, 0.0]],
        senses=("=", "<="),
        rhs=[1.0, 0.3],
    ))
    assert sol.status == lp.OPTIMAL
    np.testing.assert_allclose(sol.x, [0.3, 0.7], atol=1e-10)
    assert sol.objective == pytest.approx(1.3, abs=1e-10)


def test_free_variable():
    # A free x is split as x = x_plus - x_minus over nonnegative columns.
    sol = solve(LinearProgram(
        objective=[-1.0, 1.0],
        lhs=[[1.0, -1.0]],
        senses=(">=",),
        rhs=[-3.0],
    ))
    assert sol.status == lp.OPTIMAL
    assert sol.x[0] - sol.x[1] == pytest.approx(-3.0, abs=1e-10)
    assert sol.objective == pytest.approx(3.0, abs=1e-10)


def test_upper_bounds_bind():
    sol = solve(LinearProgram(
        objective=[1.0], lhs=[[1.0], [1.0]], senses=(">=", "<="), rhs=[0.0, 2.5],
    ))
    assert sol.status == lp.OPTIMAL
    assert sol.x[0] == pytest.approx(2.5, abs=1e-10)


def test_find_feasible_trivial_and_contradictory():
    trivial = LinearProgram(objective=[0.0], lhs=[[1.0]], senses=("<=",), rhs=[5.0])
    ok = find_feasible(trivial)
    assert ok.status == lp.FEASIBLE
    assert lp.residuals(trivial, ok.x) <= lp.RESIDUAL_LIMIT

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
    with pytest.raises(ValueError, match="one sense per row required"):
        LinearProgram(objective=[1.0], lhs=[[1.0]], senses=("<=", "<="), rhs=[1.0])
    with pytest.raises(ValueError, match="finite"):
        LinearProgram(objective=[np.nan], lhs=[[1.0]], senses=("<=",), rhs=[1.0])


def test_random_lps_residual_and_determinism():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n, k = int(rng.integers(2, 6)), int(rng.integers(2, 8))
        objective = rng.normal(size=n)
        lhs = rng.normal(size=(k, n))
        senses = tuple(rng.choice(["<=", ">="], size=k))
        rhs = rng.uniform(0.5, 2.0, size=k)
        prog = LinearProgram(  # rows x_i <= 10 keep everything bounded
            objective=objective,
            lhs=np.vstack([lhs, np.eye(n)]),
            senses=senses + ("<=",) * n,
            rhs=np.append(rhs, np.full(n, 10.0)),
        )
        first = solve(prog)
        again = solve(prog)
        assert first.status == again.status
        if first.status == lp.OPTIMAL:
            np.testing.assert_array_equal(first.x, again.x)
            assert lp.residuals(prog, first.x) <= lp.RESIDUAL_LIMIT


def test_residuals_report_a_negative_coordinate():
    prog = LinearProgram(objective=[1.0], lhs=[[1.0]], senses=("<=",), rhs=[1.0])
    assert lp.residuals(prog, [-0.5]) == 0.5
    assert lp.residuals(prog, [0.5]) == 0.0


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


def test_zero_rhs_at_least_rows_need_no_artificial_column(monkeypatch):
    # Every ">=" row has a zero right-hand side, so the origin is feasible
    # and each row's own slack can start the basis: phase one has no
    # artificial column and makes no pivot.
    rng = np.random.default_rng(23)
    k, n = 12, 5
    prog = LinearProgram(
        objective=rng.normal(size=n),
        lhs=np.vstack([rng.normal(size=(k, n)), np.ones((1, n))]),
        senses=(">=",) * k + ("<=",),
        rhs=np.append(np.zeros(k), 3.0),
    )
    T, _, art = lp._tableau(prog)
    assert T.shape[1] - 1 == art

    pivots = count_calls(monkeypatch, lp, "_pivot")
    sol = find_feasible(prog)
    assert sol.status == lp.FEASIBLE
    assert pivots == []
    assert lp.residuals(prog, sol.x) <= lp.RESIDUAL_LIMIT

    opt = solve(prog)
    assert opt.status == lp.OPTIMAL
    assert lp.residuals(prog, opt.x) <= lp.RESIDUAL_LIMIT
    assert opt.objective >= sol.objective - 1e-12


def pin_corpus():
    """Seeded programs for the output pin: 400 random ones, half with small
    integer entries (ties and degenerate vertices), some right-hand sides
    zero, some with repeated equality rows, some without bounding rows so
    all four statuses occur; then the per-state adversary programs of 30
    random games at five values of epsilon."""
    rng = np.random.default_rng(2024)
    for i in range(400):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        if i % 2:
            lhs = rng.integers(-3, 4, size=(k, n)).astype(float)
            rhs = rng.integers(-3, 4, size=k).astype(float)
        else:
            lhs = rng.normal(size=(k, n))
            rhs = np.where(rng.random(k) < 0.25, 0.0, rng.normal(size=k))
        senses = tuple(rng.choice(["<=", ">=", "="], size=k, p=[0.45, 0.4, 0.15]))
        if i % 5 == 4:  # a repeated equality row is redundant after phase one
            m = k // 2 + 1
            lhs, rhs = np.vstack([lhs, lhs[:m]]), np.append(rhs, rhs[:m])
            senses = ("=",) * m + senses[m:] + ("=",) * m
        if i % 3:  # rows x_j <= 5 keep the program bounded
            lhs, senses = np.vstack([lhs, np.eye(n)]), senses + ("<=",) * n
            rhs = np.append(rhs, np.full(n, 5.0))
        yield LinearProgram(rng.normal(size=n), lhs, senses, rhs)
    for _ in range(30):
        spec = make_random_game(
            rng, int(rng.integers(2, 5)), [(2,), (3,), (2, 2)][int(rng.integers(3))],
            int(rng.integers(2, 4)), float(rng.choice([0.5, 0.9])))
        x, _ = random_policies(rng, spec)
        for epsilon in (0.0, 0.01, 0.1, 1.0, 10.0):
            yield from build_lp_adv(spec, x, epsilon)


def pin_digest() -> tuple[str, dict]:
    """SHA-256 over (status, x bytes, objective, max_violation) of every
    corpus program through find_feasible and then solve, and the status counts."""
    digest, counts = hashlib.sha256(), {}
    for prog in pin_corpus():
        for entry in (find_feasible, solve):
            sol = entry(prog)
            counts[sol.status] = counts.get(sol.status, 0) + 1
            x = b"-" if sol.x is None else sol.x.tobytes()
            digest.update(f"{sol.status}|{sol.objective!r}|{sol.max_violation!r}|".encode() + x)
    return digest.hexdigest(), counts


PIN_DIGEST = "ff4164fd33d36de7cf0a36c39bef5b8c558a0d2555957ad3d8fb14be7ca60d31"
PIN_COUNTS = {"infeasible": 664, "feasible": 558, "optimal": 530, "unbounded": 28}


def test_lp_outputs_are_pinned():
    # Every status, point, objective and violation of the corpus keeps its
    # bytes: a change to the simplex's bookkeeping must leave its pivots alone.
    digest, counts = pin_digest()
    assert counts == PIN_COUNTS
    assert digest == PIN_DIGEST


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
