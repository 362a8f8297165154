from __future__ import annotations

import gc
import math
import warnings

import numpy as np
import pytest

import atmg.ipgmax
from atmg.game import GameSpec, grid_world, normalize_rewards, validate
from atmg.ipgmax import (
    SELECTION_MODES,
    IpgmaxConfig,
    prox_gap,
    prox_point,
    run,
    schedule_proposition,
    schedule_theorem,
    select_iterate,
    selection_candidates,
)
from atmg.mdp import (
    TeamPolicy,
    adversary_best_response,
    check_policies,
    joint_policy_vector,
    policy_gradient,
    project_product_simplex,
    smoothness_constants,
    uniform_team_policy,
)
from conftest import count_calls, pennies_game


def half_game(adversary_actions: int = 2) -> GameSpec:
    """2-state fixture with gamma = 0.5, uniform rho, uniform transitions."""
    rng = np.random.default_rng(0)
    B = adversary_actions
    return GameSpec(
        state_count=2,
        team_sizes=(2,),
        adversary_actions=B,
        reward=rng.uniform(0.05, 0.95, size=(2, 2, B)),
        transition=np.full((2, 2, B, 2), 0.5),
        discount=0.5,
        initial_dist=np.array([0.5, 0.5]),
    )


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def test_theorem_schedule_frozen_values():
    spec = half_game()
    eta, T = schedule_theorem(spec, 0.1)
    assert eta == pytest.approx(3.725290298461915e-11, rel=1e-12)
    assert T == 351843720888319922


def test_theorem_schedule_scaling_in_epsilon():
    spec = half_game()
    _, T1 = schedule_theorem(spec, 0.1)
    eta2, T2 = schedule_theorem(spec, 0.05)
    # 0.05 is exactly half of 0.1 in binary, so T scales by 16 up to the
    # ceiling and eta by exactly 1/4.
    assert 16 * T1 - 15 <= T2 <= 16 * T1
    assert eta2 == pytest.approx(3.725290298461915e-11 / 4.0, rel=1e-12)


def test_theorem_schedule_rejects_bad_arguments():
    spec = half_game()
    with pytest.raises(ValueError, match="epsilon"):
        schedule_theorem(spec, 0.0)


def test_theorem_schedule_takes_a_valid_game_whose_d_bar_rounds_below_one():
    # One state, gamma = 0: D_bar = 1 / min rho, and a rho within validate's
    # 1e-12 of 1 makes it 0.9999999999995.
    spec = GameSpec(
        state_count=1,
        team_sizes=(2,),
        adversary_actions=2,
        reward=np.full((1, 2, 2), 0.5),
        transition=np.ones((1, 2, 2, 1)),
        discount=0.0,
        initial_dist=np.array([1.0 + 5e-13]),
    )
    assert validate(spec) == []
    assert smoothness_constants(spec).D_bar < 1.0
    eta, T = schedule_theorem(spec, 0.5)
    assert 0.0 < eta < math.inf and T >= 1


def test_proposition_schedule_frozen_values():
    spec = half_game()
    eta, T = schedule_proposition(spec, 0.1)
    assert eta == pytest.approx(0.01, rel=1e-12)
    assert T == 5


def test_proposition_schedule_clamps_to_one():
    spec = half_game()
    _, T = schedule_proposition(spec, 1.0)
    assert T == 1


def test_proposition_schedule_shrinks_with_more_actions():
    _, T_small = schedule_proposition(half_game(2), 0.1)
    _, T_large = schedule_proposition(half_game(4), 0.1)
    assert T_large < T_small


@pytest.mark.parametrize("schedule", [schedule_theorem, schedule_proposition])
def test_schedules_reject_an_epsilon_whose_square_overflows(schedule):
    with pytest.raises(ValueError, match=r"epsilon = 1e\+200 is too large"):
        schedule(half_game(), 1e200)


@pytest.mark.parametrize("schedule", [schedule_theorem, schedule_proposition])
def test_schedules_refuse_a_numpy_epsilon_whose_square_overflows_without_a_warning(schedule):
    # numpy's power only warns on overflow; with warnings as errors that
    # warning would escape in place of the ValueError that names epsilon.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"epsilon = 1e\+200 is too large"):
            schedule(grid_world(2), np.float64(1e200))


@pytest.mark.parametrize("schedule", [schedule_theorem, schedule_proposition])
@pytest.mark.parametrize("epsilon", [math.nan, math.inf, True, np.True_],
                         ids=["nan", "inf", "true", "numpy-true"])
def test_schedules_refuse_an_epsilon_that_is_not_a_finite_positive_number(schedule, epsilon):
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        schedule(half_game(), epsilon)


@pytest.mark.parametrize("schedule,epsilon,message", [
    # epsilon**2 = 1e308 is finite, but 2 epsilon**2 (1 - gamma) overflows.
    (schedule_proposition, 1e154, r"epsilon = 1e\+154 is too large: it gives the step eta = inf"),
    # epsilon**2 underflows to 0, so the run would never move.
    (schedule_theorem, 1e-200, r"epsilon = 1e-200 is too small: it gives the step eta = 0"),
], ids=["proposition-eta-overflows", "theorem-eta-underflows"])
def test_schedules_reject_an_epsilon_whose_step_is_not_finite_and_positive(
    schedule, epsilon, message
):
    with pytest.raises(ValueError, match=message):
        schedule(pennies_game(), epsilon)


@pytest.mark.parametrize("field,value", [
    ("iters", 2.5), ("iters", True), ("iters", float("nan")),
], ids=["iters-fraction", "iters-bool", "iters-nan"])
def test_config_rejects_counts_that_are_not_whole_numbers(field, value):
    config = IpgmaxConfig(eta=0.05, iters=2)
    setattr(config, field, value)
    with pytest.raises(ValueError, match=f"{field} must be a whole number"):
        config.validate()
    with pytest.raises(ValueError, match=f"{field} must be a whole number"):
        run(pennies_game(), None, config)


def test_config_accepts_whole_counts_of_any_numeric_type():
    config = IpgmaxConfig(eta=0.05, iters=2.0, seed=np.int64(3), iterate_selection="none")
    config.validate()
    assert run(pennies_game(), None, config).iterations == 2


def test_config_validation():
    IpgmaxConfig(eta=0.1, iters=10).validate()

    with pytest.raises(ValueError, match="requires eta and iters"):
        IpgmaxConfig(iters=10).validate()
    with pytest.raises(ValueError, match="requires eta and iters"):
        IpgmaxConfig(eta=0.1).validate()
    with pytest.raises(ValueError, match="nonnegative"):
        IpgmaxConfig(eta=-0.1, iters=10).validate()
    with pytest.raises(ValueError, match="at least 1"):
        IpgmaxConfig(eta=0.1, iters=0).validate()
    with pytest.raises(ValueError, match="iterate_selection"):
        IpgmaxConfig(eta=0.1, iters=1, iterate_selection="best").validate()
    with pytest.raises(ValueError, match="delta"):
        IpgmaxConfig(eta=0.1, iters=1, iterate_selection="random", delta=1.0).validate()
    for field in ("eta", "delta"):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            IpgmaxConfig(**{"eta": 0.1, "iters": 1, field: True}).validate()
    with pytest.raises(ValueError, match="eta must be a number"):
        IpgmaxConfig(eta=np.True_, iters=1).validate()


@pytest.mark.parametrize("seed,message", [
    (2.5, "a whole number"), (True, "a whole number"), (None, "a whole number"),
    (-1, "at least 0"),
], ids=["fraction", "bool", "none", "negative"])
def test_config_rejects_a_bad_seed_before_the_loop(seed, message, monkeypatch):
    calls = count_calls(monkeypatch, atmg.ipgmax, "policy_gradient")
    config = IpgmaxConfig(eta=0.05, iters=2, seed=seed)
    with pytest.raises(ValueError, match=f"seed must be {message}"):
        run(pennies_game(), None, config)
    assert calls == []


# ---------------------------------------------------------------------------
# The main loop
# ---------------------------------------------------------------------------

def test_run_zero_step_size_keeps_trace_constant(monkeypatch):
    spec = pennies_game()
    x0 = TeamPolicy(blocks=(np.array([[0.3, 0.7]]),))
    calls = count_calls(monkeypatch, atmg.ipgmax, "policy_gradient")
    trace = run(spec, x0, IpgmaxConfig(eta=0.0, iters=5, iterate_selection="none"))
    assert len(calls) == 1  # x never moves, so the first solve is the only one needed
    assert trace.kept == [0, 5] and len(trace.policies) == 2 and trace.iterations == 5
    for x in trace.policies:
        np.testing.assert_array_equal(x.blocks[0], x0.blocks[0])
    np.testing.assert_array_equal(trace.frob_norms, np.zeros(6))
    np.testing.assert_allclose(trace.phi, np.full(6, 0.66), atol=1e-12)
    assert trace.t_star is None
    assert trace.prox_gaps == {}


def reference_trace(spec, x0, eta, T):
    """The loop of run written out with no shortcut: (policies, ys, phi, frob)."""
    rho = spec.initial_dist
    policies, ys, phi, frob = [x0], [], [], [0.0]
    x, prev = x0, None
    for _ in range(T):
        y, v, grad = policy_gradient(spec, x)
        phi.append(float(rho @ v))
        x_next = project_product_simplex(spec, x.as_vector() - eta * grad)
        joint = joint_policy_vector(x_next, y)
        if prev is None:
            prev = joint_policy_vector(x, y)
        frob.append(float(np.linalg.norm(joint - prev)))
        prev = joint
        policies.append(x_next)
        ys.append(y)
        x = x_next
    phi.append(float(rho @ adversary_best_response(spec, x)[1]))
    return policies, ys, np.array(phi), np.array(frob)


def test_run_copies_the_tail_once_the_iterate_is_fixed(monkeypatch):
    # The team prefers action 0; the iterate reaches the vertex [1, 0] at
    # t = 5 and the projection keeps it there bit for bit.
    spec = GameSpec(
        state_count=1,
        team_sizes=(2,),
        adversary_actions=1,
        reward=np.array([[[0.2], [0.8]]]),
        transition=np.ones((1, 2, 1, 1)),
        discount=0.5,
        initial_dist=np.array([1.0]),
    )
    x0 = uniform_team_policy(spec)
    policies, ys, phi, frob = reference_trace(spec, x0, 0.2, 12)
    # The scan's stride is 1 at T = 12, so every iterate is kept; a stand-in
    # prox_gap keeps the scan's best responses out of the count.
    monkeypatch.setattr(atmg.ipgmax, "prox_gap", lambda spec, x: 0.0)
    calls = count_calls(monkeypatch, atmg.ipgmax, "policy_gradient")
    trace = run(spec, x0, IpgmaxConfig(eta=0.2, iters=12, iterate_selection="prox"))
    assert len(calls) == 6  # t = 1..6; x(6) == x(5) ends the loop
    assert trace.kept == list(range(13))
    for x, ref in zip(trace.policies, policies, strict=True):
        np.testing.assert_array_equal(x.blocks[0], ref.blocks[0])
    # x(7), ..., x(12) are x(5) itself, so selection scores that object once.
    assert all(x is trace.policies[5] for x in trace.policies[7:])
    for t, ref in enumerate(ys):  # y(t+1), the best response to x(t)
        y, _ = adversary_best_response(spec, trace.policies[t])
        np.testing.assert_array_equal(y.probs, ref.probs)
    np.testing.assert_array_equal(trace.phi, phi)
    np.testing.assert_array_equal(trace.frob_norms, frob)
    np.testing.assert_array_equal(trace.policies[-1].blocks[0], [[1.0, 0.0]])


def test_run_warm_starts_the_adversary_once_its_response_repeats(monkeypatch):
    # On grid_world(2) from the uniform start the adversary's best response
    # is one policy at every step.  A cold policy iteration takes the
    # adversary's backup twice, at its one-step start and at v_hat; steps 1
    # and 2 start cold, since no response has repeated yet.  From step 3 on,
    # and for the final best response, policy iteration starts from the
    # repeated response, and one backup at its value confirms it: 33
    # backups, against 62 with every start cold.
    spec = normalize_rewards(grid_world(2))[0]
    tables, seen = count_calls(monkeypatch, atmg.mdp, "_adversary_q"), []

    def counted(real):
        def call(*args):
            seen.append(len(tables))
            return real(*args)
        return call

    for name in ("policy_gradient", "adversary_best_response"):
        monkeypatch.setattr(atmg.ipgmax, name, counted(getattr(atmg.ipgmax, name)))
    run(spec, None, IpgmaxConfig(eta=0.1, iters=30, iterate_selection="none"))
    assert np.diff(seen + [len(tables)]).tolist() == [2, 2] + [1] * 29


def test_run_trace_shapes():
    spec = pennies_game()
    trace = run(spec, None, IpgmaxConfig(eta=0.05, iters=7, iterate_selection="none"))
    assert trace.kept == [0, 7] and len(trace.policies) == 2
    assert trace.phi.shape == (8,)
    assert trace.frob_norms.shape == (8,)
    assert trace.frob_norms[0] == 0.0
    assert trace.iterations == 7


def test_run_pennies_converges_to_uniform():
    spec = pennies_game()
    x0 = TeamPolicy(blocks=(np.array([[0.9, 0.1]]),))
    trace = run(spec, x0, IpgmaxConfig(eta=0.05, iters=200))

    for x in trace.policies[::50]:
        check_policies(spec, x)
    assert np.all(trace.phi > 0.0) and np.all(trace.phi < 1.0)

    assert trace.t_star is not None
    measured = trace.prox_gaps[trace.t_star]
    assert measured <= 1e-8
    x_hat = trace.x_hat.blocks[0][0]
    np.testing.assert_allclose(x_hat, [0.5, 0.5], atol=0.05)

    # phi at the selected iterate beats the starting value and sits near the
    # equilibrium value 0.5
    assert trace.phi[trace.t_star] <= trace.phi[0]
    assert trace.phi[trace.t_star] == pytest.approx(0.5, abs=0.02)


def test_run_is_deterministic():
    spec = half_game()
    config = IpgmaxConfig(eta=0.05, iters=30)
    a = run(spec, None, config)
    b = run(spec, None, config)
    assert a.t_star == b.t_star
    assert a.prox_gaps == b.prox_gaps
    assert a.kept == b.kept == list(range(31))  # the scan's stride is 1 at T = 30
    for xa, xb in zip(a.policies, b.policies, strict=True):
        np.testing.assert_array_equal(xa.blocks[0], xb.blocks[0])
    np.testing.assert_array_equal(a.phi, b.phi)


def test_run_rejects_invalid_start():
    spec = pennies_game()
    bad = TeamPolicy(blocks=(np.array([[0.5, 0.4]]),))
    with pytest.raises(ValueError, match="distribution"):
        run(spec, bad, IpgmaxConfig(eta=0.05, iters=3))


def test_run_rejects_a_non_finite_iterate(gridworld2):
    # eta is finite, but eta * grad overflows on the first step.
    with pytest.raises(ValueError, match="iterate 1 is not finite"):
        run(gridworld2, None, IpgmaxConfig(eta=1e308, iters=3, iterate_selection="none"))


@pytest.mark.parametrize("eta,iters", [
    (0.1, 10**12),
    # The paper's pairs are runs too: the proposition's at epsilon = 1e-5,
    # and the theorem's step for 10^8 of its T = 1.3e9 at epsilon = 0.1.
    schedule_proposition(pennies_game(), 1e-5),
    (schedule_theorem(pennies_game(), 0.1)[0], 10**8),
], ids=["manual", "proposition", "theorem-capped-too-high"])
def test_run_refuses_more_than_max_iters(monkeypatch, eta, iters):
    # The refusal comes before the trace arrays (8 bytes per iteration each)
    # are allocated and before the first best response.
    calls = count_calls(monkeypatch, atmg.ipgmax, "policy_gradient")
    final = count_calls(monkeypatch, atmg.ipgmax, "adversary_best_response")
    with pytest.raises(ValueError, match="iterations; set .*--iters.* to at most 10000000"):
        run(pennies_game(), None, IpgmaxConfig(eta=eta, iters=iters))
    assert calls == []
    assert final == []


def test_run_allows_exactly_max_iters(monkeypatch):
    monkeypatch.setattr(atmg.ipgmax, "MAX_ITERS", 5)
    config = IpgmaxConfig(eta=0.05, iters=5, iterate_selection="none")
    assert run(pennies_game(), None, config).iterations == 5
    config.iters = 6
    with pytest.raises(ValueError, match="T = 6 iterations"):
        run(pennies_game(), None, config)


# ---------------------------------------------------------------------------
# Proximal point and gap
# ---------------------------------------------------------------------------

def psi(spec: GameSpec, x: TeamPolicy, x_tilde: TeamPolicy) -> float:
    """prox_point's objective phi(x_tilde) + ell ||x - x_tilde||^2."""
    diff = x_tilde.as_vector() - x.as_vector()
    phi = float(spec.initial_dist @ adversary_best_response(spec, x_tilde)[1])
    return phi + smoothness_constants(spec).ell * float(diff @ diff)


def test_prox_gap_zero_at_stationary_point():
    spec = pennies_game()
    assert prox_gap(spec, uniform_team_policy(spec)) <= 1e-12


def test_prox_point_matches_grid_search():
    # Single state, gamma = 0: psi(x') = max_b sum_a x'_a r[a, b] + ell |x - x'|^2
    # can be minimized by brute force over the 1-simplex.
    rng = np.random.default_rng(23)
    reward = rng.uniform(0.05, 0.95, size=(1, 2, 2))
    spec = GameSpec(
        state_count=1, team_sizes=(2,), adversary_actions=2,
        reward=reward, transition=np.ones((1, 2, 2, 1)),
        discount=0.0, initial_dist=np.array([1.0]),
    )
    ell = smoothness_constants(spec).ell
    x = TeamPolicy(blocks=(np.array([[0.7, 0.3]]),))

    result = prox_point(spec, x)

    grid_best = np.inf
    for p in np.linspace(0.0, 1.0, 1001):
        point = np.array([p, 1.0 - p])
        phi_val = max(point @ reward[0, :, b] for b in range(2))
        dist = np.sum((point - x.blocks[0][0]) ** 2)
        grid_best = min(grid_best, phi_val + ell * dist)
    assert psi(spec, x, result.x_tilde) <= grid_best + 1e-3

    gap = np.linalg.norm(x.as_vector() - result.x_tilde.as_vector())
    assert gap == prox_gap(spec, x)


def test_prox_point_scores_its_last_iterate(monkeypatch):
    # From x = (0.9, 0.1) psi falls on each of the first three steps, so the
    # last iterate, which takes no step, is the best one; it takes a best
    # response and no gradient.  The first best response read is x's own,
    # which seeds the repeat gate.
    monkeypatch.setattr(atmg.ipgmax, "PROX_MAX_ITER", 3)
    spec = pennies_game()
    x = TeamPolicy(blocks=(np.array([[0.9, 0.1]]),))
    ell = smoothness_constants(spec).ell
    iterates = [x]
    for t in range(3):
        grad = policy_gradient(spec, iterates[-1])[2]
        diff = iterates[-1].as_vector() - x.as_vector()
        step = 2.0 / (ell * (t + 2))
        iterates.append(project_product_simplex(
            spec, iterates[-1].as_vector() - step * (grad + 2.0 * ell * diff)))
    psis = [psi(spec, x, point) for point in iterates]
    assert psis[-1] < min(psis[:-1])

    gradients = count_calls(monkeypatch, atmg.ipgmax, "policy_gradient")
    finals = count_calls(monkeypatch, atmg.ipgmax, "adversary_best_response")
    result = prox_point(spec, x)
    assert (result.iterations, result.converged) == (3, False)
    np.testing.assert_array_equal(result.x_tilde.as_vector(), iterates[-1].as_vector())
    assert len(gradients) == 3 and len(finals) == 2
    assert finals[0][1] is x and finals[1][1] is not x


def test_prox_point_starts_warm_from_the_anchors_memoized_response(monkeypatch):
    # x's best response, its memo or, for a copy of x without one, solved
    # first, counts as the one before prox_point's first, which is that
    # response again, so the second, at the first x' other than x, starts
    # from it.  The result is the same.
    spec = normalize_rewards(grid_world(2))[0]
    solved = run(spec, None, IpgmaxConfig(eta=0.1, iters=3, iterate_selection="none")).policies[-1]
    y, _ = adversary_best_response(spec, solved)
    fresh = TeamPolicy(solved.blocks)
    results = []
    for x in (solved, fresh):
        calls = count_calls(monkeypatch, atmg.mdp, "_adversary_iteration")
        results.append(prox_point(spec, x))
        second = next(call for call in calls if call[1] is not x)
        assert calls[0][1] is x and second[3] is y
        monkeypatch.undo()
    assert results[0].x_tilde.as_vector().tobytes() == results[1].x_tilde.as_vector().tobytes()
    assert results[0].iterations == results[1].iterations


def test_prox_point_returns_a_stationary_start_itself():
    # The uniform policy is stationary on pennies: no step lowers psi, so the
    # best iterate is the start, and prox_point returns that object.
    spec = pennies_game()
    x = uniform_team_policy(spec)
    assert prox_point(spec, x).x_tilde is x


def test_prox_point_reports_iterations(monkeypatch):
    monkeypatch.setattr(atmg.ipgmax, "PROX_MAX_ITER", 50)
    spec = pennies_game()
    result = prox_point(spec, uniform_team_policy(spec))
    assert 1 <= result.iterations <= 50
    assert psi(spec, uniform_team_policy(spec), result.x_tilde) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Iterate selection
# ---------------------------------------------------------------------------

def test_select_iterate_single_candidate():
    spec = pennies_game()
    trace = run(spec, None, IpgmaxConfig(eta=0.05, iters=1, iterate_selection="prox"))
    assert trace.candidates == [0]
    t = select_iterate(spec, trace)
    assert t == 0
    assert trace.t_star == 0
    assert trace.x_hat is trace.policies[0]


def test_select_iterate_stride_grid(monkeypatch):
    # The scan's stride is ceil(T/100), 4 at T = 400.  Which gaps come out
    # does not matter here, so a cheap stand-in replaces prox_gap.
    spec = pennies_game()
    monkeypatch.setattr(atmg.ipgmax, "prox_gap", lambda spec, x: float(x.blocks[0][0, 0]))
    trace = run(spec, None, IpgmaxConfig(eta=0.05, iters=400, iterate_selection="prox"))
    grid = set(range(0, 400, 4)) | {399}
    assert set(trace.prox_gaps) == grid
    assert trace.kept == sorted(grid | {400})
    assert trace.t_star in trace.prox_gaps
    assert trace.t_star <= 399


def test_select_iterate_scan_returns_argmin():
    spec = half_game()
    trace = run(spec, None, IpgmaxConfig(eta=0.1, iters=12, iterate_selection="prox"))
    t = trace.t_star  # stride ceil(12/100) = 1
    gaps = trace.prox_gaps
    assert set(gaps) == set(range(12))
    assert gaps[t] == min(gaps.values())


def test_select_iterate_random_draw_count():
    spec = pennies_game()
    config = IpgmaxConfig(eta=0.05, iters=50, iterate_selection="random", delta=0.5, seed=7)
    trace = run(spec, None, config)
    # ceil(ln 2) = 1 draw
    assert len(trace.prox_gaps) == 1
    assert trace.t_star < 50

    config.delta = 0.01
    trace2 = run(spec, None, config)
    # ceil(ln 100) = 5 draws, possibly with repeats
    assert len(selection_candidates(50, "random", delta=0.01, seed=7)) == 5
    assert 1 <= len(trace2.prox_gaps) <= 5


@pytest.mark.parametrize("delta", [0.0, 1.0, 10.0, float("nan")])
def test_random_selection_checks_delta_as_the_config_does(delta):
    # Before the shared check, 10.0 failed with numpy's "negative
    # dimensions", 0.0 with a bare ZeroDivisionError and NaN in math.ceil.
    message = "delta must lie in \\(0, 1\\)"
    with pytest.raises(ValueError, match=message):
        IpgmaxConfig(eta=0.05, iters=10, iterate_selection="random", delta=delta).validate()
    with pytest.raises(ValueError, match=message):
        selection_candidates(50, "random", delta=delta)


@pytest.mark.parametrize("delta,draws", [(5e-324, 745), (1e-310, 714)])
def test_random_selection_takes_a_delta_whose_inverse_overflows(delta, draws):
    # 1/delta is inf here; the count ceil(-ln delta) is not.
    assert 1.0 / delta == math.inf
    candidates = selection_candidates(50, "random", delta=delta, seed=1)
    assert candidates == np.random.default_rng(1).integers(0, 50, size=draws).tolist()


def test_select_iterate_random_is_seeded():
    spec = pennies_game()
    config = IpgmaxConfig(eta=0.05, iters=50, iterate_selection="random", delta=0.25, seed=3)
    trace1 = run(spec, None, config)
    trace2 = run(spec, None, config)
    assert trace1.t_star == trace2.t_star
    assert trace1.kept == trace2.kept


def test_select_iterate_scores_each_policy_object_once(monkeypatch):
    # At eta = 0 every trace entry is x0 itself: twelve candidate indices,
    # one policy object.  Elsewhere in the trace each index is its own object.
    spec = half_game()
    calls = count_calls(monkeypatch, atmg.ipgmax, "prox_gap")
    still = run(spec, None, IpgmaxConfig(eta=0.0, iters=12, iterate_selection="prox"))
    assert [x for _, x in calls] == [still.policies[0]]
    assert set(still.prox_gaps) == set(range(12))
    assert len(set(still.prox_gaps.values())) == 1
    moving = run(spec, None, IpgmaxConfig(eta=0.1, iters=12, iterate_selection="prox"))
    assert len(calls) == 1 + 12
    assert set(moving.prox_gaps) == set(range(12))


def test_selection_candidates_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown selection mode 'oracle'"):
        selection_candidates(2, "oracle")


@pytest.mark.parametrize("mode,T", [("prox", 250), ("random", 3), ("none", 5)])
def test_run_stores_the_candidates_it_fixed_before_the_loop(monkeypatch, mode, T):
    monkeypatch.setattr(atmg.ipgmax, "prox_gap", lambda spec, x: float(x.blocks[0][0, 0]))
    config = IpgmaxConfig(eta=0.05, iters=T, iterate_selection=mode, delta=0.01, seed=2)
    trace = run(pennies_game(), None, config)
    expected = selection_candidates(T, mode, delta=0.01, seed=2)
    assert trace.candidates == expected
    if mode == "random":  # five draws from {0, 1, 2}, repeats kept in draw order
        assert len(expected) == 5 and len(set(expected)) < 5
    assert set(trace.prox_gaps) == set(expected)


def test_select_iterate_scores_each_distinct_candidate_once(monkeypatch):
    spec = pennies_game()
    config = IpgmaxConfig(eta=0.05, iters=3, iterate_selection="random", delta=0.01, seed=2)
    trace = run(spec, TeamPolicy(blocks=(np.array([[0.9, 0.1]]),)), config)
    calls = count_calls(monkeypatch, atmg.ipgmax, "prox_gap")
    gaps = dict(trace.prox_gaps)
    assert select_iterate(spec, trace) == trace.t_star
    kept = dict(zip(trace.kept, trace.policies))
    distinct = list({id(kept[t]): kept[t] for t in trace.candidates}.values())
    assert len(distinct) < len(trace.candidates)
    assert [x for _, x in calls] == distinct
    assert trace.prox_gaps == gaps


def live_team_policies() -> int:
    gc.collect()
    return sum(isinstance(o, TeamPolicy) for o in gc.get_objects())


@pytest.mark.parametrize("mode", SELECTION_MODES)
def test_run_keeps_only_the_iterates_selection_can_pick(monkeypatch, mode):
    # From this start the pennies iterate moves on every one of the 20000
    # steps, so a trace of every iterate would hold 20001 policies.
    spec = pennies_game()
    monkeypatch.setattr(atmg.ipgmax, "prox_gap", lambda spec, x: float(x.blocks[0][0, 0]))
    config = IpgmaxConfig(eta=0.05, iters=20000, iterate_selection=mode, delta=0.01, seed=5)
    candidates = set(selection_candidates(20000, mode, delta=0.01, seed=5))
    before = live_team_policies()
    trace = run(spec, TeamPolicy(blocks=(np.array([[0.9, 0.1]]),)), config)
    assert np.count_nonzero(trace.frob_norms) == 20000
    assert trace.kept == sorted(candidates | {0, 20000})
    assert len({id(x) for x in trace.policies}) <= len(candidates) + 2
    assert live_team_policies() - before <= len(candidates) + 2
    assert trace.iterations == 20000 and trace.phi.shape == (20001,)


@pytest.mark.parametrize("mode", ["prox", "random"])
@pytest.mark.parametrize("spec,T,last_move", [(half_game(), 300, 122), (half_game(3), 150, 150)],
                         ids=["fixed-tail", "moving"])
def test_selection_matches_scoring_the_full_reference_trace(spec, T, last_move, mode):
    # half_game() stops moving at t = 122, so the kept tail shares one
    # object; half_game(3) moves on every step.
    x0 = uniform_team_policy(spec)
    config = IpgmaxConfig(eta=0.05, iters=T, iterate_selection=mode, delta=0.01, seed=4)
    trace = run(spec, x0, config)
    assert np.flatnonzero(trace.frob_norms)[-1] == last_move
    policies, _, phi, frob = reference_trace(spec, x0, 0.05, T)
    candidates = selection_candidates(T, mode, delta=0.01, seed=4)
    gaps = {t: prox_gap(spec, policies[t]) for t in candidates}
    best = min(gaps.values())
    t_star = next(t for t in candidates if gaps[t] == best)
    assert trace.t_star == t_star
    assert trace.prox_gaps == gaps
    assert trace.x_hat.as_vector().tobytes() == policies[t_star].as_vector().tobytes()
    assert trace.phi.tobytes() == phi.tobytes()
    assert trace.frob_norms.tobytes() == frob.tobytes()


def test_select_iterate_rejects_a_trace_without_candidates():
    spec = pennies_game()
    trace = run(spec, None, IpgmaxConfig(eta=0.05, iters=4, iterate_selection="none"))
    assert trace.kept == [0, 4] and trace.candidates == []
    with pytest.raises(ValueError, match="the trace has no selection candidates"):
        select_iterate(spec, trace)
