from __future__ import annotations

import numpy as np
import pytest

import atmg.ipgmax
from atmg.game import GameSpec
from atmg.ipgmax import (
    IpgmaxConfig,
    prox_gap,
    prox_point,
    resolve_schedule,
    run,
    schedule_proposition,
    schedule_theorem,
    select_iterate,
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
    eta, T = schedule_theorem(spec, 0.1, 4.0)
    assert eta == pytest.approx(3.725290298461915e-11, rel=1e-12)
    assert T == 351843720888319922


def test_theorem_schedule_scaling_in_epsilon():
    spec = half_game()
    _, T1 = schedule_theorem(spec, 0.1, 4.0)
    eta2, T2 = schedule_theorem(spec, 0.05, 4.0)
    # 0.05 is exactly half of 0.1 in binary, so T scales by 16 up to the
    # ceiling and eta by exactly 1/4.
    assert 16 * T1 - 15 <= T2 <= 16 * T1
    assert eta2 == pytest.approx(3.725290298461915e-11 / 4.0, rel=1e-12)


def test_theorem_schedule_rejects_bad_arguments():
    spec = half_game()
    with pytest.raises(ValueError, match="epsilon"):
        schedule_theorem(spec, 0.0, 4.0)
    with pytest.raises(ValueError, match="D must"):
        schedule_theorem(spec, 0.1, 0.5)


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


def test_resolve_schedule_modes_and_cap():
    spec = half_game()
    manual = IpgmaxConfig(eta=0.25, iters=17)
    assert resolve_schedule(spec, manual) == (0.25, 17)

    theorem = IpgmaxConfig(epsilon=0.1, schedule_mode="theorem", cap_iters=1000)
    eta, T = resolve_schedule(spec, theorem)
    assert T == 1000
    assert eta == pytest.approx(3.725290298461915e-11, rel=1e-12)

    # the theorem schedule takes D = D_bar, which is 4 for this fixture
    assert smoothness_constants(spec).D_bar == pytest.approx(4.0)
    implicit = IpgmaxConfig(epsilon=0.1, schedule_mode="theorem")
    assert resolve_schedule(spec, implicit) == schedule_theorem(spec, 0.1, 4.0)

    prop = IpgmaxConfig(epsilon=0.1, schedule_mode="proposition", cap_iters=1000)
    assert resolve_schedule(spec, prop) == (pytest.approx(0.01), 5)


def test_config_validation():
    IpgmaxConfig(eta=0.1, iters=10).validate()
    IpgmaxConfig(epsilon=0.1, schedule_mode="proposition").validate()

    with pytest.raises(ValueError, match="manual schedule requires"):
        IpgmaxConfig(iters=10).validate()
    with pytest.raises(ValueError, match="manual schedule requires"):
        IpgmaxConfig(eta=0.1).validate()
    with pytest.raises(ValueError, match="nonnegative"):
        IpgmaxConfig(eta=-0.1, iters=10).validate()
    with pytest.raises(ValueError, match="at least 1"):
        IpgmaxConfig(eta=0.1, iters=0).validate()
    with pytest.raises(ValueError, match="epsilon"):
        IpgmaxConfig(schedule_mode="theorem").validate()
    with pytest.raises(ValueError, match="schedule_mode"):
        IpgmaxConfig(eta=0.1, iters=1, schedule_mode="magic").validate()
    with pytest.raises(ValueError, match="iterate_selection"):
        IpgmaxConfig(eta=0.1, iters=1, iterate_selection="best").validate()
    with pytest.raises(ValueError, match="delta"):
        IpgmaxConfig(eta=0.1, iters=1, iterate_selection="random", delta=1.0).validate()


# ---------------------------------------------------------------------------
# The main loop
# ---------------------------------------------------------------------------

def test_run_zero_step_size_keeps_trace_constant(monkeypatch):
    spec = pennies_game()
    x0 = TeamPolicy(blocks=(np.array([[0.3, 0.7]]),))
    calls = count_calls(monkeypatch, atmg.ipgmax, "adversary_best_response")
    trace = run(spec, x0, IpgmaxConfig(eta=0.0, iters=5, iterate_selection="none"))
    assert len(calls) == 1  # x never moves, so the first solve is the only one needed
    assert len(trace.policies) == 6 and len(trace.best_responses) == 5
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
        y, v = adversary_best_response(spec, x)
        phi.append(float(rho @ v))
        x_next = project_product_simplex(spec, x.as_vector() - eta * policy_gradient(spec, x, y))
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
    calls = count_calls(monkeypatch, atmg.ipgmax, "adversary_best_response")
    trace = run(spec, x0, IpgmaxConfig(eta=0.2, iters=12, iterate_selection="none"))
    assert len(calls) == 6  # t = 1..6; x(6) == x(5) ends the loop
    assert len(trace.policies) == len(policies)
    for x, ref in zip(trace.policies, policies):
        np.testing.assert_array_equal(x.blocks[0], ref.blocks[0])
    for y, ref in zip(trace.best_responses, ys):
        np.testing.assert_array_equal(y.probs, ref.probs)
    np.testing.assert_array_equal(trace.phi, phi)
    np.testing.assert_array_equal(trace.frob_norms, frob)
    np.testing.assert_array_equal(trace.policies[-1].blocks[0], [[1.0, 0.0]])


def test_run_trace_shapes():
    spec = pennies_game()
    trace = run(spec, None, IpgmaxConfig(eta=0.05, iters=7, iterate_selection="none"))
    assert len(trace.policies) == 8
    assert len(trace.best_responses) == 7
    assert trace.phi.shape == (8,)
    assert trace.frob_norms.shape == (8,)
    assert trace.frob_norms[0] == 0.0
    assert trace.iterations == 7
    assert trace.wall_clock > 0.0


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
    for xa, xb in zip(a.policies, b.policies):
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


@pytest.mark.parametrize("config,knob", [
    (IpgmaxConfig(eta=0.1, iters=10**12), "--iters"),
    (IpgmaxConfig(schedule_mode="proposition", epsilon=1e-5), "--cap-iters"),
    (IpgmaxConfig(schedule_mode="theorem", epsilon=0.1, cap_iters=10**8), "--cap-iters"),
], ids=["manual", "proposition", "theorem-capped-too-high"])
def test_run_refuses_more_than_max_iters(monkeypatch, config, knob):
    # The refusal comes before the trace arrays (8 bytes per iteration each)
    # are allocated and before the first best response.
    calls = count_calls(monkeypatch, atmg.ipgmax, "adversary_best_response")
    with pytest.raises(ValueError, match=f"iterations; set .*{knob}.* to at most 10000000"):
        run(pennies_game(), None, config)
    assert calls == []


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
    assert result.psi <= grid_best + 1e-3

    gap = np.linalg.norm(x.as_vector() - result.x_tilde.as_vector())
    assert gap == prox_gap(spec, x)


def test_prox_point_reports_iterations(monkeypatch):
    monkeypatch.setattr(atmg.ipgmax, "PROX_MAX_ITER", 50)
    spec = pennies_game()
    result = prox_point(spec, uniform_team_policy(spec))
    assert 1 <= result.iterations <= 50
    assert result.psi == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Iterate selection
# ---------------------------------------------------------------------------

def test_select_iterate_single_candidate():
    spec = pennies_game()
    trace = run(spec, None, IpgmaxConfig(eta=0.05, iters=1, iterate_selection="none"))
    t = select_iterate(spec, trace, "prox_scan")
    assert t == 0
    assert trace.t_star == 0
    assert trace.x_hat is trace.policies[0]


def test_select_iterate_stride_grid(monkeypatch):
    # The scan's stride is ceil(T/100), 4 at T = 400.  Which gaps come out
    # does not matter here, so a cheap stand-in replaces prox_gap.
    spec = pennies_game()
    trace = run(spec, None, IpgmaxConfig(eta=0.05, iters=400, iterate_selection="none"))
    monkeypatch.setattr(atmg.ipgmax, "prox_gap", lambda spec, x: float(x.blocks[0][0, 0]))
    select_iterate(spec, trace, "prox_scan")
    assert set(trace.prox_gaps) == set(range(0, 400, 4)) | {399}
    assert trace.t_star in trace.prox_gaps
    assert trace.t_star <= 399


def test_select_iterate_scan_returns_argmin():
    spec = half_game()
    trace = run(spec, None, IpgmaxConfig(eta=0.1, iters=12, iterate_selection="none"))
    t = select_iterate(spec, trace, "prox_scan")  # stride ceil(12/100) = 1
    gaps = trace.prox_gaps
    assert set(gaps) == set(range(12))
    assert gaps[t] == min(gaps.values())


def test_select_iterate_random_draw_count():
    spec = pennies_game()
    trace = run(spec, None, IpgmaxConfig(eta=0.05, iters=50, iterate_selection="none"))
    t = select_iterate(spec, trace, "random", delta=0.5, seed=7)
    # ceil(ln 2) = 1 draw
    assert len(trace.prox_gaps) == 1
    assert trace.t_star == t < 50

    trace2 = run(spec, None, IpgmaxConfig(eta=0.05, iters=50, iterate_selection="none"))
    select_iterate(spec, trace2, "random", delta=0.01, seed=7)
    # ceil(ln 100) = 5 draws, possibly with repeats
    assert 1 <= len(trace2.prox_gaps) <= 5


def test_select_iterate_random_is_seeded():
    spec = pennies_game()
    trace1 = run(spec, None, IpgmaxConfig(eta=0.05, iters=50, iterate_selection="none"))
    trace2 = run(spec, None, IpgmaxConfig(eta=0.05, iters=50, iterate_selection="none"))
    t1 = select_iterate(spec, trace1, "random", delta=0.25, seed=3)
    t2 = select_iterate(spec, trace2, "random", delta=0.25, seed=3)
    assert t1 == t2


def test_select_iterate_unknown_mode():
    spec = pennies_game()
    trace = run(spec, None, IpgmaxConfig(eta=0.05, iters=2, iterate_selection="none"))
    with pytest.raises(ValueError, match="selection mode"):
        select_iterate(spec, trace, "oracle")
