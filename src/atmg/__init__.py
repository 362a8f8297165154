"""Equilibrium solver for adversarial team Markov games.

A team of identically-interested players faces a single adversary in a
tabular discounted Markov game.  The solver runs independent projected
policy gradient for the team against exact adversary best responses,
picks a near-stationary iterate, and recovers the adversary's side of the
equilibrium from a linear program over multiplier variables.  Everything
is model-based and exact: values come from linear solves, best responses
from policy iteration, and the final Nash gap from explicit unilateral
deviations.
"""

from .extension import (
    ExtensionConstants,
    LagrangeMultipliers,
    LpAdvInfeasibleError,
    NashGapReport,
    adv_nash_policy,
    build_lp_adv,
    check_epsilon_ne,
    extension_constants,
    nash_gap,
    qnlp_residuals,
)
from .game import (
    DegenerateRewardsError,
    GameSpec,
    grid_world,
    load_game,
    normalize_rewards,
    save_game,
    validate,
)
from .ipgmax import (
    IpgmaxConfig,
    ProxResult,
    RunTrace,
    prox_gap,
    prox_point,
    resolve_schedule,
    run,
    schedule_proposition,
    schedule_theorem,
    select_iterate,
)
from .lp import (
    LinearProgram,
    LpSolution,
    NumericInstabilityError,
    find_feasible,
    solve,
)
from .mdp import (
    AdversaryPolicy,
    SmoothnessConstants,
    TeamPolicy,
    adversary_best_response,
    adversary_policy_gradient,
    check_policies,
    joint_policy_vector,
    policy_gradient,
    project_product_simplex,
    smoothness_constants,
    team_player_best_response,
    team_policy_from_vector,
    uniform_adversary_policy,
    uniform_team_policy,
    value_rho,
    value_vector,
    visitation,
)

__version__ = "0.1.0"
