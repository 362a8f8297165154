"""Equilibrium solver for adversarial team Markov games.

A team of identically-interested players faces a single adversary in a
tabular discounted Markov game.  The solver runs independent projected
policy gradient for the team against exact adversary best responses,
picks a near-stationary iterate, and recovers the adversary's side of the
equilibrium from a linear program over multiplier variables.  Everything
is model-based and exact: values come from linear solves, best responses
from policy iteration, and the final Nash gap from explicit unilateral
deviations.

The top level holds the names the README's library example uses; every
other name is imported from its module (atmg.game, atmg.mdp, atmg.lp,
atmg.ipgmax, atmg.extension).
"""

from .extension import adv_nash_policy, nash_gap
from .game import GameSpec, grid_world
from .ipgmax import IpgmaxConfig, run

__all__ = ["GameSpec", "IpgmaxConfig", "run", "adv_nash_policy", "nash_gap", "grid_world"]
__version__ = "0.1.0"
