"""Equilibrium solver for adversarial team Markov games.

A team of identically-interested players faces a single adversary in a
tabular discounted Markov game.  The solver runs independent projected
policy gradient for the team against exact adversary best responses,
picks a near-stationary iterate, and recovers the adversary's side of the
equilibrium from a linear program over multiplier variables.  Everything
is model-based and exact: values come from linear solves, best responses
from policy iteration, and the final Nash gap from explicit unilateral
deviations.

The top level holds the names the README's library example uses:
grid_world, IpgmaxConfig and solve, which runs the whole pipeline (from
atmg.cli).  Every other name is imported from its module (atmg.game,
atmg.mdp, atmg.lp, atmg.ipgmax, atmg.extension, atmg.cli).
"""

from .cli import solve
from .game import grid_world
from .ipgmax import IpgmaxConfig

__all__ = ["IpgmaxConfig", "grid_world", "solve"]
__version__ = "0.1.0"
