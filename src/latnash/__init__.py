"""latnash: finite-lattice engine for generalized supermodular games.

Computes exact Nash-equilibrium sets of games with explicit feasible
profile sets and rational payoffs, certifies the order structure of the
equilibrium set, runs monotone fixed-point iteration to the extremal
equilibria, and mechanically checks the order-topology facts the theory
rests on, including a symbolic infinite counterexample.
"""

from latnash.equilibria import (
    equilibria_bruteforce,
    equilibrium_report,
    extremal_equilibrium,
    fixed_points,
    stable_set,
    tarski_zhou_check,
)
from latnash.games import (
    Game,
    RandomGameSpec,
    load_game,
    random_supermodular_game,
    serialize_game,
    validate_supermodular,
)
from latnash.order import (
    CheckResult,
    Correspondence,
    Poset,
    build_poset,
    chain,
    induced_poset,
    product_poset,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "Correspondence", "Game", "Poset", "RandomGameSpec",
    "build_poset", "chain", "equilibria_bruteforce", "equilibrium_report",
    "extremal_equilibrium", "fixed_points", "induced_poset", "load_game",
    "product_poset", "random_supermodular_game", "serialize_game",
    "stable_set", "tarski_zhou_check", "validate_supermodular", "__version__",
]
