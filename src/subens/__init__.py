"""Sub-ensemble statistics for density operators.

Decomposes quantum states into symmetric-product terms over measurement
bases, builds joint quasi-probability tables with genuine marginals and
possibly negative entries, and ships a verified four-outcome entangled
two-qubit measurement whose exclusion pattern those negative entries explain.
"""

from . import operators, scenario, states, subensemble
from .operators import *  # noqa: F403 -- each module's __all__ is its public interface
from .scenario import *  # noqa: F403
from .states import *  # noqa: F403
from .subensemble import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(operators.__all__ + scenario.__all__ + states.__all__ + subensemble.__all__)
