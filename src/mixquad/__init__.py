"""Stochastic collocation under correlated Gaussian-mixture uncertainty.

Pipeline: exact mixture moments -> moment-based orthonormal basis ->
optimized nonnegative quadrature rule -> projection of a black-box model ->
surrogate statistics and densities. See the README for the file formats and
the command-line front end. The package re-exports the public names of its
modules, each listed once in that module's __all__.
"""

from . import basis, collocation, distribution, quadrature
from .basis import *  # noqa: F403
from .collocation import *  # noqa: F403
from .distribution import *  # noqa: F403
from .quadrature import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *distribution.__all__,
    *basis.__all__,
    *quadrature.__all__,
    *collocation.__all__,
    "__version__",
]
