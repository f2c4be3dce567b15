"""Stochastic collocation under correlated Gaussian-mixture uncertainty.

Pipeline: exact mixture moments -> moment-based orthonormal basis ->
optimized nonnegative quadrature rule -> projection of a black-box model ->
surrogate statistics and densities. See the README for the file formats and
the command-line front end. The package re-exports the public names of its
modules, each listed once in that module's __all__; the solver module loads
the compiled LAPACK and NNLS routines (mixquad._lapack), so it is loaded on
first access to one of its names.
"""

import importlib

from . import basis, collocation, distribution, rules
from .basis import *  # noqa: F403
from .collocation import *  # noqa: F403
from .distribution import *  # noqa: F403
from .rules import *  # noqa: F403

__version__ = "0.1.0"

# mixquad.quadrature.__all__, kept here so that naming one of them does not load it
_SOLVER_NAMES = ("SolverConfig", "assemble_phi", "residual", "solve_weights", "stacked_jacobian",
                 "gauss_newton_step", "bcd_solve", "adaptive_rule")

__all__ = [
    *distribution.__all__,
    *basis.__all__,
    *rules.__all__,
    *_SOLVER_NAMES,
    *collocation.__all__,
    "__version__",
]


def __getattr__(name):
    if name == "quadrature" or name in _SOLVER_NAMES:
        quadrature = importlib.import_module(".quadrature", __name__)
        return quadrature if name == "quadrature" else getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
