"""Stochastic collocation under correlated Gaussian-mixture uncertainty.

Pipeline: exact mixture moments -> moment-based orthonormal basis ->
optimized nonnegative quadrature rule -> projection of a black-box model ->
surrogate statistics and densities. See the README for the file formats and
the command-line front end. The package re-exports the public names of its
modules, each listed once in that module's __all__. The solver module loads
the compiled LAPACK and NNLS routines (mixquad._lapack), and the collocation
module the model adapters, so each is loaded on first access to one of its
names.
"""

import importlib

from . import basis, distribution, rules
from .basis import *  # noqa: F403
from .distribution import *  # noqa: F403
from .rules import *  # noqa: F403

__version__ = "0.1.0"

# the __all__ of each lazily loaded module, kept here so that naming one of them does not load it
_LAZY = {
    "quadrature": ("SolverConfig", "assemble_phi", "residual", "solve_weights",
                   "stacked_jacobian", "gauss_newton_step", "bcd_solve", "adaptive_rule"),
    "collocation": ("ModelAdapter", "DensityEstimate", "project", "project_columns",
                    "evaluate_batch", "statistics", "density_estimate", "evaluate_model"),
}

__all__ = [
    *distribution.__all__,
    *basis.__all__,
    *rules.__all__,
    *_LAZY["quadrature"],
    *_LAZY["collocation"],
    "__version__",
]


def __getattr__(name):
    for home, names in _LAZY.items():
        if name == home or name in names:
            module = importlib.import_module(f".{home}", __name__)
            return module if name == home else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
