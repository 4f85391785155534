"""stochorder: quantile-based stochastic order verification toolkit.

The package checks six stochastic orders between distributions given by their
quantile functions, classifies distortion functions by shape (convex, concave,
starshaped, antistarshaped), and builds the distortion function of a coherent
system from its minimal signature and an exchangeable copula.  Everything is
grid-certified numerics: verdicts are statements about sampled curves at an
explicit tolerance, not symbolic proofs.
"""

from .numerics import (
    Grid,
    Tolerance,
    NumericsError,
    QuadratureFailure,
    BracketError,
    default_grid,
    uniform_grid,
    integrate,
    monotone_inverse,
    derivative,
)

__all__ = [
    "Grid",
    "Tolerance",
    "NumericsError",
    "QuadratureFailure",
    "BracketError",
    "default_grid",
    "uniform_grid",
    "integrate",
    "monotone_inverse",
    "derivative",
]

__version__ = "0.1.0"
