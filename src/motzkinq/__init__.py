"""Weighted random Motzkin paths, their boundary Markov chains, and the
q-series special functions behind their scaling limits.

Layout:

* :mod:`motzkinq.qspecial` -- q-Pochhammer, q-Gamma, theta functions,
  |Gamma(iu)|^2, Bessel K of imaginary order;
* :mod:`motzkinq.ascpoly` -- the orthogonal-polynomial layer and endpoint
  asymptotics;
* :mod:`motzkinq.motzkin` -- weighted paths, transfer operators, the
  integral representation, exact sampling;
* :mod:`motzkinq.chains` -- the boundary birth-death chains;
* :mod:`motzkinq.kernels` -- continuum kernels and local-limit drivers;
* :mod:`motzkinq.cli` -- the command-line front end.
"""

from .ascpoly import AscParams, QModelParams
from .chains import Distribution
from .errors import CapacityError, ConvergenceError
from .kernels import KernelQuery, LimitComparison
from .motzkin import MotzkinPath, WeightModel

__version__ = "0.1.0"

__all__ = [
    "AscParams",
    "CapacityError",
    "ConvergenceError",
    "Distribution",
    "KernelQuery",
    "LimitComparison",
    "MotzkinPath",
    "QModelParams",
    "WeightModel",
    "__version__",
]
