"""Numeric stopping rules and adaptive quadrature.

Every infinite sum and product in the package stops once its tail falls
below ``REL_TOL`` relative, and raises :class:`ConvergenceError` past
``MAX_TERMS`` terms.  Every quadrature (the Bessel-K integrals, the
Yakubovich u-integral and the orthogonality-measure integral) is one nested
trapezoidal rule over an even analytic integrand, which halves its step
from ``MIN_NODES // 2`` intervals until two levels agree to ``REL_TOL``,
giving up past ``MAX_NODES`` intervals.  The four constants are read from
this module at call time.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

__all__ = ["REL_TOL", "MAX_TERMS", "MIN_NODES", "MAX_NODES"]

REL_TOL = 1e-12
MAX_TERMS = 2_000_000
MIN_NODES = 32
MAX_NODES = 2**15
_EPS = float(np.finfo(float).eps)


def _nested_trapezoid(f, T: float, noise: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Integrate an even ``f``, analytic in a strip and negligible at ``T``,
    over ``[0, T]`` by the nested trapezoidal rule (geometric convergence).

    ``f`` maps nodes to a fresh float ndarray, nodes on the last axis.  Starts
    from ``MIN_NODES // 2`` intervals and halves the step, evaluating
    only the new nodes: S_2n = S_n / 2 + h sum_new.  Stops when two levels
    agree to ``REL_TOL`` * scale + ``noise`` eps * (largest L1 mass) and
    returns the sums and L1 masses; else :class:`ConvergenceError` names ``what``.
    """
    n = max(1, MIN_NODES // 2)
    h = T / n
    w = np.full(n + 1, h)
    w[0] = w[-1] = 0.5 * h
    fv = f(h * np.arange(n + 1))
    total, l1 = fv @ w, np.abs(fv) @ w
    while 2 * n <= MAX_NODES:
        h *= 0.5
        fv = f(h * np.arange(1, 2 * n, 2))
        prev, n = total, 2 * n
        total = 0.5 * prev + h * fv.sum(axis=-1)
        l1 = 0.5 * l1 + h * np.abs(fv, out=fv).sum(axis=-1)
        change = abs(total - prev).max()
        tol = REL_TOL * max(abs(total).max(), abs(prev).max())
        floor = noise * _EPS * l1.max() + 1e-300
        if change <= tol + floor:
            return total, l1
    raise ConvergenceError(f"{what} did not converge within {n} intervals: last change "
                           f"{change:.3g} against tolerance {tol:.3g} + floor {floor:.3g}")
