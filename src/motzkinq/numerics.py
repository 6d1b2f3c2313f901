"""Numeric policies and adaptive quadrature.

All infinite sums/products in the package truncate against a
:class:`TruncationPolicy`.  Every quadrature (the Bessel-K integrals, the
Yakubovich u-integral and the orthogonality-measure integral) is one nested
trapezoidal rule over an even analytic integrand, which refines against a
:class:`QuadraturePolicy` by halving its step until two levels agree to
``rel_tol``.  Only ``qspecial.qpoch_infinite``, ``qspecial.bessel_k_imag_grid``
and :func:`_nested_trapezoid` take a policy; every other route runs on
``DEFAULT_TRUNCATION`` and ``DEFAULT_QUADRATURE``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "TruncationPolicy",
    "QuadraturePolicy",
    "DEFAULT_TRUNCATION",
    "DEFAULT_QUADRATURE",
]


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for infinite series and products."""

    rel_tol: float = 1e-12
    max_terms: int = 2_000_000

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


@dataclass(frozen=True)
class QuadraturePolicy:
    """Stopping rule for node-doubling quadrature."""

    rel_tol: float = 1e-12
    max_nodes: int = 2**15
    min_nodes: int = 32

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.min_nodes < 2 or self.max_nodes < self.min_nodes:
            raise ValueError("need max_nodes >= min_nodes >= 2")


DEFAULT_TRUNCATION = TruncationPolicy()
DEFAULT_QUADRATURE = QuadraturePolicy()
_EPS = float(np.finfo(float).eps)


def _nested_trapezoid(f, T: float, policy: QuadraturePolicy, noise: float,
                      what: str) -> tuple[np.ndarray, np.ndarray]:
    """Integrate an even ``f``, analytic in a strip and negligible at ``T``,
    over ``[0, T]`` by the nested trapezoidal rule (geometric convergence).

    ``f`` maps nodes to a fresh float ndarray, nodes on the last axis.  Starts
    from ``policy.min_nodes // 2`` intervals and halves the step, evaluating
    only the new nodes: S_2n = S_n / 2 + h sum_new.  Stops when two levels
    agree to ``rel_tol`` * scale + ``noise`` eps * (largest L1 mass) and
    returns the sums and L1 masses; else :class:`ConvergenceError` names ``what``.
    """
    n = max(1, policy.min_nodes // 2)
    h = T / n
    w = np.full(n + 1, h)
    w[0] = w[-1] = 0.5 * h
    fv = f(h * np.arange(n + 1))
    total, l1 = fv @ w, np.abs(fv) @ w
    while 2 * n <= policy.max_nodes:
        h *= 0.5
        fv = f(h * np.arange(1, 2 * n, 2))
        prev, n = total, 2 * n
        total = 0.5 * prev + h * fv.sum(axis=-1)
        l1 = 0.5 * l1 + h * np.abs(fv, out=fv).sum(axis=-1)
        change = abs(total - prev).max()
        tol = policy.rel_tol * max(abs(total).max(), abs(prev).max())
        floor = noise * _EPS * l1.max() + 1e-300
        if change <= tol + floor:
            return total, l1
    raise ConvergenceError(f"{what} did not converge within {n} intervals: last change "
                           f"{change:.3g} against tolerance {tol:.3g} + floor {floor:.3g}")
