"""Numeric policies and adaptive quadrature.

All infinite sums/products in the package truncate against a
:class:`TruncationPolicy`; all quadratures (composite Gauss-Legendre, nested
trapezoidal) refine against a :class:`QuadraturePolicy` by doubling their
node count until the relative change of the estimate falls below ``rel_tol``.
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
    "gauss_legendre",
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

# composite rule: a fixed Gauss-Legendre base rule applied per panel, with
# panel doubling.  Keeps node generation O(total nodes) instead of the
# O(n^2) eigenproblem a single huge rule would require.
_BASE_RULE = 32
_base_nodes, _base_weights = np.polynomial.legendre.leggauss(_BASE_RULE)


def panel_rule(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [a, b]."""
    h = (b - a) / panels
    centers = a + h * (np.arange(panels) + 0.5)
    nodes = (centers[:, None] + (0.5 * h) * _base_nodes[None, :]).ravel()
    weights = np.tile((0.5 * h) * _base_weights, panels)
    return nodes, weights


def gauss_legendre(f, a: float, b: float, policy: QuadraturePolicy = DEFAULT_QUADRATURE) -> float:
    """Integrate a vectorized callable ``f`` over ``[a, b]``.

    ``f`` must accept an ndarray of abscissas and return an ndarray of the
    same shape.  Panels double until two successive estimates agree to
    ``policy.rel_tol`` relative, with an absolute floor at the rounding
    level of the integrand's L1 mass (cancellation-heavy integrals cannot be
    resolved below that).  Raises :class:`ConvergenceError` when
    ``max_nodes`` is exhausted first.
    """
    if b <= a:
        if b == a:
            return 0.0
        raise ValueError(f"empty integration range [{a}, {b}]")
    prev = None
    panels = max(1, policy.min_nodes // _BASE_RULE)
    while panels * _BASE_RULE <= policy.max_nodes:
        nodes, weights = panel_rule(a, b, panels)
        fv = np.asarray(f(nodes), dtype=float)
        val = float(np.dot(weights, fv))
        l1 = float(np.dot(weights, np.abs(fv)))
        if prev is not None:
            scale = max(abs(val), abs(prev))
            if abs(val - prev) <= policy.rel_tol * scale + 64.0 * _EPS * l1 + 1e-300:
                return val
        prev = val
        panels *= 2
    raise ConvergenceError(
        f"quadrature on [{a}, {b}] did not converge within {policy.max_nodes} nodes"
    )


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
