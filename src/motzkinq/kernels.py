"""Continuum limit kernels and local-limit verification drivers.

Two scaling regimes of the boundary chain are covered:

* fixed q, space/time scaled 1:2 -- the limit is the 3d Bessel process,
  transition (y/x) q_{t/(1+sigma)}(x, y) with q_t the heat kernel of
  Brownian motion killed at 0, started from the density c^2 x exp(-c x);
* q -> 1 together with the scaling -- the limit is a Markov process built
  from Bessel K of imaginary order: transition
  [K_0(e^-y)/K_0(e^-x)] p_{t/(1+sigma)}(x, y) with the heat kernel

      p_t(x,y) = (2/pi) int_0^inf e^{-t u^2/2} K_{iu}(e^-x) K_{iu}(e^-y)
                 du / |Gamma(iu)|^2,

  started from 4 / (2^c Gamma(c/2)^2) e^{-c x} K_0(e^{-x}).  Both K_0 of
  the ratio are the u = 0 node of the Bessel grids of p's u-integral.

The lattice sides of the limit statements are computed deterministically
(never Monte Carlo), so the reported errors reflect convergence in N, not
sampling noise: P(X_k = n | X_0 = m) is the lattice point
``chains._chain_point_evolution``, whose account (the Chebyshev pass on the
chain's Jacobi matrix, the exact k-step pass and the far-tail cap) is in
:mod:`motzkinq.chains`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ascpoly import QModelParams, _initial_probs, _root, index_map
from .chains import _chain_point_evolution
from .errors import ConvergenceError
from .numerics import _EPS, _nested_trapezoid
from .qspecial import bessel_k_imag, bessel_k_imag_grid

__all__ = [
    "KernelQuery",
    "LimitComparison",
    "killed_bm_kernel",
    "bessel3d_transition",
    "xi0_density",
    "yakubovich_kernel",
    "zeta_transition",
    "zeta0_density",
    "index_map",
    "local_limit_error_fixed_q",
    "initial_limit_fixed_q",
    "local_limit_error_q_to_1",
    "initial_limit_q_to_1",
    "error_table",
]


@dataclass(frozen=True)
class KernelQuery:
    """Evaluation point (t, x, y) with the flat-weight parameter sigma."""

    t: float
    x: float
    y: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        _check_finite(t=self.t, x=self.x, y=self.y)
        if self.t <= 0.0:
            raise ValueError(f"t must be positive, got {self.t}")
        if not (0.0 < self.sigma <= 1.0):
            raise ValueError(f"sigma must lie in (0, 1], got {self.sigma}")


def _check_finite(**args: float) -> None:
    """ValueError naming the first of ``args`` that is NaN or infinite."""
    for name, value in args.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_rate(c: float) -> None:
    """ValueError unless the entrance-law rate c is finite and positive."""
    _check_finite(c=c)
    if c <= 0.0:
        raise ValueError(f"c must be positive, got {c}")


@dataclass(frozen=True)
class LimitComparison:
    """Lattice value vs continuum target."""

    lhs: float
    rhs: float

    @property
    def rel_err(self) -> float:
        return abs(self.lhs - self.rhs) / abs(self.rhs)


def killed_bm_kernel(t: float, x: float, y: float) -> float:
    """Heat kernel of Brownian motion killed at 0:
    (2 pi t)^(-1/2) (exp(-(y-x)^2/2t) - exp(-(y+x)^2/2t)), x, y > 0."""
    for name, value in (("t", t), ("x", x), ("y", y)):
        if not value > 0.0:  # NaN too
            raise ValueError(f"killed kernel needs {name} > 0, got {name}={value}")
    return (math.exp(-((y - x) ** 2) / (2 * t)) - math.exp(-((y + x) ** 2) / (2 * t))) \
        / math.sqrt(2 * math.pi * t)


def bessel3d_transition(q: KernelQuery) -> float:
    """3d Bessel transition density (y/x) q_{t/(1+sigma)}(x, y)."""
    return q.y / q.x * killed_bm_kernel(q.t / (1.0 + q.sigma), q.x, q.y)


def xi0_density(x: float, c: float) -> float:
    """Initial density c^2 x exp(-c x) on x > 0."""
    _check_rate(c)
    _check_finite(x=x)
    if x <= 0.0:
        return 0.0
    return c * c * x * math.exp(-c * x)


def yakubovich_kernel(q: KernelQuery) -> float:
    """Heat kernel p_t(x, y) built from Bessel K of imaginary order,
    at time q.t (no sigma dilation here; see :func:`zeta_transition`).

    The u-integral truncates where the Gaussian factor reaches e^-40, uses
    1/|Gamma(iu)|^2 = u sinh(pi u)/pi in closed form, and runs on the nested
    trapezoidal rule (the integrand is even and analytic in u): the first
    Bessel grids take the u nodes of its first two levels, and each later
    level computes them only at its new u nodes.  ConvergenceError
    where sinh(pi u) overflows within that horizon (t < 1.6e-3), or where the
    value is negative past its noise floor; after those, a RuntimeWarning
    where e^-x or e^-y is below 1e-8, past which the Bessel grids degrade."""
    return _yakubovich(q.t, q.x, q.y)[0]


def _yakubovich(t: float, x: float, y: float) -> tuple[float, float, float]:
    """(p_t(x, y), K_0(e^-x), K_0(e^-y)), the K_0 read from the first Bessel
    grids of the u-integral, whose first node is u = 0."""
    ex, ey = math.exp(-x), math.exp(-y)
    k0 = []

    def integrand(us):
        kx = bessel_k_imag_grid(us, ex)
        ky = kx if ex == ey else bessel_k_imag_grid(us, ey)
        if not k0:
            k0.extend((float(kx[0]), float(ky[0])))
        return (2.0 / math.pi**2) * np.exp(-t * us**2 / 2.0) * kx * ky * us * np.sinh(math.pi * us)

    horizon = max(math.sqrt(80.0 / t), 10.0)
    if math.pi * horizon > 710.0:
        raise ConvergenceError(f"Yakubovich u-integral at t={t}: its horizon {horizon:.4g} "
                               "puts sinh(pi u) past double range")
    # rounding noise of the Bessel grids is amplified by sinh(pi u), so the
    # attainable absolute accuracy scales with the L1 mass
    val, l1 = _nested_trapezoid(integrand, horizon, 4096.0,
                                f"Yakubovich u-integral at t={t}, x={x}, y={y}")
    floor = 4096.0 * _EPS * l1 + 1e-300
    if val < -floor:
        raise ConvergenceError(f"Yakubovich kernel at t={t}, x={x}, y={y} is {val:.3g}, "
                               f"negative past its noise floor {floor:.3g}")
    for z in (x, y):
        if math.exp(-z) < 1e-8:
            warnings.warn(f"kernel argument e^-{z} < 1e-8: Bessel accuracy degrades",
                          RuntimeWarning, stacklevel=3)
    return max(float(val), 0.0), *k0


def zeta_transition(q: KernelQuery) -> float:
    """Transition density [K_0(e^-y)/K_0(e^-x)] p_{t/(1+sigma)}(x, y), both
    K_0 from the kernel's own Bessel grids; ValueError where K_0(e^-x) is 0."""
    kernel, k0_from, k0_to = _yakubovich(q.t / (1.0 + q.sigma), q.x, q.y)
    if k0_from == 0.0:
        raise ValueError(f"K_0(e^-x) underflows at x={q.x}; start point out of range")
    return k0_to / k0_from * kernel


def zeta0_density(x: float, c: float) -> float:
    """Initial density 4 / (2^c Gamma(c/2)^2) exp(-c x) K_0(exp(-x))."""
    _check_rate(c)
    _check_finite(x=x)
    norm = 4.0 / (2.0**c * math.gamma(c / 2.0) ** 2)
    return norm * math.exp(-c * x) * bessel_k_imag(0.0, math.exp(-x))


def _compare(lhs: float, target, where: str) -> LimitComparison:
    """lhs against the continuum value target(); a ConvergenceError of the
    target is raised again naming where, and so is an OverflowError when
    the target underflows to 0, since no relative error is defined there."""
    try:
        rhs = target()
    except ConvergenceError as err:
        raise ConvergenceError(f"continuum target in the {where} is not computed: {err}") from err
    if rhs == 0.0:
        raise OverflowError(f"continuum target underflows to 0 in the {where}")
    return LimitComparison(lhs=lhs, rhs=rhs)


def local_limit_error_fixed_q(N: int, t: float, x: float, y: float,
                              model: QModelParams) -> LimitComparison:
    """sqrt(N) P(X_{floor(Nt)} = floor(y sqrt N) | X_0 = floor(x sqrt N))
    against the Bessel target (y/x) q_{t/(1+sigma)}(x, y)."""
    if x <= 0.0 or y <= 0.0 or t <= 0.0:
        raise ValueError("need x, y, t > 0")
    query = KernelQuery(t=t, x=x, y=y, sigma=model.sigma)
    rn = _root(N)
    m, n, k = math.floor(x * rn), math.floor(y * rn), math.floor(N * t)
    lhs = rn * _chain_point_evolution(model, m, n, k)
    return _compare(lhs, lambda: bessel3d_transition(query),
                    f"fixed-q regime at t={t}, x={x}, y={y}")


def initial_limit_fixed_q(N: int, x: float, c: float, model: QModelParams) -> LimitComparison:
    """sqrt(N) P(X_0 = floor(x sqrt N)) with rho0 = exp(-c/sqrt(N)) against
    the density c^2 x exp(-c x)."""
    if x <= 0.0:
        raise ValueError("need x > 0")
    _check_finite(x=x)
    _check_rate(c)
    rn = _root(N)
    varying = QModelParams(q=model.q, sigma=model.sigma,
                           rho0=math.exp(-c / rn), rho1=model.rho1)
    m = math.floor(x * rn)
    lhs = rn * float(_initial_probs(varying, varying.rho0, m)[m])
    return _compare(lhs, lambda: xi0_density(x, c), f"fixed-q initial law at x={x}, c={c}")


def local_limit_error_q_to_1(N: int, t: float, x: float, y: float,
                             sigma: float) -> LimitComparison:
    """sqrt(N) P(X_{floor(Nt)} = J_y | X_0 = J_x) with q = exp(-2/sqrt(N))
    against [K_0(e^-y)/K_0(e^-x)] p_{t/(1+sigma)}(x, y).  A target that the
    Bessel-K layer cannot compute (x or y far out, so e^-x or e^-y is below
    its range) raises ConvergenceError naming this regime and (t, x, y)."""
    if t <= 0.0:
        raise ValueError("need t > 0")
    rn = _root(N)
    model = QModelParams(q=math.exp(-2.0 / rn), sigma=sigma)
    query = KernelQuery(t=t, x=x, y=y, sigma=sigma)
    m, n, k = index_map(x, N, sigma), index_map(y, N, sigma), math.floor(N * t)
    if m < 0 or n < 0:
        raise ValueError(f"index map puts x={x}, y={y} at levels {m}, {n}, left of 0 at N={N}")
    lhs = rn * _chain_point_evolution(model, m, n, k)
    return _compare(lhs, lambda: zeta_transition(query),
                    f"q-to-1 regime at t={t}, x={x}, y={y}")


def initial_limit_q_to_1(N: int, x: float, c: float, sigma: float) -> LimitComparison:
    """sqrt(N) P(X_0 = J_x) with q = exp(-2/sqrt(N)), rho0 = exp(-c/sqrt(N))
    against the entrance law :func:`zeta0_density`,
    4 / (2^c Gamma(c/2)^2) e^{-c x} K_0(e^-x); ConvergenceError naming this
    law and (x, c) where the Bessel-K layer cannot compute it (x far out)."""
    _check_finite(x=x)
    _check_rate(c)
    rn = _root(N)
    model = QModelParams(q=math.exp(-2.0 / rn), sigma=sigma, rho0=math.exp(-c / rn))
    level = index_map(x, N, sigma)
    if level < 0:
        raise ValueError(f"index map puts x={x} at level {level}, left of 0 at N={N}")
    lhs = rn * float(_initial_probs(model, model.rho0, level)[level])
    return _compare(lhs, lambda: zeta0_density(x, c), f"q-to-1 initial law at x={x}, c={c}")


def error_table(regime: str, Ns: list[int], t: float, x: float, y: float,
                model: QModelParams) -> list[dict]:
    """Rows (N, t, x, y, lhs, rhs, rel_err) for convergence tables.

    regime 'fixed-q' runs the chain of ``model``; 'q-to-1' sets
    q = exp(-2/sqrt(N)) internally and reads only ``model.sigma``.
    """
    rows = []
    for N in Ns:
        if regime == "fixed-q":
            cmp_ = local_limit_error_fixed_q(N, t, x, y, model)
        elif regime == "q-to-1":
            cmp_ = local_limit_error_q_to_1(N, t, x, y, model.sigma)
        else:
            raise ValueError(f"unknown regime {regime!r}")
        rows.append({"N": N, "t": t, "x": x, "y": y,
                     "lhs": cmp_.lhs, "rhs": cmp_.rhs, "rel_err": cmp_.rel_err})
    return rows
