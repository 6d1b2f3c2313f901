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

  started from 4 / (2^c Gamma(c/2)^2) e^{-c x} K_0(e^{-x}).

The lattice sides of the limit statements are computed deterministically
(never Monte Carlo), so the reported errors reflect convergence in N, not
sampling noise.  P(X_k = n | X_0 = m) is the (m, n) entry of the
Chebyshev expansion of P^k on the chain's spectrum [A/B, 1], degree
d ~ sqrt(2 k ln(4/eps) / (1+sigma)), taken by one bilinear pass of
ceil(d/2) tridiagonal steps on the exact reach of both ends, with no state
cap; it is accurate to about (d+1) eps in the pi-symmetrized value
P(X_k = n | X_0 = m) sqrt(pi_m / pi_n).  Where k exact steps on the exact
reach cost no more than the pass, they are taken instead.  A value below
10^6 times that accuracy (a far tail) is recomputed by k exact steps of
``motzkin._power``, on the exact reach while that is at most twice a
state cap eight diffusive widths above the farther of the two levels, and
on that cap beyond it, where one absorbing state past the cap gathers the
leaked mass; a cap that leaks more than 1e-9 of it raises CapacityError.
The chain rows come from the ratios s_{n+1} / s_n and the initial masses
from log s_n - log C, so neither overflows at large N as q -> 1.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ascpoly import QModelParams, _initial_probs, _root, index_map
from .chains import _EPS, _chebyshev_entry, _chebyshev_power_coefficients, transition_arrays
from .errors import CapacityError, ConvergenceError
from .motzkin import _power
from .numerics import _nested_trapezoid
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
        if self.t <= 0.0:
            raise ValueError(f"t must be positive, got {self.t}")
        if not (0.0 < self.sigma <= 1.0):
            raise ValueError(f"sigma must lie in (0, 1], got {self.sigma}")


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
    if t <= 0.0 or x <= 0.0 or y <= 0.0:
        raise ValueError(f"killed kernel needs t, x, y > 0, got ({t}, {x}, {y})")
    return (math.exp(-((y - x) ** 2) / (2 * t)) - math.exp(-((y + x) ** 2) / (2 * t))) \
        / math.sqrt(2 * math.pi * t)


def bessel3d_transition(q: KernelQuery) -> float:
    """3d Bessel transition density (y/x) q_{t/(1+sigma)}(x, y)."""
    return q.y / q.x * killed_bm_kernel(q.t / (1.0 + q.sigma), q.x, q.y)


def xi0_density(x: float, c: float) -> float:
    """Initial density c^2 x exp(-c x) on x > 0."""
    if c <= 0.0:
        raise ValueError(f"c must be positive, got {c}")
    if x <= 0.0:
        return 0.0
    return c * c * x * math.exp(-c * x)


def yakubovich_kernel(q: KernelQuery) -> float:
    """Heat kernel p_t(x, y) built from Bessel K of imaginary order,
    at time q.t (no sigma dilation here; see :func:`zeta_transition`).

    The u-integral truncates where the Gaussian factor reaches e^-40, uses
    1/|Gamma(iu)|^2 = u sinh(pi u)/pi in closed form, and runs on the nested
    trapezoidal rule (the integrand is even and analytic in u), so each
    level computes the Bessel grids only at its new u nodes.  ConvergenceError
    where sinh(pi u) overflows within that horizon (t < 1.6e-3), or where the
    value is negative past its noise floor."""
    t, x, y = q.t, q.x, q.y
    for z in (x, y):
        if math.exp(-z) < 1e-8:
            warnings.warn(f"kernel argument e^-{z} < 1e-8: Bessel accuracy degrades",
                          RuntimeWarning, stacklevel=2)
    ex, ey = math.exp(-x), math.exp(-y)

    def integrand(us):
        kx = bessel_k_imag_grid(us, ex)
        ky = kx if ex == ey else bessel_k_imag_grid(us, ey)
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
    return max(float(val), 0.0)


def zeta_transition(q: KernelQuery) -> float:
    """Transition density [K_0(e^-y)/K_0(e^-x)] p_{t/(1+sigma)}(x, y)."""
    k0_from = bessel_k_imag(0.0, math.exp(-q.x))
    if k0_from == 0.0:
        raise ValueError(f"K_0(e^-x) underflows at x={q.x}; start point out of range")
    ratio = bessel_k_imag(0.0, math.exp(-q.y)) / k0_from
    dilated = KernelQuery(t=q.t / (1.0 + q.sigma), x=q.x, y=q.y, sigma=q.sigma)
    return ratio * yakubovich_kernel(dilated)


def zeta0_density(x: float, c: float) -> float:
    """Initial density 4 / (2^c Gamma(c/2)^2) exp(-c x) K_0(exp(-x))."""
    if c <= 0.0:
        raise ValueError(f"c must be positive, got {c}")
    norm = 4.0 / (2.0**c * math.gamma(c / 2.0) ** 2)
    return norm * math.exp(-c * x) * bessel_k_imag(0.0, math.exp(-x))


# ------------------------------------------------------- lattice iteration

def _chain_point_evolution(model: QModelParams, m: int, n: int, k: int) -> float:
    """P(X_k = n | X_0 = m) from the Chebyshev expansion of P^k on the
    chain's spectrum [A/B, 1], of degree d, by the bilinear pass
    :func:`motzkinq.chains._chebyshev_entry` of R = ceil(d/2) steps on one
    table of states 0..max(m, n) + R, the exact reach of both ends; 0 when
    |m - n| > k.  Where k steps on the exact reach 0..max(m, n) + k cost no
    more state-steps than the pass, at most R 2 (2R + 1), they are taken
    instead, and nothing leaks past that reach.

    The expansion is accurate to about (d+1) eps in the pi-symmetrized value
    P(X_k = n | X_0 = m) sqrt(pi_m / pi_n); a value within 10^6 times that
    of zero (far tails) is recomputed by exact stepping: on the exact reach
    while max(m, n) + k is at most twice the diffusive cap
    max(m, n) + floor(8 sqrt(k / (1+sigma))) + 64, eight diffusive widths
    above the farther end, and on that cap beyond it, where CapacityError
    names the cap, k and the leak when more than 1e-9 of the mass leaves
    past it.
    """
    if abs(m - n) > k:
        return 0.0  # unreachable: at most one level per step
    lam0 = model.A / model.B
    c = _chebyshev_power_coefficients(k, lam0)
    R = len(c) // 2
    reach = max(m, n) + k
    if k * (reach + 1) <= 2 * R * (2 * R + 1):
        return _exact_point(model, m, n, k, reach)
    up, flat, down = transition_arrays(model, max(m, n) + R)
    p = _chebyshev_entry(m, n, c, lam0, up, flat, down)
    lo, hi = min(m, n), max(m, n)
    log_ratio = float(np.sum(np.log(up[lo:hi] / down[lo + 1:hi + 1])))
    if n < m:
        log_ratio = -log_ratio  # log(pi_n / pi_m)
    floor = 1e6 * len(c) * _EPS
    if p > 0.0 and math.log(p) - 0.5 * log_ratio >= math.log(floor):
        return p
    cap = max(m, n) + int(8.0 * math.sqrt(k / (1.0 + model.sigma))) + 64
    return _exact_point(model, m, n, k, reach if reach <= 2 * cap else cap)


def _exact_point(model: QModelParams, m: int, n: int, k: int, cap: int) -> float:
    """P(X_k = n | X_0 = m) by k exact steps of
    :func:`motzkinq.motzkin._power` on states 0..cap and one absorbing state
    cap + 1 (up 0, flat 1, down 0), whose entry gathers the mass that leaves
    past the cap; CapacityError naming the cap, k and that leak when it is
    more than 1e-9 (never on the exact reach cap >= max(m, n) + k)."""
    up, flat, down = (np.append(w, end) for w, end in
                      zip(transition_arrays(model, cap), (0.0, 1.0, 0.0)))
    vec = np.zeros(cap + 2)
    vec[m] = 1.0
    out, _ = _power(vec, up, flat, down, itertools.repeat(1.0, k))
    lost = out[-1]
    if lost > 1e-9:
        raise CapacityError(f"state cap {cap} leaks mass {lost:.3g} > 1e-9 in k={k} steps "
                            f"from level {m}")
    return float(out[n])


def _compare(lhs: float, rhs: float, where: str) -> LimitComparison:
    """OverflowError naming where when the continuum target underflows to 0,
    since no relative error is defined there."""
    if rhs == 0.0:
        raise OverflowError(f"continuum target underflows to 0 in the {where}")
    return LimitComparison(lhs=lhs, rhs=rhs)


def local_limit_error_fixed_q(N: int, t: float, x: float, y: float,
                              model: QModelParams) -> LimitComparison:
    """sqrt(N) P(X_{floor(Nt)} = floor(y sqrt N) | X_0 = floor(x sqrt N))
    against the Bessel target (y/x) q_{t/(1+sigma)}(x, y)."""
    if x <= 0.0 or y <= 0.0 or t <= 0.0:
        raise ValueError("need x, y, t > 0")
    rn = _root(N)
    m, n, k = math.floor(x * rn), math.floor(y * rn), math.floor(N * t)
    lhs = rn * _chain_point_evolution(model, m, n, k)
    rhs = bessel3d_transition(KernelQuery(t=t, x=x, y=y, sigma=model.sigma))
    return _compare(lhs, rhs, f"fixed-q regime at t={t}, x={x}, y={y}")


def initial_limit_fixed_q(N: int, x: float, c: float, model: QModelParams) -> LimitComparison:
    """sqrt(N) P(X_0 = floor(x sqrt N)) with rho0 = exp(-c/sqrt(N)) against
    the density c^2 x exp(-c x)."""
    if x <= 0.0:
        raise ValueError("need x > 0")
    rn = _root(N)
    varying = QModelParams(q=model.q, sigma=model.sigma,
                           rho0=math.exp(-c / rn), rho1=model.rho1)
    m = math.floor(x * rn)
    lhs = rn * float(_initial_probs(varying, varying.rho0, m)[m])
    return _compare(lhs, xi0_density(x, c), f"fixed-q initial law at x={x}, c={c}")


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
    m, n, k = index_map(x, N, sigma), index_map(y, N, sigma), math.floor(N * t)
    if m < 0 or n < 0:
        raise CapacityError(f"index map gave negative level (x={x}, y={y}, N={N})")
    lhs = rn * _chain_point_evolution(model, m, n, k)
    where = f"q-to-1 regime at t={t}, x={x}, y={y}"
    try:
        rhs = zeta_transition(KernelQuery(t=t, x=x, y=y, sigma=sigma))
    except ConvergenceError as err:
        raise ConvergenceError(f"continuum target in the {where} is not computed: {err}") from err
    return _compare(lhs, rhs, where)


def initial_limit_q_to_1(N: int, x: float, c: float, sigma: float) -> LimitComparison:
    """sqrt(N) P(X_0 = J_x) with q = exp(-2/sqrt(N)), rho0 = exp(-c/sqrt(N))
    against the entrance law :func:`zeta0_density`,
    4 / (2^c Gamma(c/2)^2) e^{-c x} K_0(e^-x)."""
    rn = _root(N)
    model = QModelParams(q=math.exp(-2.0 / rn), sigma=sigma, rho0=math.exp(-c / rn))
    level = index_map(x, N, sigma)
    if level < 0:
        raise CapacityError(f"index map gave negative level (x={x}, N={N})")
    lhs = rn * float(_initial_probs(model, model.rho0, level)[level])
    return _compare(lhs, zeta0_density(x, c), f"q-to-1 initial law at x={x}, c={c}")


def error_table(regime: str, Ns: list[int], t: float, x: float, y: float,
                model: QModelParams | None = None, sigma: float = 1.0) -> list[dict]:
    """Rows (N, t, x, y, lhs, rhs, rel_err) for convergence tables.

    regime 'fixed-q' needs a q-model; 'q-to-1' sets q = exp(-2/sqrt(N))
    internally and uses ``sigma``.
    """
    rows = []
    for N in Ns:
        if regime == "fixed-q":
            if model is None:
                raise ValueError("fixed-q regime needs model parameters")
            cmp_ = local_limit_error_fixed_q(N, t, x, y, model)
        elif regime == "q-to-1":
            cmp_ = local_limit_error_q_to_1(N, t, x, y, sigma)
        else:
            raise ValueError(f"unknown regime {regime!r}")
        rows.append({"N": N, "t": t, "x": x, "y": y,
                     "lhs": cmp_.lhs, "rhs": cmp_.rhs, "rel_err": cmp_.rel_err})
    return rows
