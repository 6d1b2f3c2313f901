"""q-series and special-function primitives.

Covers q-numbers, finite and infinite q-Pochhammer symbols, the q-Gamma
function, a Ramanujan product ratio with a classical q->1 limit, the Jacobi
theta functions theta_1 and theta_4, the squared modulus of Gamma on the
imaginary axis, and the modified Bessel function K of purely imaginary
order (nested trapezoidal rule).  Everything is a pure function; complex
powers and logarithms use the principal branch throughout.  Products
and series stop on ``numerics.REL_TOL`` and ``numerics.MAX_TERMS``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import numerics
from .errors import ConvergenceError
from .numerics import _nested_trapezoid

__all__ = [
    "q_number",
    "qpoch_finite",
    "qpoch_infinite",
    "qpoch_log_abs",
    "q_gamma",
    "q_gamma_log",
    "ramanujan_ratio",
    "theta1",
    "theta4",
    "gamma_abs_imag_sq",
    "bessel_k_imag",
    "bessel_k_imag_grid",
]


def _check_q(q: float, n: int = 0) -> float:
    """q as a float; ValueError unless 0 <= q < 1 and the count n >= 0."""
    if not (0.0 <= q < 1.0):
        raise ValueError(f"q must lie in [0, 1), got {q}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return float(q)


def q_number(n: int, q: float) -> float:
    """[n]_q = 1 + q + ... + q^(n-1); equals 0 at n = 0."""
    _check_q(q, n)
    if n == 0:
        return 0.0
    return (1.0 - q**n) / (1.0 - q)


def _term_count(a: complex, q: float) -> int:
    """Factors that (a; q)_inf needs: the smallest k with |a| q^k / (1-q),
    the tail of its log, below ``numerics.REL_TOL``.  Raises
    :class:`ConvergenceError` past ``numerics.MAX_TERMS``."""
    amod = abs(a)
    k = 1
    if amod != 0.0 and q != 0.0:
        bound = numerics.REL_TOL * (1.0 - q) / amod
        if bound < 1.0:
            k = max(int(math.ceil(math.log(bound) / math.log(q))), 1)
    if k > numerics.MAX_TERMS:
        raise ConvergenceError(f"(a;q)_inf with |a|={amod:.3g}, q={q} needs {k} factors, "
                               f"MAX_TERMS={numerics.MAX_TERMS}")
    return k


def _factors(a: complex, q: float, n: int) -> np.ndarray:
    """The factors 1 - a q^k, k = 0..n-1, as one array."""
    return 1.0 - np.power(q, np.arange(n)) * a


def _product(a: complex, q: float, n: int):
    """prod_{k<n} (1 - a q^k), one reduction of :func:`_factors`: a float
    for real ``a``, else a complex number."""
    out = _factors(a, q, n).prod()
    return complex(out) if isinstance(a, complex) else float(np.real(out))


def qpoch_finite(a: complex, q: float, n: int):
    """Finite q-Pochhammer symbol (a; q)_n = prod_{k<n} (1 - a q^k).

    Returns a float for real ``a`` and a complex number otherwise.  The
    empty product (n = 0) is 1.
    """
    _check_q(q, n)
    return _product(a, q, n)


def qpoch_infinite(a: complex, q: float):
    """Infinite q-Pochhammer symbol (a; q)_infty, truncated when the
    multiplicative tail bound |a| q^k / (1-q) drops below ``numerics.REL_TOL``.

    Returns a float for real ``a``, else a complex number.  Raises
    :class:`ConvergenceError` if ``numerics.MAX_TERMS`` factors are not
    enough, and ``OverflowError`` naming ``a`` and ``q`` if the product
    leaves double range (``qpoch_log_abs`` still gives its log modulus).
    Deterministic for fixed inputs.
    """
    _check_q(q)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _product(a, q, _term_count(a, q))
    if not cmath.isfinite(out):
        raise OverflowError(f"(a; q)_inf at a={a}, q={q} left double range; "
                            f"qpoch_log_abs gives log |(a; q)_inf|")
    return out


def qpoch_log_abs(a: complex, q: float, n: int | None = None) -> float:
    """log |(a; q)_n| with n = None meaning the infinite product.

    Safe replacement for ``log(abs(qpoch_*))`` when the product itself would
    overflow or underflow double precision.
    """
    _check_q(q, n or 0)  # n = None: the infinite product
    if n is None:
        n = _term_count(a, q)
    with np.errstate(divide="ignore"):
        return float(np.log(np.abs(_factors(a, q, n))).sum())


def _log_ratio(a: complex, b: complex, log_b: complex, q: float, n: int,
               pole: str) -> complex:
    """sum_{k<n} log(1 - a q^k) - log(1 - b q^k) for a ``b`` computed as
    exp(``log_b``): the factors of (a; q)_n and (b; q)_n are paired, so the
    ratio survives where each product leaves double range (q close to 1).
    Every factor 1 - b q^k shares the rounding b = exp(log_b - d); the
    first-order correction d sum b q^k / (1 - b q^k) keeps it from adding up
    as q -> 1.  ``ValueError(pole)`` on a vanishing factor."""
    d = log_b - cmath.log(b) if b else 0.0
    d = complex(d.real, math.remainder(d.imag, 2.0 * math.pi))
    top, bot = _factors(a, q, n), _factors(b, q, n)
    if not bot.all():
        raise ValueError(pole)
    bot = bot.astype(complex)
    return complex(np.sum(np.log(top) - np.log(bot) + d * (1.0 - bot) / bot))


def _is_nonpositive_integer(z: complex) -> bool:
    zr, zi = (z.real, z.imag) if isinstance(z, complex) else (float(z), 0.0)
    if abs(zi) > 1e-12:
        return False
    k = round(zr)
    return k <= 0 and abs(zr - k) <= 1e-12


def q_gamma_log(z: complex, q: float) -> complex:
    """Principal-branch log of the q-Gamma function.

    Gamma_q(z) = (1-q)^(1-z) (q;q)_inf / (q^z;q)_inf.  The two infinite
    products are combined factor by factor, so the result stays finite even
    when each product alone would leave the double-precision range (q close
    to 1).
    """
    _check_q(q)
    if _is_nonpositive_integer(z):
        raise ValueError(f"q-Gamma pole at z={z}")
    z = complex(z)
    if q == 0.0:
        return 0.0 + 0.0j  # Gamma_0(z) = 1 for Re z > 0
    w = z * math.log(q)
    n = _term_count(q ** min(z.real, 1.0), q)
    total = _log_ratio(q, cmath.exp(w), w, q, n, f"q-Gamma pole at z={z}")
    return (1.0 - z) * math.log(1.0 - q) + total


def q_gamma(z: complex, q: float):
    """q-Gamma function (1-q)^(1-z) (q;q)_inf / (q^z;q)_inf.

    Returns a float for real ``z``.  Raises ``ValueError`` on the poles
    z = 0, -1, -2, ... (detected within 1e-12).
    """
    val = cmath.exp(q_gamma_log(z, q))
    if not isinstance(z, complex):
        return float(val.real)
    return val


def ramanujan_ratio(z: complex, lam: complex, q: float):
    """(z; q)_inf / (z q^lam; q)_inf, which tends to (1-z)^lam as q -> 1.

    ``z`` must avoid the cut [1, infinity) on the real axis.  Factors of the
    two products are paired before exponentiation so the ratio survives q
    close to 1.
    """
    _check_q(q)
    zr, zi = (z.real, z.imag) if isinstance(z, complex) else (float(z), 0.0)
    if abs(zi) == 0.0 and zr >= 1.0:
        raise ValueError(f"z={z} lies on the cut [1, inf)")
    if z == 0 or lam == 0:
        return 1.0 if not (isinstance(z, complex) or isinstance(lam, complex)) else 1.0 + 0.0j
    if q == 0.0:
        if complex(lam).real <= 0.0:
            raise ValueError("q = 0 with Re(lam) <= 0 makes q^lam singular")
        out = 1.0 - complex(z)  # (z;0)_inf / (0;0)_inf
    else:
        log_qlam = complex(lam) * math.log(q)
        n = _term_count(abs(z) * max(1.0, math.exp(log_qlam.real)), q)
        out = cmath.exp(_log_ratio(z, z * cmath.exp(log_qlam), cmath.log(z) + log_qlam, q, n,
                                   "vanishing factor in Ramanujan ratio"))
    if not (isinstance(z, complex) or isinstance(lam, complex)):
        return float(out.real)
    return out


def _theta_sum(terms) -> complex:
    """Sum an endless theta series until two consecutive terms are negligible
    and decreasing, against ``numerics.REL_TOL`` and ``numerics.MAX_TERMS``."""
    total = 0.0 + 0.0j
    scale = 0.0
    small_streak = 0
    prev_mag = math.inf
    for n, term in enumerate(terms):
        total += term
        mag = abs(term)
        scale = max(scale, mag, abs(total))
        if n >= 2 and mag <= numerics.REL_TOL * scale and mag <= prev_mag:
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
        prev_mag = mag
        if n + 1 >= numerics.MAX_TERMS:
            raise ConvergenceError(f"theta series exceeded MAX_TERMS={numerics.MAX_TERMS}")


def theta1(v: complex, tau: complex) -> complex:
    """Jacobi theta_1(v | tau) with nome exp(pi i tau); requires Im(tau) > 0.

    theta_1(v|tau) = 2 w^(1/4) sum_{n>=0} (-1)^n w^(n(n+1)) sin((2n+1) pi v),
    w = exp(pi i tau).
    """
    tau = complex(tau)
    if tau.imag <= 0.0:
        raise ValueError(f"Im(tau) must be positive, got {tau}")
    v = complex(v)
    ipit = 1j * math.pi * tau

    def terms():
        n = 0
        while True:
            yield (-1) ** n * cmath.exp(ipit * (n * (n + 1))) * cmath.sin((2 * n + 1) * math.pi * v)
            n += 1

    return 2.0 * cmath.exp(ipit / 4.0) * _theta_sum(terms())


def theta4(v: complex, tau: complex) -> complex:
    """Jacobi theta_4(v | tau) = 1 + 2 sum_{n>=1} (-1)^n w^(n^2) cos(2 n pi v),
    w = exp(pi i tau); requires Im(tau) > 0."""
    tau = complex(tau)
    if tau.imag <= 0.0:
        raise ValueError(f"Im(tau) must be positive, got {tau}")
    v = complex(v)
    ipit = 1j * math.pi * tau

    def terms():
        n = 1
        while True:
            yield 2.0 * (-1) ** n * cmath.exp(ipit * (n * n)) * cmath.cos(2 * n * math.pi * v)
            n += 1

    return 1.0 + _theta_sum(terms())


def gamma_abs_imag_sq(u: float) -> float:
    """|Gamma(i u)|^2 = pi / (u sinh(pi u)); even in u, pole at u = 0."""
    if u == 0.0:
        raise ValueError("|Gamma(iu)|^2 diverges at u = 0")
    au = abs(float(u))
    x = math.pi * au
    if x > 700.0:
        # sinh overflows; use sinh(x) = exp(x)(1 - exp(-2x))/2
        return 2.0 * math.pi * math.exp(-x) / (au * (1.0 - math.exp(-2.0 * x)))
    return math.pi / (au * math.sinh(x))


def bessel_k_imag(u: float, x: float) -> float:
    """Modified Bessel function K_{iu}(x) of purely imaginary order, x > 0
    (a one-order :func:`bessel_k_imag_grid`); real-valued and even in u."""
    return float(bessel_k_imag_grid(np.array([float(u)]), x)[0])


def bessel_k_imag_grid(us: np.ndarray, x: float) -> np.ndarray:
    """K_{iu}(x) for a whole array of orders ``us`` at once.

    Moving the contour of (1/2) int_R exp(-x cosh t + i|u|t) dt to Im t = theta
    gives K_{iu}(x) = e^{-|u| theta} int_0^inf exp(-x cos(theta) cosh t)
    cos(|u| t - x sin(theta) sinh t) dt, whose cancellation at large |u| is
    e^{|u| theta} below that at theta = 0; theta = pi/4, less for x > 3.4 so
    that the envelope stays within a factor e of exp(-x cosh t).  The nested
    trapezoidal rule shares envelope and phase between orders and stops on
    the largest change against ``numerics.REL_TOL``, with a floor of 64 eps
    times the largest L1 mass; :class:`ConvergenceError` names x past
    ``numerics.MAX_NODES`` intervals, and for x < 1e-12; ValueError unless
    x > 0 and every order is finite.
    """
    if not x > 0.0:  # NaN too
        raise ValueError(f"argument must be positive, got x={x}")
    if x < 1e-12:
        raise ConvergenceError(f"x={x} too small: below 1e-12 the K grid is not computed")
    us = np.abs(np.asarray(us, dtype=float))
    if not us.max(initial=0.0) < math.inf:  # NaN too
        raise ValueError(f"orders must be finite, got u={us.max()}")
    cos_th = max(math.sqrt(0.5), 1.0 - 1.0 / x)
    xc, xs = x * cos_th, x * math.sqrt(1.0 - cos_th * cos_th)

    def integrand(t):
        return np.cos(np.multiply.outer(us, t) - xs * np.sinh(t)) * np.exp(-xc * np.cosh(t))

    # the envelope at the horizon is e^-40 of its peak e^-xc
    horizon = math.acosh(1.0 + 40.0 / xc)
    vals, _ = _nested_trapezoid(integrand, horizon, 64.0, f"K grid at x={x}")
    return vals * np.exp(-math.acos(cos_th) * us)
