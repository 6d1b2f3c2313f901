"""Tests for the q-series / special-function layer."""

import cmath
import math
import warnings

import numpy as np
import pytest

from motzkinq.ascpoly import QModelParams, initial_log_normalizer
from motzkinq.errors import ConvergenceError
from motzkinq import numerics, qspecial
from motzkinq.qspecial import (
    bessel_k_imag,
    bessel_k_imag_grid,
    gamma_abs_imag_sq,
    q_gamma,
    q_number,
    qpoch_finite,
    qpoch_infinite,
    qpoch_log_abs,
    ramanujan_ratio,
    theta1,
    theta4,
)


# ----------------------------------------------------------------- q-numbers

def test_q_number_known_values():
    assert q_number(0, 0.5) == 0.0
    assert q_number(3, 0.0) == 1.0
    assert q_number(3, 0.5) == pytest.approx(1.75, abs=0)


@pytest.mark.parametrize("q", [0.0, 0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
def test_q_number_matches_partial_sum(n, q):
    direct = sum(q**k for k in range(n))
    assert q_number(n, q) == pytest.approx(direct, rel=1e-14, abs=1e-14)


def test_q_number_rejects_bad_arguments():
    with pytest.raises(ValueError):
        q_number(-1, 0.5)
    with pytest.raises(ValueError):
        q_number(2, 1.0)


# ------------------------------------------------------------- q-Pochhammer

def test_qpoch_finite_known_values():
    assert qpoch_finite(123.0, 0.3, 0) == 1.0
    assert qpoch_finite(0.5, 0.5, 2) == pytest.approx(0.375, abs=0)
    assert qpoch_finite(1.0, 0.5, 3) == 0.0


def test_qpoch_infinite_against_long_product_oracle(monkeypatch):
    # independent oracle: plain 200-term loop
    oracle = 1.0
    for k in range(200):
        oracle *= 1.0 - 0.5 * 0.5**k
    monkeypatch.setattr(numerics, "REL_TOL", 1e-14)
    val = qpoch_infinite(0.5, 0.5)
    assert val == pytest.approx(oracle, rel=1e-13)
    assert val == pytest.approx(0.2887880951, rel=1e-9)


def test_qpoch_infinite_trivial_and_errors(monkeypatch):
    assert qpoch_infinite(0.0, 0.9) == 1.0
    monkeypatch.setattr(numerics, "REL_TOL", 1e-14)
    monkeypatch.setattr(numerics, "MAX_TERMS", 10)
    with pytest.raises(ConvergenceError):
        qpoch_infinite(0.5, 1.0 - 1e-9)


@pytest.mark.parametrize("a,q,n", [
    (0.7, 0.6, 3),
    (-0.4, 0.85, 12),
    (0.3 + 0.4j, 0.5, 7),
    (math.exp(-2 / 100), math.exp(-2 / 100), 40),
])
def test_qpoch_telescoping(a, q, n):
    lhs = qpoch_infinite(a, q)
    rhs = qpoch_finite(a, q, n) * qpoch_infinite(a * q**n, q)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_qpoch_infinite_out_of_range_raises_naming_a_and_q():
    # at q = 0.9999 the factors 1 - 0.9j q^k multiply past double range: the
    # product was nan + nan j with only a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"a=0\.9j, q=0\.9999.*qpoch_log_abs"):
            qpoch_infinite(0.9j, 0.9999)
    assert math.isfinite(qpoch_log_abs(0.9j, 0.9999))


def test_qpoch_log_abs_matches_direct():
    a, q = 0.3 + 0.2j, 0.7
    assert qpoch_log_abs(a, q, 9) == pytest.approx(math.log(abs(qpoch_finite(a, q, 9))), rel=1e-13)
    assert qpoch_log_abs(a, q) == pytest.approx(math.log(abs(qpoch_infinite(a, q))), rel=1e-12)


# products of 40, 3224 and 83 factors, pinned bitwise
PRODUCT_PINS = [
    (lambda: initial_log_normalizer(QModelParams(0.5, 0.8), 0.3), "1.8171211304028778"),
    (lambda: q_gamma(0.5, math.exp(-0.01)), "1.7691372993260428"),
    (lambda: qpoch_infinite(2.0, 0.7), "0.0003718170628420378"),
]


def test_short_products_pinned_bitwise():
    for value, want in PRODUCT_PINS:
        assert repr(value()) == want


@pytest.mark.parametrize("q", [0.999, 0.9999])
@pytest.mark.parametrize("a", [0.5, 0.9j, -0.7])
def test_qpoch_log_abs_of_long_products_against_exact_sum(a, q):
    # 3.4e4 to 3.7e5 factors, reduced as one array
    n = qspecial._term_count(a, q)
    want = math.fsum(math.log(abs(1.0 - a * q**k)) for k in range(n))
    assert qpoch_log_abs(a, q) == pytest.approx(want, rel=1e-13)


def test_factor_cap_raises_before_any_factor_is_formed(monkeypatch):
    def no_factors(*args):
        raise AssertionError("factors formed past MAX_TERMS")

    monkeypatch.setattr(qspecial, "_factors", no_factors)
    monkeypatch.setattr(numerics, "MAX_TERMS", 10)
    for call in (lambda: qpoch_infinite(0.5, 0.999), lambda: qpoch_log_abs(0.5, 0.999),
                 lambda: q_gamma(0.5, 0.999)):
        with pytest.raises(ConvergenceError, match="MAX_TERMS=10"):
            call()


# ----------------------------------------------------------------- q-Gamma

def test_q_gamma_at_small_integers():
    for q in (0.2, 0.5, 0.9):
        assert q_gamma(1.0, q) == pytest.approx(1.0, rel=1e-12)
        assert q_gamma(2.0, q) == pytest.approx(1.0, rel=1e-12)


def test_q_gamma_functional_equation():
    # Gamma_q(z+1) = (1-q^z)/(1-q) Gamma_q(z)
    for q in (0.3, 0.8):
        for z in (0.4, 1.7, 2.3 + 0.5j):
            lhs = q_gamma(complex(z) + 1, q)
            rhs = (1 - q ** complex(z)) / (1 - q) * q_gamma(complex(z), q)
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def test_q_gamma_near_one_against_mpmath():
    # every factor 1 - q^z q^k shares the rounding of q^z; at q = 0.999 that
    # alone would give 3.7e-13 at z = 0.5 without its first-order correction
    mp = pytest.importorskip("mpmath")
    for z in (0.5, 0.1, 2.5):
        with mp.workdps(30):
            want = mp.qgamma(z, 0.999, maxterms=10**6)
        assert float(abs(q_gamma(z, 0.999) / want - 1)) < 1e-13


def test_q_gamma_limit_to_gamma_half():
    errs = []
    for M in (10, 100, 1000):
        q = math.exp(-2.0 / M)
        errs.append(abs(q_gamma(0.5, q) - math.sqrt(math.pi)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-2


def test_q_gamma_pole_detection():
    with pytest.raises(ValueError):
        q_gamma(0.0, 0.5)
    with pytest.raises(ValueError):
        q_gamma(-3.0 + 1e-14, 0.5)


def test_q_gamma_periodicity_and_monotonicity_on_imaginary_shifts():
    # |Gamma_q(c+it)| with q=exp(-2/M) has period M*pi in t and decreases
    # on [0, M*pi/2]
    M, c = 12.0, 0.7
    q = math.exp(-2.0 / M)
    period = M * math.pi
    ts = np.linspace(-1.3 * period, 1.3 * period, 41)
    vals = np.array([abs(q_gamma(complex(c, t), q)) for t in ts])
    shifted = np.array([abs(q_gamma(complex(c, t + period), q)) for t in ts])
    assert float(np.max(np.abs(vals - shifted))) < 1e-9
    half = np.linspace(0.0, period / 2, 31)
    hv = np.array([abs(q_gamma(complex(c, t), q)) for t in half])
    assert np.all(np.diff(hv) <= 1e-12)


@pytest.mark.parametrize("M", [50, 200])
def test_q_gamma_two_sided_exponential_bound(M):
    # 1/C e^(-pi|x|/2) < |Gamma_q(1+ix)| < C e^(-3 pi |x| / 20) with C = 10
    C = 10.0
    q = math.exp(-2.0 / M)
    xs = np.linspace(-math.pi * M / 2, math.pi * M / 2, 200)
    for x in xs:
        g = abs(q_gamma(complex(1.0, x), q))
        assert g < C * math.exp(-3 * math.pi * abs(x) / 20)
        assert g > math.exp(-math.pi * abs(x) / 2) / C


def test_inverse_q_gamma_quadratic_exponential_bound():
    # 1/|Gamma_q(iu)|^2 <= A u^2 e^(B|u|) on |u| < M pi / 2
    A, B = 200.0, math.pi
    for M in (50, 100):
        q = math.exp(-2.0 / M)
        for u in np.linspace(0.3, M * math.pi / 2 * 0.98, 60):
            g = abs(q_gamma(complex(0.0, u), q))
            assert 1.0 / g**2 <= A * u**2 * math.exp(B * u)


def test_shifted_q_gamma_exponential_envelope():
    # |Gamma_q(1 + i(s+u))| <= A e^(-B|s|) on |s| <= M pi/2 with the sampled
    # constants A = 10 e^(3 pi |u|/20), B = 3 pi / 40
    for u in (0.5, 3.0):
        A = 10.0 * math.exp(3 * math.pi * abs(u) / 20)
        for M in (50, 150):
            q = math.exp(-2.0 / M)
            for s in np.linspace(-M * math.pi / 2, M * math.pi / 2, 101):
                g = abs(q_gamma(complex(1.0, s + u), q))
                assert g <= A * math.exp(-3 * math.pi * abs(s) / 40)


def test_q_gamma_large_imaginary_shift_ratio_bound():
    # |Gamma_q(1 - i beta M + i x)| / |Gamma_q(1 - i beta M)| < A e^(pi x/2)
    # for beta in (pi/4, 3 pi/4) and x in [0, pi M / 2]; A = 2 sampled
    for beta in (0.9, 1.3, 2.0):
        for M in (40, 120):
            q = math.exp(-2.0 / M)
            den = abs(q_gamma(complex(1.0, -beta * M), q))
            for x in np.linspace(0.0, math.pi * M / 2, 60):
                r = abs(q_gamma(complex(1.0, -beta * M + x), q)) / den
                assert r < 2.0 * math.exp(math.pi * x / 2)


def test_conjugate_product_shift_growth_bound():
    # (a, b; q)_inf^2 / |(a q^(iu/2), b q^(iu/2); q)_inf|^2 <= A e^(B|u|)
    # on |u| < pi M / 2 for a = -q e^(i alpha), b = conj; A = 2, B = pi
    for alpha in (0.0, 0.5, 1.2):
        for M in (40, 120):
            q = math.exp(-2.0 / M)
            a = -q * cmath.exp(1j * alpha)
            b = a.conjugate()
            den0 = (qpoch_infinite(a, q) * qpoch_infinite(b, q)).real
            for u in np.linspace(0.0, math.pi * M / 2 * 0.98, 60):
                sh = q ** (1j * u / 2)
                num = abs(qpoch_infinite(a * sh, q) * qpoch_infinite(b * sh, q)) ** 2
                assert den0**2 / num <= 2.0 * math.exp(math.pi * u)


def test_conjugate_pair_product_ratio_bounded_by_one():
    # |(-a q^(1+c+is), -b q^(1+c+is); q)_inf / (-a q, -b q; q)_inf| <= 1
    # for conjugate pairs with Re >= 0 and c >= 0
    rng = np.random.default_rng(7)
    for _ in range(25):
        q = rng.uniform(0.05, 0.95)
        r = rng.uniform(0.0, 1.5)
        alpha = rng.uniform(-math.pi / 2, math.pi / 2)
        c = rng.uniform(0.0, 3.0)
        s = rng.uniform(-20.0, 20.0)
        wa = r * cmath.exp(1j * alpha)
        wb = r * cmath.exp(-1j * alpha)
        shift = q ** complex(1 + c, s)
        num = qpoch_infinite(-wa * shift, q) * qpoch_infinite(-wb * shift, q)
        den = qpoch_infinite(-wa * q, q) * qpoch_infinite(-wb * q, q)
        assert abs(num / den) <= 1.0 + 1e-12


def test_elementary_sinh_bounds():
    for u in np.linspace(-30, 30, 121):
        if u == 0.0:
            continue
        ratio = u / math.sinh(u) if abs(u) < 700 else 0.0
        assert math.exp(-abs(u)) <= ratio + 1e-15
        assert ratio <= 10 * math.exp(-4 * abs(u) / 5) + 1e-15
        assert abs(u / (1 - math.exp(u))) <= 1 + abs(u) + 1e-12


# -------------------------------------------------------- Ramanujan ratio

def test_ramanujan_ratio_trivial_cases():
    assert ramanujan_ratio(0.0, 2.3, 0.5) == 1.0
    assert ramanujan_ratio(0.4, 0.0, 0.5) == 1.0


def test_ramanujan_ratio_limit():
    target = math.sqrt(2.0)
    errs = []
    for M in (10, 100, 1000):
        q = math.exp(-2.0 / M)
        errs.append(abs(ramanujan_ratio(-1.0, 0.5, q) - target))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-2


def test_ramanujan_ratio_matches_plain_products_moderate_q():
    z, lam, q = -0.7, 1.25, 0.6
    direct = qpoch_infinite(z, q) / qpoch_infinite(z * q**lam, q)
    assert ramanujan_ratio(z, lam, q) == pytest.approx(direct, rel=1e-12)


def test_ramanujan_ratio_domain_error():
    with pytest.raises(ValueError):
        ramanujan_ratio(1.5, 0.5, 0.5)


def test_q_zero_products_are_one_factor():
    # at q = 0 each product (a; 0)_inf is the single factor 1 - a
    assert q_gamma(0.7, 0.0) == 1.0
    assert ramanujan_ratio(0.3, 0.5, 0.0) == 1.0 - 0.3
    assert ramanujan_ratio(0.3 + 0.2j, 2.0 + 1.0j, 0.0) == 1.0 - (0.3 + 0.2j)


@pytest.mark.parametrize("lam", [-0.5, 1j, -2.0 + 3.0j])
def test_ramanujan_ratio_at_q_zero_needs_positive_real_lam(lam):
    with pytest.raises(ValueError, match=r"q = 0 with Re\(lam\) <= 0"):
        ramanujan_ratio(0.3, lam, 0.0)


# ------------------------------------------------------------------- theta

def test_theta1_vanishes_at_zero():
    assert abs(theta1(0.0, 1j)) == 0.0
    assert abs(theta1(0.0, 0.3 + 0.8j)) == 0.0


def test_theta4_at_zero_against_series_oracle():
    # oracle: direct alternating series with nome exp(-pi)
    w = math.exp(-math.pi)
    oracle = 1.0 + 2.0 * sum((-1) ** n * w ** (n * n) for n in range(1, 40))
    assert theta4(0.0, 1j).real == pytest.approx(oracle, rel=1e-13)
    assert theta4(0.0, 1j).real == pytest.approx(0.913579, rel=1e-6)


def test_theta_requires_upper_half_plane():
    with pytest.raises(ValueError):
        theta1(0.3, -1j)
    with pytest.raises(ValueError):
        theta4(0.3, 0.5)


def _qpoch_complex_base(a: complex, qc: complex, nmax: int = 4000) -> complex:
    """(a; qc)_inf for a complex nome qc with |qc| < 1 (test oracle only)."""
    out = 1.0 + 0.0j
    term = complex(a)
    for _ in range(nmax):
        out *= 1.0 - term
        term *= qc
        if abs(term) < 1e-18:
            break
    return out


def test_theta1_triple_product():
    # theta1(v|tau) = 2 w^(1/4) sin(pi v) (w^2, w^2 e^(2 pi i v), w^2 e^(-2 pi i v); w^2)_inf
    grid = [(0.3, 1j), (0.1, 0.5j), (0.45, 2j), (0.3, 0.2 + 1j)]
    for v, tau in grid:
        w = cmath.exp(1j * math.pi * tau)
        w2 = w * w
        rhs = (
            2 * w**0.25 * cmath.sin(math.pi * v)
            * _qpoch_complex_base(w2, w2)
            * _qpoch_complex_base(w2 * cmath.exp(2j * math.pi * v), w2)
            * _qpoch_complex_base(w2 * cmath.exp(-2j * math.pi * v), w2)
        )
        lhs = theta1(v, tau)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_theta_shift_identity():
    # theta1(v|tau) = i w^(1/4) exp(-pi i v) theta4(v - tau/2 | tau)
    for v, tau in [(0.3, 1j), (0.7, 0.5j), (0.2, 0.1 + 0.9j)]:
        w = cmath.exp(1j * math.pi * tau)
        lhs = theta1(v, tau)
        rhs = 1j * w**0.25 * cmath.exp(-1j * math.pi * v) * theta4(v - tau / 2, tau)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("M", [1, 5, 20])
def test_theta1_modular_identity(M):
    # theta1(v|tau) = i sqrt(i/tau) exp(-pi i v^2 / tau) theta1(v/tau | -1/tau)
    tau = 1j * math.pi * M
    for v in (0.2, 0.45, 0.8):
        lhs = theta1(v, tau)
        rhs = 1j * cmath.sqrt(1j / tau) * cmath.exp(-1j * math.pi * v * v / tau) \
            * theta1(v / tau, -1 / tau)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


# ------------------------------------------------- |Gamma(iu)|^2 and Bessel K

def test_gamma_abs_imag_sq_values():
    assert gamma_abs_imag_sq(1.0) == pytest.approx(math.pi / math.sinh(math.pi), rel=1e-14)
    assert gamma_abs_imag_sq(1.0) == pytest.approx(0.272029, rel=1e-5)
    assert gamma_abs_imag_sq(-1.0) == gamma_abs_imag_sq(1.0)
    with pytest.raises(ValueError):
        gamma_abs_imag_sq(0.0)


def test_gamma_abs_imag_sq_quadratic_divergence():
    u = 1e-5
    assert u * u * gamma_abs_imag_sq(u) == pytest.approx(1.0, rel=1e-6)


def test_gamma_abs_imag_sq_large_argument():
    # crosses the sinh overflow guard while the value is still representable
    v = gamma_abs_imag_sq(230.0)
    assert 0.0 < v < 1e-300


def test_bessel_k_zero_order_at_one():
    # frozen from the mpmath oracle: besselk(0, 1)
    assert bessel_k_imag(0.0, 1.0) == pytest.approx(0.42102443824070834, rel=1e-10)


def test_bessel_k_zero_order_against_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    for x in (0.2, 1.0, 3.7, 11.0):
        assert bessel_k_imag(0.0, x) == pytest.approx(float(scipy_special.k0(x)), rel=1e-10)


def test_bessel_k_imag_order_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for u, x in [(1.0, 1.0), (2.0, 0.5), (5.0, 2.0), (0.5, 7.0)]:
        oracle = float(mpmath.re(mpmath.besselk(1j * u, x)))
        assert bessel_k_imag(u, x) == pytest.approx(oracle, rel=1e-9, abs=1e-14)


def test_bessel_k_large_argument_asymptotics():
    asym = math.sqrt(math.pi / 40.0) * math.exp(-20.0)
    assert bessel_k_imag(0.0, 20.0) == pytest.approx(asym, rel=0.05)


def test_bessel_k_even_in_order():
    assert bessel_k_imag(2.0, 1.0) == pytest.approx(bessel_k_imag(-2.0, 1.0), rel=1e-14)


def test_bessel_k_monotone_decreasing_in_argument():
    xs = np.linspace(0.5, 6.0, 12)
    for u in (0.0, 1.5):
        vals = [bessel_k_imag(u, float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_bessel_k_domain_errors():
    with pytest.raises(ValueError):
        bessel_k_imag(1.0, -2.0)
    with pytest.raises(ValueError):
        bessel_k_imag(1.0, 0.0)
    with pytest.raises(ConvergenceError):
        bessel_k_imag(1.0, 1e-14)


def test_bessel_k_grid_matches_scalar():
    us = np.array([0.0, 0.7, 1.9, 4.2])
    got = bessel_k_imag_grid(us, 1.3)
    want = np.array([bessel_k_imag(float(u), 1.3) for u in us])
    assert np.allclose(got, want, rtol=1e-10, atol=1e-15)


def test_bessel_k_grid_against_mpmath_up_to_order_25():
    # absolute accuracy at the rounding level of the envelope mass K_0(x)
    mpmath = pytest.importorskip("mpmath")
    eps = float(np.finfo(float).eps)
    us = np.linspace(0.0, 25.0, 26)
    for x in (math.exp(-2.0), 1.0, math.e):
        got = bessel_k_imag_grid(us, x)
        with mpmath.workdps(30):
            want = np.array([float(mpmath.re(mpmath.besselk(1j * u, x))) for u in us])
        assert np.max(np.abs(got - want)) <= 64.0 * eps * want[0]


def test_bessel_k_grid_names_itself_on_failure(monkeypatch):
    monkeypatch.setattr(numerics, "MIN_NODES", 4)
    monkeypatch.setattr(numerics, "MAX_NODES", 8)
    with pytest.raises(ConvergenceError, match=r"K grid at x=0\.5 did not converge within 8"):
        bessel_k_imag_grid(np.array([0.0, 20.0]), 0.5)
