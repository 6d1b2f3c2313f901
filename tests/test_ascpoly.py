"""Tests for the Al-Salam-Chihara layer and its Motzkin specialization."""

import cmath
import math
import time

import numpy as np
import pytest

from motzkinq.ascpoly import (
    AscParams,
    QModelParams,
    asc_endpoint_limit_fixed_q,
    asc_endpoint_limit_q_to_1,
    asc_eval,
    index_map,
    log_density_times_sine,
    motzkin_poly_table,
    nu_integrate,
    pi_values,
    s_ratios,
    s_values,
)
from motzkinq.errors import ConvergenceError
from motzkinq.qspecial import (bessel_k_imag, gamma_abs_imag_sq, q_number, qpoch_finite,
                               qpoch_infinite, qpoch_log_abs)

from oracles import asc_at_one, asc_density


def conj_params(q: float, sigma: float) -> AscParams:
    m = QModelParams(q=q, sigma=sigma)
    return m.asc_params()


# --------------------------------------------------------------- recurrence

def test_asc_eval_initial_cases():
    p = conj_params(0.5, 0.7)
    assert asc_eval(0, 0.37, p) == 1.0
    for x in (-0.9, 0.0, 0.4, 1.0):
        assert asc_eval(1, x, p) == pytest.approx(2 * x - p.sum_ab, rel=1e-14)


@pytest.mark.parametrize("q", [0.25, 0.5, 0.9])
def test_asc_eval_quadratic_with_equal_real_parameters(q):
    p = AscParams(q, q, q)
    for x in np.linspace(-1, 1, 9):
        expected = 3 * q**3 + q**2 + q - 1 - 4 * (1 + q) * q * x + 4 * x * x
        assert asc_eval(2, float(x), p) == pytest.approx(expected, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("q", [0.25, 0.5, 0.9])
def test_asc_maximum_counterexample_gap(q):
    # with a = b = q the value at -1 exceeds the value at 1 by exactly 8q(1+q)
    p = AscParams(q, q, q)
    gap = asc_eval(2, -1.0, p) - asc_eval(2, 1.0, p)
    assert gap == pytest.approx(8 * q * (1 + q), rel=1e-12)


def test_asc_eval_order_cap():
    p = conj_params(0.5, 0.7)
    with pytest.raises(OverflowError):
        asc_eval(100_001, 0.3, p)


def test_asc_eval_raises_where_the_value_leaves_double_range():
    # Q_40(1e10) is about (2e10)^40 = 1e412
    p = conj_params(0.5, 0.7)
    with pytest.raises(OverflowError, match=r"Q_40\(10000000000\.0\) overflowed"):
        asc_eval(40, 1e10, p)


def test_asc_eval_bitwise_equal_to_the_rescaled_recurrence():
    # the frozen loop divides by |Q_k| past 1e150; below that both loops
    # take the same floating-point steps
    from oracles import _asc_recurrence
    params = [conj_params(q, sigma) for q in (0.0, 0.3, 0.5, 0.9, 0.99) for sigma in (0.3, 1.0)]
    params += [AscParams(-0.8, 0.35, 0.45), AscParams(0.6, -0.2, 0.9)]
    compared = 0
    for p in params:
        for n in (0, 1, 2, 3, 10, 40, 100, 300):
            for x in (-0.9, 0.1, 0.9999, 1.0):
                value, log_scale = _asc_recurrence(n, x, p)
                if log_scale == 0.0:
                    assert asc_eval(n, x, p) == value, (p, n, x)
                    compared += 1
    assert compared >= 300


# ------------------------------------------------------------ value at x=1

def test_asc_at_one_explicit_sum():
    assert asc_at_one(0, conj_params(0.3, 0.5)) == 1.0
    # a = b = 0 at q = 0.5: the convolution is sum of 1/((q;q)_k (q;q)_{2-k})
    p = AscParams(0.0, 0.0, 0.5)
    qq = [qpoch_finite(0.5, 0.5, k) for k in range(3)]
    oracle = sum(1.0 / (qq[k] * qq[2 - k]) for k in range(3))
    assert asc_at_one(2, p) == pytest.approx(oracle, rel=1e-14)


@pytest.mark.parametrize("q,sigma", [(0.0, 1.0), (0.3, 0.9), (0.6, 0.5), (0.85, 0.2)])
def test_asc_at_one_matches_recurrence(q, sigma):
    p = conj_params(q, sigma)
    for n in range(31):
        via_rec = asc_eval(n, 1.0, p) / qpoch_finite(q, q, n)
        assert asc_at_one(n, p) == pytest.approx(via_rec, rel=1e-10)


def test_asc_at_one_real_parameter_pairs():
    p = AscParams(-0.8, 0.35, 0.45)
    for n in range(25):
        via_rec = asc_eval(n, 1.0, p) / qpoch_finite(0.45, 0.45, n)
        assert asc_at_one(n, p) == pytest.approx(via_rec, rel=1e-10)


# ---------------------------------------------------------------- density

def test_density_reduces_to_semicircle():
    p = AscParams(0.0, 0.0, 0.0)
    for x in (-0.7, 0.0, 0.3, 0.9):
        assert asc_density(x, p) == pytest.approx(2 / math.pi * math.sqrt(1 - x * x), rel=1e-12)


def test_density_domain():
    p = conj_params(0.5, 0.7)
    with pytest.raises(ValueError):
        asc_density(1.0, p)
    with pytest.raises(ValueError):
        asc_density(-1.2, p)


def test_density_normalizes_and_is_orthogonal_for_Q():
    # direct quadrature of the density itself (theta substitution removes
    # the inverse square-root edge factors)
    from oracles import gauss_legendre

    p = conj_params(0.5, 0.7)

    def g_sin(theta):
        return np.array([asc_density(math.cos(t), p) * math.sin(t) for t in theta])

    assert gauss_legendre(g_sin, 1e-9, math.pi - 1e-9) == pytest.approx(1.0, abs=1e-8)

    def q1q2_weighted(theta):
        out = []
        for t in theta:
            x = math.cos(t)
            out.append(asc_eval(1, x, p) * asc_eval(2, x, p) * asc_density(x, p) * math.sin(t))
        return np.array(out)

    assert gauss_legendre(q1q2_weighted, 1e-9, math.pi - 1e-9) == pytest.approx(0.0, abs=1e-8)


def _mp_log_density_times_sine(mpmath, theta, q, sigma):
    """log(g(cos theta) sin theta) from the q-products of the density in
    mpmath, each modulus |(+-q e^{i alpha}; q)_inf|^2 as the real product
    prod_{k>=1} (1 -+ 2 q^k cos(alpha) + q^(2k)) to q^k < 1e-20, a tail
    below 1e-18 relative."""
    theta, q = mpmath.mpf(theta), mpmath.mpf(q)
    phi = mpmath.acos(sigma)
    cosines = [mpmath.cos(2 * theta), -mpmath.cos(theta + phi), -mpmath.cos(theta - phi)]
    mods = [mpmath.mpf(1)] * 3
    qk = q
    while qk > 1e-20:
        mods = [mod * (1 - 2 * qk * c + qk * qk) for mod, c in zip(mods, cosines)]
        qk *= q
    num = mpmath.qp(q, q) * mpmath.qp(q * q, q) * mods[0]
    return mpmath.log(2 / mpmath.pi * mpmath.sin(theta) ** 2 * num / (mods[1] * mods[2]))


@pytest.mark.parametrize("q", [0.0, 0.001, 0.0018, 0.0019, 0.05, 0.3, 0.5, 0.9, 0.97])
@pytest.mark.parametrize("sigma", [0.3, 0.8, 1.0])
def test_log_density_matches_mpmath_q_products(q, sigma):
    # both sides of the self-dual point q = e^(-2 pi) = 0.00187; at
    # theta = pi - phi, theta_2((theta + phi)/2) and the cosine beside it
    # vanish together
    mpmath = pytest.importorskip("mpmath")
    m = QModelParams(q=q, sigma=sigma)
    edge = math.pi - math.acos(sigma)
    thetas = [t for t in [*np.linspace(0.01, math.pi - 0.01, 11), 1e-9, math.pi - 1e-9,
                          edge, edge - 1e-9, edge + 1e-9] if 0.0 < t < math.pi]
    got = log_density_times_sine(np.array(thetas), m)
    with mpmath.workdps(40):
        if q == 0.0:  # the density is (2/pi) sin^2(theta) there
            want = [float(mpmath.log(2 / mpmath.pi * mpmath.sin(t) ** 2)) for t in thetas]
        else:
            want = [float(_mp_log_density_times_sine(mpmath, t, q, sigma)) for t in thetas]
    assert np.max(np.abs(got - np.array(want))) <= 1e-13


@pytest.mark.parametrize("q", [0.0, 0.001, 0.5, 0.9999])
def test_log_density_is_minus_infinity_at_both_ends(q):
    # zero density at theta = 0 and pi, never nan, and no numpy warning
    for sigma in (0.8, 1.0):
        got = log_density_times_sine(np.array([0.0, math.pi]), QModelParams(q=q, sigma=sigma))
        assert np.all(np.isneginf(got))


@pytest.mark.parametrize("M", [1e2, 1e3, 1e4])
@pytest.mark.parametrize("sigma", [0.8, 1.0])
def test_density_edge_has_the_kontorovich_lebedev_shape(M, sigma):
    # at theta = u/M and q = e^(-2/M), log(g(cos theta) sin theta) plus
    # log|Gamma(iu)|^2 is constant in u up to u^2/(2M): over u in [0.25, 4]
    # its spread times M tends to (4^2 - 0.25^2)/2
    us = np.linspace(0.25, 4.0, 16)
    m = QModelParams(q=math.exp(-2.0 / M), sigma=sigma)
    vals = log_density_times_sine(us / M, m) + np.log([gamma_abs_imag_sq(u) for u in us])
    assert abs(np.ptp(vals) * M - (4.0**2 - 0.25**2) / 2.0) < 0.1


@pytest.mark.parametrize("q", [0.99, 0.995, 0.998, 0.999])
@pytest.mark.parametrize("sigma", [0.8, 1.0])
def test_measure_has_mass_one_as_q_approaches_one(q, sigma):
    # the q-product density left double range here from q = 0.997
    start = time.perf_counter()
    total = nu_integrate(lambda x: np.ones_like(x), QModelParams(q=q, sigma=sigma))
    assert time.perf_counter() - start < 1.0
    assert total == pytest.approx(1.0, abs=1e-11)


def test_measure_quadrature_names_itself_past_its_node_cap():
    # at q = 0.9999 the density has a feature of width about eps = 1e-4 at
    # theta = pi - phi: resolving it takes about 28 / eps nodes, past MAX_NODES
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="orthogonality-measure quadrature"):
        nu_integrate(lambda x: np.ones_like(x), QModelParams(q=0.9999, sigma=0.8))
    assert time.perf_counter() - start < 1.0


def test_density_forms_agree():
    # the theta quotient equals g(cos th) sin(th)
    m = QModelParams(q=0.45, sigma=0.85)
    thetas = np.linspace(0.2, math.pi - 0.2, 9)
    direct = np.array([asc_density(math.cos(t), m.asc_params()) * math.sin(t) for t in thetas])
    absorbed = np.exp(log_density_times_sine(thetas, m))
    assert np.allclose(direct, absorbed, rtol=1e-11)


def test_measure_normalization_and_orthogonality():
    m = QModelParams(q=0.5, sigma=0.7)
    total = nu_integrate(lambda x: np.ones_like(x), m)
    assert total == pytest.approx(1.0, abs=1e-8)

    def p1p2(x):
        t = motzkin_poly_table(2, x, m)
        return t[1] * t[2]

    assert nu_integrate(p1p2, m) == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("n", range(9))
def test_squared_norms_match_q_number_reciprocal(n):
    m = QModelParams(q=0.45, sigma=0.8)
    val = nu_integrate(lambda x: motzkin_poly_table(n, x, m)[n] ** 2, m)
    assert val == pytest.approx(1.0 / q_number(n + 1, m.q) if n else 1.0, abs=1e-8)


# ------------------------------------------------------------- s and pi

def test_s_values_at_q_zero():
    m = QModelParams(q=0.0, sigma=0.5)
    got = s_values(12, m)
    assert np.allclose(got, np.arange(1, 14), rtol=1e-14)
    assert got[0] == 1.0


def test_s_value_matches_polynomial_recurrence():
    m = QModelParams(q=0.5, sigma=1.0)
    B = m.B
    s = s_values(8, m)
    for n in (1, 3, 8):
        via_poly = motzkin_poly_table(n, [B], m)[n, 0] * q_number(n + 1, m.q)
        assert s[n] == pytest.approx(via_poly, rel=1e-11)


def test_pi_values_at_q_zero():
    m = QModelParams(q=0.0, sigma=0.4)
    got = pi_values(10, m)
    assert got[0] == 1.0
    assert np.allclose(got, np.arange(1, 12), rtol=1e-14)


def test_pi_tilde_equals_s():
    m = QModelParams(q=0.35, sigma=0.65)
    s, pis = s_values(9, m), pi_values(9, m)
    for n in (0, 2, 9):
        assert s[n] == pytest.approx(pis[n] * q_number(n + 1, m.q) if n else 1.0, rel=1e-12)


@pytest.mark.parametrize("q,sigma", [(0.0, 0.3), (0.2, 1.0), (0.5, 0.7), (0.9, 0.15), (0.98, 0.6)])
def test_pi_positive_up_to_200(q, sigma):
    m = QModelParams(q=q, sigma=sigma)
    assert np.all(pi_values(200, m) > 0.0)


@pytest.mark.parametrize("q,sigma", [(0.2, 1.0), (0.5, 0.7), (0.9, 0.3)])
def test_endpoint_recurrence_identity(q, sigma):
    # up_n pi_{n+1} + flat_n pi_n + down_n pi_{n-1} = B pi_n, the
    # row-stochasticity generator of the boundary chain
    m = QModelParams(q=q, sigma=sigma)
    B = m.B
    pis = np.concatenate([[0.0], pi_values(201, m)])  # pis[k] = pi_{k-1}
    for n in range(201):
        lhs = (q_number(n + 2, q) * pis[n + 2]
               + 2 * sigma * q_number(n + 1, q) * pis[n + 1]
               + q_number(n, q) * pis[n])
        assert lhs == pytest.approx(B * pis[n + 1], rel=1e-10)


# ------------------------------------------------------- ratio recurrence

def _mp_s_ratios(mpmath, nmax, q, sigma):
    """s_(n+1)/s_n for n = 0..nmax from the s-recurrence in 60 digits."""
    with mpmath.workdps(60):
        q, sigma = mpmath.mpf(q), mpmath.mpf(sigma)
        prev, cur, qn = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(1)
        out = []
        for _ in range(nmax + 1):
            qn *= q
            prev, cur = cur, ((2 + 2 * sigma * qn) * cur - (1 - qn) * prev) / (1 - qn)
            out.append(cur / prev)
        return out


@pytest.mark.parametrize("q,sigma,nmax", [(math.exp(-2.0 / 300.0), 0.3, 1000),
                                          (0.998, 1.0, 3000), (0.9999, 0.05, 3000)])
def test_s_ratios_against_mpmath(q, sigma, nmax):
    # the convolution form trips its imaginary-residue guard at the first
    # point and overflows at n = 224 at the second; at the third, 1 - q^2
    # taken as a difference would already be off by 3e-13
    mpmath = pytest.importorskip("mpmath")
    got = s_ratios(nmax, QModelParams(q=q, sigma=sigma))
    want = _mp_s_ratios(mpmath, nmax, q, sigma)
    worst = max(abs(float(g / w - 1)) for g, w in zip(got, want))
    assert worst <= 1e-13


def test_s_ratios_agree_with_convolution():
    m = QModelParams(q=math.exp(-0.02), sigma=0.6)
    conv = np.array([asc_at_one(n, m.asc_params()) for n in range(2002)])
    r = s_ratios(2000, m)
    assert np.max(np.abs(r / (conv[1:] / conv[:-1]) - 1.0)) <= 1e-13
    assert np.max(np.abs(s_values(2001, m) / conv - 1.0)) <= 1e-10


# ------------------------------------------------------ polynomial relations

def test_motzkin_poly_first_orders():
    m = QModelParams(q=0.6, sigma=0.8)
    assert motzkin_poly_table(0, [2.2], m)[0, 0] == 1.0
    for x in (-1.0, 0.5, 4.0):
        assert motzkin_poly_table(1, [x], m)[1, 0] == pytest.approx(
            (x - 2 * m.sigma) / q_number(2, m.q), rel=1e-14)


def test_motzkin_poly_at_right_endpoint_is_pi():
    m = QModelParams(q=0.5, sigma=1.0)
    B = m.B
    assert motzkin_poly_table(5, [B], m)[5, 0] == pytest.approx(pi_values(5, m)[5], rel=1e-10)


@pytest.mark.parametrize("q,sigma", [(0.3, 0.9), (0.7, 0.4)])
def test_conjugation_between_p_and_Q(q, sigma):
    # p_n(2 (x + sigma)/(1-q)) = Q_n(x) / ([n+1]_q (q;q)_n)
    m = QModelParams(q=q, sigma=sigma)
    p = m.asc_params()
    for n in (1, 4, 9):
        for x in np.linspace(-0.95, 0.95, 7):
            y = 2 * (x + sigma) / (1 - q)
            lhs = motzkin_poly_table(n, [float(y)], m)[n, 0]
            rhs = asc_eval(n, float(x), p) / (q_number(n + 1, q) * qpoch_finite(q, q, n))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_motzkin_poly_table_matches_scalar():
    from oracles import motzkin_poly_eval_scalar
    m = QModelParams(q=0.4, sigma=0.6)
    xs = np.linspace(-2.0, 5.0, 11)
    table = motzkin_poly_table(6, xs, m)
    for n in range(7):
        for j, x in enumerate(xs):
            assert table[n, j] == pytest.approx(motzkin_poly_eval_scalar(n, float(x), m), rel=1e-12)
            assert motzkin_poly_table(n, [float(x)], m)[n, 0] == table[n, j]


def test_motzkin_poly_table_bitwise_equal_to_scalar_recurrence():
    from oracles import motzkin_poly_eval_scalar
    m = QModelParams(q=0.99, sigma=1.0)
    xs = np.linspace(m.A, m.B, 7)
    table = motzkin_poly_table(300, xs, m)
    for n in (0, 1, 17, 150, 300):
        assert [motzkin_poly_eval_scalar(n, float(x), m) for x in xs] == table[n].tolist()


def test_motzkin_poly_table_overflow_names_first_order_and_x():
    # beyond the support (B = 400 here) p_n(x) grows geometrically and
    # leaves double range, the sooner the larger x; inside it the table
    # stays finite
    from oracles import motzkin_poly_eval_scalar
    m = QModelParams(q=0.99, sigma=1.0)

    def first_overflow(x):
        return next(n for n in range(1000) if not math.isfinite(motzkin_poly_eval_scalar(n, x, m)))

    n800, n1600 = first_overflow(800.0), first_overflow(1600.0)
    assert n1600 < n800
    xs = np.array([0.0, 800.0, 1600.0])
    with pytest.raises(OverflowError, match=rf"^p_{n1600}\(1600\.0\) overflowed"):
        motzkin_poly_table(n800 + 5, xs, m)
    with pytest.raises(OverflowError, match=rf"^p_{n800}\(800\.0\) overflowed"):
        motzkin_poly_table(n800, [800.0], m)
    assert np.all(np.isfinite(motzkin_poly_table(n1600 - 1, xs, m)))


# -------------------------------------------------------------- max bounds

def test_maximum_bound_for_conjugate_pairs():
    rng = np.random.default_rng(3)
    xs = np.linspace(-1.0, 1.0, 200)
    for _ in range(25):
        q = rng.uniform(0.0, 0.95)
        r = rng.uniform(0.0, 0.999)
        alpha = rng.uniform(-math.pi / 2, math.pi / 2)
        a = -r * cmath.exp(1j * alpha)
        p = AscParams(a, a.conjugate(), q)
        at_one = [asc_eval(n, 1.0, p) for n in range(61)]
        for n in (5, 23, 60):
            vals = [asc_eval(n, float(x), p) for x in xs]
            assert max(abs(v) for v in vals) <= at_one[n] + 1e-10


def test_linear_growth_bound_with_explicit_constant():
    # |Q_n(x)| <= (n+1) (-|a|, -|b|; q)_n / (q; q)_n on [-1, 1]
    for q, sigma in [(0.3, 0.8), (0.7, 0.5)]:
        p = conj_params(q, sigma)
        aa, bb = abs(complex(p.a)), abs(complex(p.b))
        for n in (3, 10, 35):
            bound = (n + 1) * qpoch_finite(-aa, q, n) * qpoch_finite(-bb, q, n) \
                / qpoch_finite(q, q, n) ** 2
            worst = max(abs(asc_eval(n, float(x), p)) for x in np.linspace(-1, 1, 101))
            assert worst <= bound * (1 + 1e-12)


def test_generating_function_partial_sums():
    # sum_n Q_n(cos theta) t^n / (q;q)_n = (at, bt; q)_inf / (e^{i th} t, e^{-i th} t; q)_inf
    q, sigma = 0.5, 0.8
    p = conj_params(q, sigma)
    a, b = complex(p.a), complex(p.b)
    for theta in (0.4, 1.1, 2.6):
        for t in (0.3, -0.3, 0.3j):
            total = 0.0j
            for n in range(140):
                total += asc_eval(n, math.cos(theta), p) * t**n / qpoch_finite(q, q, n)
            eit = cmath.exp(1j * theta)
            rhs = (qpoch_infinite(a * t, q) * qpoch_infinite(b * t, q)
                   / (qpoch_infinite(eit * t, q) * qpoch_infinite(t / eit, q)))
            assert abs(total - rhs) <= 1e-8 * max(1.0, abs(rhs))


# --------------------------------------------------------- endpoint limits

def test_endpoint_limit_fixed_q_u_zero_target():
    q, sigma = 0.5, 0.8
    p = conj_params(q, sigma)
    target = (qpoch_infinite(complex(p.a), q) * qpoch_infinite(complex(p.b), q)).real \
        / qpoch_infinite(q, q)
    errs = [abs(asc_endpoint_limit_fixed_q(M, 0.0, p) - target) for M in (100, 200, 400)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.02 * abs(target)


def test_endpoint_limit_fixed_q_decay_at_pi():
    # the limit vanishes at u = pi; finite-M values decay like 1/M
    p = conj_params(0.5, 0.8)
    vals = [abs(asc_endpoint_limit_fixed_q(M, math.pi, p)) for M in (100, 200, 400, 800)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.15 * vals[0]


def test_endpoint_limit_fixed_q_generic_u():
    q, sigma, u = 0.5, 0.8, 1.0
    p = conj_params(q, sigma)
    target = math.sin(u) / u * (qpoch_infinite(complex(p.a), q)
                                * qpoch_infinite(complex(p.b), q)).real / qpoch_infinite(q, q)
    e100 = abs(asc_endpoint_limit_fixed_q(100, u, p) - target)
    e400 = abs(asc_endpoint_limit_fixed_q(400, u, p) - target)
    assert e400 < e100


def test_endpoint_limit_q_to_1_approaches_bessel():
    target = bessel_k_imag(0.0, 1.0)
    errs = [abs(asc_endpoint_limit_q_to_1(M, 0.0, 0.0, 1.0) - target) for M in (25, 100, 400)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.01 * target


def test_endpoint_limit_q_to_1_frozen_oracle_values():
    # frozen from a 60-digit evaluation of the same finite-M expression
    assert asc_endpoint_limit_q_to_1(25, 0.0, 0.0, 1.0) == pytest.approx(
        0.425684428903, rel=1e-10)
    assert asc_endpoint_limit_q_to_1(50, 1.0, 0.5, 1.0) == pytest.approx(
        0.446087135442, rel=1e-10)
    assert asc_endpoint_limit_q_to_1(40, 0.0, -0.5, 0.6) == pytest.approx(
        0.178233170803, rel=1e-10)


def test_endpoint_limit_q_to_1_even_in_u():
    v1 = asc_endpoint_limit_q_to_1(80, 1.3, 0.2, 0.9)
    v2 = asc_endpoint_limit_q_to_1(80, -1.3, 0.2, 0.9)
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_endpoint_limit_q_to_1_negative_index_error():
    with pytest.raises(ValueError):
        asc_endpoint_limit_q_to_1(10, 0.0, -50.0, 1.0)


def _mp_endpoint_limit_q_to_1(mpmath, M, u, x, sigma):
    """(q;q)_inf^2 / (M (a, b; q)_inf) Q_m(cos(u/M)) / (q;q)_m in 40 digits
    at the double q = exp(-2/M) and cos(u/M) of the package: Q_m by its own
    recurrence (a + b = -2 sigma q, ab = q^2), each q-product factor by
    factor, the infinite ones to q^k < 1e-45 (mpmath.qp does not converge
    at M = 1000)."""
    m = index_map(x, M * M, sigma)
    with mpmath.workdps(40):
        q, s = mpmath.mpf(math.exp(-2.0 / M)), mpmath.mpf(sigma)
        y = mpmath.mpf(math.cos(u / M))
        prev, cur, qk, qq_m = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(1)
        for _ in range(m):
            prev, cur = cur, (2 * y + 2 * s * q * qk) * cur - (1 - qk) * (1 - q * qk) * prev
            qk *= q
            qq_m *= 1 - qk
        qq_inf, ab_inf, qk = mpmath.mpf(1), mpmath.mpf(1), q
        while qk > mpmath.mpf(10) ** -45:
            qq_inf *= 1 - qk
            ab_inf *= 1 + 2 * s * qk + qk * qk  # (1 - a q^(k-1)) (1 - b q^(k-1))
            qk *= q
        return float(qq_inf**2 / (M * ab_inf) * cur / qq_m)


@pytest.mark.parametrize("u,x,sigma", [(2.0, 1.0, 0.3), (0.0, -0.5, 0.6)])
def test_endpoint_limit_q_to_1_against_mpmath_at_M_400(u, x, sigma):
    # about 3000 levels, far past the M <= 50 of the frozen values above
    mpmath = pytest.importorskip("mpmath")
    want = _mp_endpoint_limit_q_to_1(mpmath, 400, u, x, sigma)
    assert asc_endpoint_limit_q_to_1(400, u, x, sigma) == pytest.approx(want, rel=1e-10)


def test_endpoint_limit_q_to_1_matches_the_rescaled_route():
    # the former route: sign and log |Q_m| of the rescaled scalar loop, over
    # (q;q)_m as its own product; the ratio-scaled S-rows differ from it only
    # by rounding, which grows with the level count
    from oracles import _asc_recurrence
    for M in (25, 50, 100, 200, 400, 1000, 3000, 9000):
        for u, x, sigma in [(0.0, 0.0, 1.0), (1.0, 0.5, 1.0), (0.0, -0.5, 0.6), (2.0, 1.0, 0.3)]:
            model = QModelParams(math.exp(-2.0 / M), sigma)
            q, m = model.q, index_map(x, M * M, sigma)
            value, log_scale = _asc_recurrence(m, math.cos(u / M), model.asc_params())
            log_rest = (2.0 * qpoch_log_abs(q, q) - math.log(M) - qpoch_log_abs(model.asc_a, q)
                        - qpoch_log_abs(model.asc_b, q) - qpoch_log_abs(q, q, m))
            want = math.copysign(math.exp(log_rest + log_scale + math.log(abs(value))), value)
            got = asc_endpoint_limit_q_to_1(M, u, x, sigma)
            assert got == pytest.approx(want, rel=2e-9 if M == 9000 else 2e-10), (M, u, x, sigma)


def test_endpoint_limit_q_to_1_order_cap():
    # m = index_map(1, 10^8, 1) = 109034 levels, past RECURRENCE_CAP
    with pytest.raises(OverflowError, match=r"^recurrence order 109034 exceeds cap 100000$"):
        asc_endpoint_limit_q_to_1(10_000, 2.0, 1.0, 1.0)


# ------------------------------------------------------------------- types

def test_support_interval_values():
    m = QModelParams(q=0.5, sigma=0.7)
    assert m.A == pytest.approx(-2 * 0.3 / 0.5)
    assert m.B == pytest.approx(2 * 1.7 / 0.5)
    assert m.B > abs(m.A)


def test_parameter_validation():
    with pytest.raises(ValueError):
        QModelParams(q=1.0, sigma=0.5)
    with pytest.raises(ValueError):
        QModelParams(q=0.5, sigma=0.0)
    with pytest.raises(ValueError):
        QModelParams(q=0.5, sigma=0.5, rho0=1.0)
    with pytest.raises(ValueError):
        AscParams(0.5 + 0.2j, 0.5 + 0.2j, 0.5)  # not conjugate, not real
    with pytest.raises(ValueError):
        AscParams(2.0, 0.6, 0.5)  # |ab| >= 1


def test_qmodel_asc_parameters_solve_symmetric_system():
    m = QModelParams(q=0.6, sigma=0.3)
    a, b = m.asc_a, m.asc_b
    assert (a + b).real == pytest.approx(-2 * m.sigma * m.q, rel=1e-14)
    assert (a * b).real == pytest.approx(m.q**2, rel=1e-14)
    assert abs((a + b).imag) < 1e-14 and abs((a * b).imag) < 1e-14
