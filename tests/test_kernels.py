"""Tests for the continuum kernels and the local-limit drivers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motzkinq.ascpoly import QModelParams
from motzkinq import chains, kernels
from motzkinq.chains import _EPS, _chebyshev_entry, _chebyshev_power_coefficients, transition_arrays
from motzkinq.errors import CapacityError, ConvergenceError
from motzkinq.kernels import (
    KernelQuery,
    _chain_point_evolution,
    bessel3d_transition,
    error_table,
    index_map,
    initial_limit_fixed_q,
    initial_limit_q_to_1,
    killed_bm_kernel,
    local_limit_error_fixed_q,
    local_limit_error_q_to_1,
    xi0_density,
    yakubovich_kernel,
    zeta0_density,
    zeta_transition,
)
from motzkinq.qspecial import bessel_k_imag

from oracles import _chebyshev_power, gauss_legendre, iterate_tridiagonal, panel_rule


# ------------------------------------------------------------ killed kernel

def test_killed_bm_kernel_symmetric_point():
    val = killed_bm_kernel(1.0, 1.0, 1.0)
    assert val == pytest.approx((1 - math.exp(-2)) / math.sqrt(2 * math.pi), rel=1e-14)
    assert val == pytest.approx(0.344954, rel=1e-5)


def test_killed_bm_kernel_vanishes_at_origin():
    assert killed_bm_kernel(1.0, 1.0, 1e-12) == pytest.approx(0.0, abs=1e-11)


def test_killed_bm_kernel_loses_mass():
    # int_0^inf q_t(x, y) dy = erf(x / sqrt(2 t)) < 1
    t, x = 1.0, 1.0
    total = gauss_legendre(lambda y: np.vectorize(killed_bm_kernel)(t, x, y), 1e-12, 12.0)
    assert total == pytest.approx(math.erf(x / math.sqrt(2 * t)), abs=1e-9)
    assert total < 1.0


def test_killed_bm_kernel_domain():
    for bad in [(0.0, 1, 1), (1, -1, 1), (1, 1, 0.0)]:
        with pytest.raises(ValueError):
            killed_bm_kernel(*bad)


def test_killed_bm_chapman_kolmogorov():
    s, t, x, y = 0.5, 0.5, 1.0, 1.5
    conv = gauss_legendre(
        lambda z: np.vectorize(killed_bm_kernel)(s, x, z)
        * np.vectorize(killed_bm_kernel)(t, z, y), 1e-12, 14.0)
    assert conv == pytest.approx(killed_bm_kernel(s + t, x, y), abs=1e-6)


# -------------------------------------------------------- Bessel transition

def test_bessel3d_transition_is_honest_density():
    q = KernelQuery(t=1.0, x=1.0, y=1.0, sigma=0.7)
    total = gauss_legendre(
        lambda y: np.array([bessel3d_transition(KernelQuery(t=1.0, x=1.0, y=float(v), sigma=0.7))
                            for v in y]), 1e-9, 14.0)
    assert total == pytest.approx(1.0, abs=1e-8)
    assert bessel3d_transition(q) > 0.0


def test_bessel3d_time_dilation():
    # sigma = 1 halves the clock relative to the undilated kernel
    q1 = KernelQuery(t=1.0, x=1.0, y=1.3, sigma=1.0)
    assert bessel3d_transition(q1) == pytest.approx(
        1.3 / 1.0 * killed_bm_kernel(0.5, 1.0, 1.3), rel=1e-14)


def test_bessel3d_detailed_balance_shape():
    # q_t is symmetric, so x^2 p(x -> y) = y^2 p(y -> x)
    a = bessel3d_transition(KernelQuery(t=0.8, x=1.1, y=0.6))
    b = bessel3d_transition(KernelQuery(t=0.8, x=0.6, y=1.1))
    assert 1.1**2 * a == pytest.approx(0.6**2 * b, rel=1e-12)


def test_xi0_density_properties():
    c = 1.7
    total = gauss_legendre(lambda x: np.array([xi0_density(float(v), c) for v in x]), 0.0, 40.0)
    assert total == pytest.approx(1.0, abs=1e-10)
    xs = np.linspace(0.05, 4.0, 200)
    vals = [xi0_density(float(x), c) for x in xs]
    assert xs[int(np.argmax(vals))] == pytest.approx(1 / c, abs=0.05)
    assert xi0_density(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert xi0_density(-0.3, 1.0) == 0.0


# --------------------------------------------------------- Yakubovich side

def test_yakubovich_symmetry():
    for t, x, y in [(1.0, 0.3, -0.4), (0.125, 1.0, 2.0), (0.125, 0.0, 1.0)]:
        a = yakubovich_kernel(KernelQuery(t=t, x=x, y=y))
        b = yakubovich_kernel(KernelQuery(t=t, x=y, y=x))
        assert a == pytest.approx(b, rel=1e-12)


def test_yakubovich_against_reference_quadrature():
    mpmath = pytest.importorskip("mpmath")
    def oracle(t, x, y):
        f = lambda u: (mpmath.e**(-t * u * u / 2)
                       * mpmath.re(mpmath.besselk(1j * u, mpmath.e**(-x)))
                       * mpmath.re(mpmath.besselk(1j * u, mpmath.e**(-y)))
                       * u * mpmath.sinh(mpmath.pi * u))
        return float(2 / mpmath.pi**2 * mpmath.quad(f, [0, 5, 10, 15]))
    for (t, x, y) in [(0.5, 0.0, 0.0), (1.0, 0.4, -0.3), (2.0, 1.0, 1.0)]:
        mine = yakubovich_kernel(KernelQuery(t=t, x=x, y=y))
        assert mine == pytest.approx(oracle(t, x, y), rel=1e-8)


# mpmath values (dps 40 at t = 0.125 and 0.1, dps 30 below) of p_t(x, y) at
# small time, where sinh(pi u) amplifies the rounding noise of K_{iu}
SMALL_T_ORACLE = [
    (0.125, 1.0, 2.0, 2.058853397345338e-02),
    (0.125, 2.0, 2.0, 1.127033129069237),
    (0.125, -1.0, 1.0, 1.129624484893921e-07),
    (0.125, 0.0, 2.0, 1.249841266894302e-07),
]


@pytest.mark.parametrize("t, x, y, want", SMALL_T_ORACLE)
def test_yakubovich_small_time_against_oracle(t, x, y, want):
    assert yakubovich_kernel(KernelQuery(t=t, x=x, y=y)) == pytest.approx(want, rel=0.0, abs=5e-12)


@pytest.mark.parametrize("t, x, y, want", [
    (0.1, 0.0, 1.0, 8.31291841044003e-03),
    (0.1, 2.0, 2.0, 1.2603722344493842),
    (0.05, 0.0, 1.0, 8.0114750499212498e-05),
    (0.05, 1.0, 1.0, 1.7779968482777882),
    (0.05, 2.0, 2.0, 1.783293625761378),
])
def test_yakubovich_smaller_time_against_oracle(t, x, y, want):
    assert yakubovich_kernel(KernelQuery(t=t, x=x, y=y)) == pytest.approx(want, rel=1e-8)


def test_yakubovich_failure_names_the_u_integral():
    # below t ~ 0.03 the amplified Bessel noise outgrows the u-integral's floor
    with pytest.raises(ConvergenceError, match=r"Yakubovich u-integral at t=0\.02"):
        yakubovich_kernel(KernelQuery(t=0.02, x=0.0, y=0.0))


@pytest.mark.parametrize("t,x,y,val", [(0.05, 1.0, 10.0, "-1.87e-12"),
                                       (0.03, -1.0, 2.0, "-3.18e-11")])
def test_yakubovich_negative_value_past_its_floor_is_a_convergence_error(t, x, y, val):
    with pytest.raises(ConvergenceError, match=rf"Yakubovich kernel at t={t}, x={x}, y={y} is "
                                               rf"{val}, negative past its noise floor"):
        yakubovich_kernel(KernelQuery(t=t, x=x, y=y))


def test_negative_kernel_value_is_named_by_the_local_limit_driver():
    # sigma = 1 halves t = 0.1 to the kernel's 0.05
    with pytest.raises(ConvergenceError, match=r"q-to-1 regime at t=0\.1, x=1\.0, y=10\.0 is "
                                               r"not computed: Yakubovich kernel at t=0\.05"):
        local_limit_error_q_to_1(10_000, 0.1, 1.0, 10.0, 1.0)


@pytest.mark.parametrize("t", [1e-3, 1e-4])
def test_yakubovich_horizon_past_sinh_range_is_named_before_any_warning(t):
    # the u-horizon sqrt(80 / t) passes 226, where sinh(pi u) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=rf"Yakubovich u-integral at t={t}: its horizon"):
            yakubovich_kernel(KernelQuery(t=t, x=0.0, y=0.0))


def test_yakubovich_decays_for_large_time():
    assert yakubovich_kernel(KernelQuery(t=50.0, x=0.0, y=0.0)) < 0.05


def test_yakubovich_accuracy_warning():
    with pytest.warns(RuntimeWarning):
        yakubovich_kernel(KernelQuery(t=1.0, x=20.0, y=0.0))


def test_zeta_transition_integrates_to_one():
    # int [K0(e^-y)/K0(e^-x)] p_{t/(1+sigma)}(x, y) dy = 1
    t, x, sigma = 1.0, 0.0, 1.0
    ys, w = panel_rule(x - 9.0, x + 9.0, 24)
    vals = np.array([zeta_transition(KernelQuery(t=t, x=x, y=float(y), sigma=sigma))
                     for y in ys])
    assert float(np.dot(w, vals)) == pytest.approx(1.0, abs=1e-6)


def test_zeta_chapman_kolmogorov_coarse():
    # nested oscillatory quadrature, so one desk-scale triple at 1e-4;
    # z below -5 is invisible (double-exponential cutoff of K_0(e^-z))
    s, t, x, y, sigma = 0.6, 0.9, 0.2, -0.1, 1.0
    zs, w = panel_rule(-5.0, 6.0, 12)
    inner = np.array([
        zeta_transition(KernelQuery(t=s, x=x, y=float(z), sigma=sigma))
        * zeta_transition(KernelQuery(t=t, x=float(z), y=y, sigma=sigma))
        for z in zs])
    conv = float(np.dot(w, inner))
    direct = zeta_transition(KernelQuery(t=s + t, x=x, y=y, sigma=sigma))
    assert conv == pytest.approx(direct, abs=1e-4)


def test_zeta0_density_normalization_and_special_case():
    # the right tail decays like e^{-c x} (x + log 2 - gamma), so the window
    # must stretch to ~27 for c = 1 to clear 1e-7 (and must stop before
    # e^-x trips the small-argument guard of the Bessel quadrature)
    for c in (1.0, 2.0, 3.2):
        xs, w = panel_rule(-8.0, 27.0, 24)
        vals = np.array([zeta0_density(float(x), c) for x in xs])
        assert float(np.dot(w, vals)) == pytest.approx(1.0, abs=1e-7)
    # c = 2: normalizer 4 / (4 Gamma(1)^2) = 1
    assert zeta0_density(0.3, 2.0) == pytest.approx(
        math.exp(-0.6) * bessel_k_imag(0.0, math.exp(-0.3)), rel=1e-12)


# ---------------------------------------------------------------- index map

def test_index_map_values():
    # floor(z sqrt N) + floor(sqrt N log sqrt(2 N (1+sigma)))
    assert index_map(0.0, 400, 1.0) == math.floor(20 * math.log(40.0))
    assert index_map(1.0, 400, 1.0) == 20 + math.floor(20 * math.log(40.0))
    assert index_map(-1.0, 2500, 1.0) == -50 + math.floor(50 * math.log(100.0))


# ------------------------------------------------------------ local limits

def test_local_limit_fixed_q_converges():
    m = QModelParams(q=0.5, sigma=1.0)
    errs = [local_limit_error_fixed_q(N, 1.0, 1.0, 1.0, m).rel_err
            for N in (400, 2500, 10000)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.05


def test_local_limit_fixed_q_unreachable_level_is_zero():
    m = QModelParams(q=0.5, sigma=1.0)
    # y sqrt(N) beyond reach of floor(N t) steps
    out = local_limit_error_fixed_q(100, 0.05, 1.0, 3.0, m)
    assert out.lhs == 0.0


def _lattice_query(regime: str, N: int, t: float, x: float, y: float):
    """(model, m, n, k, cap) as the two local-limit drivers set them up."""
    rn = math.sqrt(N)
    if regime == "fixed-q":
        model = QModelParams(q=0.5, sigma=0.8)
        m, n = math.floor(x * rn), math.floor(y * rn)
    else:
        model = QModelParams(q=math.exp(-2.0 / rn), sigma=1.0)
        m, n = index_map(x, N, 1.0), index_map(y, N, 1.0)
    k = math.floor(N * t)
    return model, m, n, k, max(m, n) + int(8.0 * math.sqrt(k / (1.0 + model.sigma))) + 64


def _exact_stepping(model, m, k, cap):
    up, flat, down = transition_arrays(model, cap)
    vec = np.zeros(cap + 1)
    vec[m] = 1.0
    return vec, (up, flat, down), iterate_tridiagonal(vec, k, up, flat, down)


_PARITY_POINTS = {"fixed-q": [(1.0, 2.0), (2.0, 1.0), (1.5, 0.5)],
                  "q-to-1": [(-1.0, 1.0), (1.0, -1.0), (0.5, 0.0)]}


@pytest.mark.parametrize("regime", ["fixed-q", "q-to-1"])
@pytest.mark.parametrize("N", [400, 2500, 10_000])
def test_chebyshev_route_matches_exact_stepping(regime, N):
    for x, y in _PARITY_POINTS[regime]:
        model, m, n, k, cap = _lattice_query(regime, N, 1.0, x, y)
        vec, rows, (want, lost) = _exact_stepping(model, m, k, cap)
        got, _ = _chebyshev_power(vec, k, *rows)
        assert got[n] == pytest.approx(want[n], rel=1e-9, abs=0.0)
        assert abs((1.0 - got.sum()) - lost) <= 1e-9
        lattice = _chain_point_evolution(model, m, n, k)
        assert lattice == pytest.approx(want[n], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("regime,N,t,x,y", [("fixed-q", 2500, 0.05, 1.0, 3.0),
                                            ("q-to-1", 2500, 0.1, 1.0, -1.0)])
def test_far_tail_point_falls_back_to_exact_stepping(regime, N, t, x, y):
    # the expansion has no relative accuracy this far out (at (1, 3) its
    # degree does not even reach level n); the guard hands the point to
    # exact stepping
    model, m, n, k, cap = _lattice_query(regime, N, t, x, y)
    _, _, (want, _) = _exact_stepping(model, m, k, cap)
    assert 0.0 < want[n] < 1e-15
    lattice = _chain_point_evolution(model, m, n, k)
    assert lattice == pytest.approx(want[n], rel=1e-9, abs=0.0)


def test_leaking_state_cap_raises_capacity_error(monkeypatch):
    # only the exact-stepping fallback has a state cap, computed once and
    # not regrown, and only where the exact reach max(m, n) + k = 2800 is
    # more than twice it (662): a fallback pass that loses mass past it is
    # reported with the cap, k and the leak
    model, m, n, k, cap = _lattice_query("fixed-q", 2500, 1.0, 1.0, 6.0)
    assert max(m, n) + k > 2 * cap
    real = kernels._power

    def leaky(*args):
        out, log_scale = real(*args)
        out[-1] = 2e-9  # the absorbing state past the cap
        return out, log_scale

    monkeypatch.setattr(kernels, "_power", leaky)
    with pytest.raises(CapacityError, match=rf"state cap {cap} leaks mass 2e-09 > 1e-9 "
                                            rf"in k={k} steps"):
        _chain_point_evolution(model, m, n, k)


@pytest.mark.parametrize("N,t,x,y", [(100, 0.05, 1.0, 3.0), (400, 0.05, 3.0, 0.1)])
def test_level_out_of_reach_is_zero_without_a_table(monkeypatch, N, t, x, y):
    # a climb (10 -> 30) or a drop (60 -> 2) of more than k = floor(N t)
    # levels is 0 before any transition table is built
    def no_table(model, cap):
        raise AssertionError("built a transition table for an unreachable level")

    monkeypatch.setattr(kernels, "transition_arrays", no_table)
    out = local_limit_error_fixed_q(N, t, x, y, QModelParams(q=0.5, sigma=1.0))
    assert out.lhs == 0.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.0, 0.99), sigma=st.floats(0.0, 1.0, exclude_min=True),
       m=st.integers(0, 60), n=st.integers(0, 60), k=st.integers(0, 400))
@example(q=0.5, sigma=0.8, m=7, n=7, k=0)  # d = k = 0
@example(q=0.5, sigma=0.8, m=0, n=1, k=1)  # d = k, odd, the x_1.y_0 term
@example(q=0.3, sigma=1.0, m=4, n=4, k=2)  # d = k, even
@example(q=0.7, sigma=0.4, m=9, n=8, k=3)  # d = k, odd
@example(q=0.5, sigma=0.8, m=20, n=21, k=399)  # odd, both blocks cut at 0 (R = 82)
@example(q=0.5, sigma=0.8, m=60, n=60, k=400)  # even, both blocks cut at 0 (R = 82)
@example(q=0.5, sigma=0.8, m=1, n=59, k=60)  # blocks of radius R = 28 share no state
@example(q=0.99, sigma=1.0, m=0, n=0, k=4)  # the pass is 2e-8 off here; the driver steps
@example(q=0.5, sigma=1e-300, m=3, n=5, k=400)  # lam0 = -1: all of [-1, 1]
def test_chain_point_matches_exact_stepping(q, sigma, m, n, k):
    # the bilinear pass is within (d+1) eps of P^k[m, n] in the
    # pi-symmetrized value; the driver adds 1e-9 relative on top, from the
    # fallback, or raises CapacityError where the fallback cap really leaks
    model = QModelParams(q=q, sigma=sigma)
    top = max(m, n) + k + 1  # exact reach: nothing leaks
    up, flat, down = transition_arrays(model, top)
    vec = np.zeros(top + 1)
    vec[m] = 1.0
    want = iterate_tridiagonal(vec, k, up, flat, down)[0][n]
    lam0 = model.A / model.B
    c = _chebyshev_power_coefficients(k, lam0)
    log_pi = np.concatenate(([0.0], np.cumsum(np.log(up[:top] / down[1:]))))  # log pi_j / pi_0
    bound = len(c) * _EPS * math.exp(0.5 * (log_pi[n] - log_pi[m]))
    assert abs(_chebyshev_entry(m, n, c, lam0, up, flat, down) - want) <= bound
    try:
        lattice = _chain_point_evolution(model, m, n, k)
    except CapacityError:
        cap = max(m, n) + int(8.0 * math.sqrt(k / (1.0 + sigma))) + 64
        _, lost = iterate_tridiagonal(vec[:cap + 1], k, *transition_arrays(model, cap))
        assert lost > 1e-9
        return
    assert lattice == pytest.approx(want, rel=1e-9, abs=bound)


def test_lattice_point_steps_on_the_true_spectrum(monkeypatch):
    # k = 4e4 at sigma = 0.8: the degree d' on [A/B, 1] is about that on
    # [-1, 1] (1658) over sqrt(1.8); at most ceil(d'/2) + 1 in-place steps
    # on a vector of at most 2 (2A + 1) states, A = ceil(d'/2), from one
    # table, and no exact stepping
    model, m, n, k, cap = _lattice_query("fixed-q", 40_000, 1.0, 1.0, 2.0)
    d = len(_chebyshev_power_coefficients(k, model.A / model.B)) - 1
    A = (d + 1) // 2
    sizes, tables = [], []
    real_step, real_table = chains._tridiagonal_step, kernels.transition_arrays

    def step(v, out, rows, work):
        sizes.append(len(v[0]))
        real_step(v, out, rows, work)

    def table(model, cap):
        tables.append(cap)
        return real_table(model, cap)

    def no_stepping(*args):
        raise AssertionError("a bench-size point took exact stepping")

    monkeypatch.setattr(chains, "_tridiagonal_step", step)
    monkeypatch.setattr(kernels, "transition_arrays", table)
    monkeypatch.setattr(kernels, "_power", no_stepping)
    lattice = _chain_point_evolution(model, m, n, k)
    assert d <= 0.8 * 1658 and 0 < len(sizes) <= A + 1
    assert max(sizes) <= 2 * (2 * A + 1)
    assert tables == [max(m, n) + A]
    monkeypatch.undo()
    vec = np.zeros(cap + 1)
    vec[m] = 1.0
    assert lattice == pytest.approx(_chebyshev_power(vec, k, *real_table(model, cap))[0][n],
                                    rel=1e-9, abs=0.0)


def test_cheap_point_steps_exactly_on_its_reach():
    # k (max(m, n) + k + 1) = 20 state-steps, no more than the pass's
    # R 2 (2R + 1) = 20: the driver steps on states 0..k, where nothing
    # leaks, instead of taking the pass (2e-8 off at this point)
    model = QModelParams(q=0.99, sigma=1.0)
    _, _, (want, lost) = _exact_stepping(model, 0, 4, 4)
    assert lost == 0.0
    assert _chain_point_evolution(model, 0, 0, 4) == pytest.approx(want[0], rel=1e-9, abs=0.0)


def test_far_tail_fallback_runs_on_the_exact_reach_within_twice_the_cap():
    # max(m, n) + k = 230 is within twice the diffusive cap 174, which leaks
    # 4.4e-4 of the mass in 200 steps; the fallback steps on the exact reach
    model = QModelParams(q=0.99, sigma=1.0)
    _, _, (want, lost) = _exact_stepping(model, 30, 200, 230)
    assert lost == 0.0 and 6e-94 < want[30] < 7e-94
    assert _chain_point_evolution(model, 30, 30, 200) == pytest.approx(want[30], rel=1e-9,
                                                                        abs=0.0)


@pytest.mark.parametrize("q,sigma,m,n,k,cap", [
    (0.99, 1.0, 0, 0, 4, 4),  # cheap: k steps on the exact reach
    (0.99, 1.0, 30, 30, 200, 230),  # far tail, on the exact reach
    (0.5, 0.8, 50, 300, 2500, 662),  # far tail, on the diffusive cap
])
def test_exact_branches_match_the_leaking_stepper_bitwise(monkeypatch, q, sigma, m, n, k, cap):
    # every exact branch of the lattice point is k steps of _power on the
    # table of states 0..cap plus one absorbing state, which holds the old
    # loop's summed leak past the cap (0 on the exact reach, 2.8e-60 on the
    # cap), bit for bit
    model = QModelParams(q=q, sigma=sigma)
    runs, real = [], kernels._power

    def spy(*args):
        runs.append(real(*args))
        return runs[-1]

    monkeypatch.setattr(kernels, "_power", spy)
    got = _chain_point_evolution(model, m, n, k)
    _, _, (want, lost) = _exact_stepping(model, m, k, cap)
    [(out, log_scale)] = runs
    assert log_scale == 0.0 and len(out) == cap + 2
    assert np.array_equal(out[:-1], want) and out[-1] == lost
    assert (lost > 0.0) == (cap < max(m, n) + k)
    assert got == want[n]


def test_leaking_cap_reports_the_leaking_steppers_loss():
    # the diffusive cap 174 loses 4.4e-4 of the mass in 200 steps from 30
    model = QModelParams(q=0.99, sigma=1.0)
    _, _, (_, lost) = _exact_stepping(model, 30, 200, 174)
    with pytest.raises(CapacityError, match=rf"state cap 174 leaks mass {lost:.3g} > 1e-9"):
        kernels._exact_point(model, 30, 30, 200, 174)


@pytest.mark.parametrize("q,sigma", [(0.5, 0.8), (0.9, 0.3), (0.99, 1.0), (0.3, 0.05)])
def test_chain_spectrum_lies_in_the_scaled_orthogonality_interval(q, sigma):
    # the premise of the pass: P is pi-symmetric, and its symmetrized table
    # on states 0..400 has its eigenvalues in [A/B, 1]
    model = QModelParams(q=q, sigma=sigma)
    up, flat, down = transition_arrays(model, 400)
    off = np.sqrt(up[:-1] * down[1:])
    eig = np.linalg.eigvalsh(np.diag(flat) + np.diag(off, 1) + np.diag(off, -1))
    assert eig.min() >= model.A / model.B - 1e-12
    assert eig.max() <= 1.0 + 1e-12


def test_initial_limit_fixed_q():
    m = QModelParams(q=0.5, sigma=1.0)
    out = initial_limit_fixed_q(10_000, 1.0, 1.0, m)
    assert out.rel_err < 0.03
    assert out.rhs == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_initial_limit_fixed_q_mass_check():
    # (1/sqrt N) sum over the lattice of lhs ~ 1 (Riemann sum of the density)
    m = QModelParams(q=0.4, sigma=0.8)
    N, c = 2500, 1.0
    rn = math.sqrt(N)
    total = 0.0
    for j in range(1, 60 * int(rn)):
        x = j / rn
        total += initial_limit_fixed_q(N, x, c, m).lhs / rn
        if xi0_density(x, c) < 1e-9 and x > 3:
            break
    assert total == pytest.approx(1.0, abs=0.02)


def test_local_limit_q_to_1():
    out = local_limit_error_q_to_1(2500, 1.0, 0.0, 0.0, 1.0)
    assert out.lhs >= 0.0
    assert out.rel_err < 0.10


def test_local_limit_q_to_1_asymmetry_matches_kernel_ratio():
    # rhs(x,y)/rhs(y,x) = K0(e^-y)^2 / K0(e^-x)^2; the lattice side shows
    # the same asymmetry direction at desk scale
    x, y = 0.4, -0.2
    a = local_limit_error_q_to_1(2500, 1.0, x, y, 1.0)
    b = local_limit_error_q_to_1(2500, 1.0, y, x, 1.0)
    want = (bessel_k_imag(0.0, math.exp(-y)) / bessel_k_imag(0.0, math.exp(-x))) ** 2
    assert a.rhs / b.rhs == pytest.approx(want, rel=1e-9)
    assert (a.lhs > b.lhs) == (a.rhs > b.rhs)


def test_initial_limit_q_to_1():
    out = initial_limit_q_to_1(10_000, 0.0, 1.0, 1.0)
    assert out.lhs >= 0.0
    assert out.rel_err < 0.10
    at_c2 = initial_limit_q_to_1(10_000, 0.0, 2.0, 1.0)
    assert at_c2.rhs == pytest.approx(bessel_k_imag(0.0, 1.0), rel=1e-12)
    # away from x = 0 the factor e^{-c x} of the entrance law matters
    for c in (1.0, 2.0):
        for x in (-1.0, 1.0, 2.0):
            out = initial_limit_q_to_1(10_000, x, c, 1.0)
            assert out.rel_err < 0.01, (x, c, out)


@pytest.mark.parametrize("N", [90_000, 250_000])
def test_initial_limit_q_to_1_large_N(N):
    # s_n and the normalizer both leave double range here
    out = initial_limit_q_to_1(N, 0.0, 1.0, 1.0)
    assert math.isfinite(out.lhs)
    assert out.rel_err < 0.01


def test_initial_limit_q_to_1_value_at_desk_N():
    out = initial_limit_q_to_1(10_000, 0.0, 1.0, 1.0)
    assert out.lhs == pytest.approx(0.26822646439816894, rel=1e-12)


@pytest.mark.parametrize("N", [0, -4])
@pytest.mark.parametrize("driver", [
    lambda N: local_limit_error_fixed_q(N, 1.0, 1.0, 1.0, QModelParams(q=0.5, sigma=0.8)),
    lambda N: local_limit_error_q_to_1(N, 1.0, 0.0, 0.0, 1.0),
    lambda N: initial_limit_fixed_q(N, 1.0, 1.0, QModelParams(q=0.5, sigma=0.8)),
    lambda N: initial_limit_q_to_1(N, 0.0, 1.0, 1.0),
], ids=["local-fixed-q", "local-q-to-1", "initial-fixed-q", "initial-q-to-1"])
def test_limit_drivers_reject_N_below_one(driver, N):
    # N = 0 used to print lhs 0, rel_err 1 (fixed q) or divide by zero
    with pytest.raises(ValueError, match=f"N must be positive, got {N}"):
        driver(N)


def test_underflowing_target_names_the_point():
    # the Bessel target at t = 0.001, (x, y) = (1, 3) is exp(-4500) = 0, so
    # no relative error exists; it used to divide by zero in rel_err
    model = QModelParams(q=0.5, sigma=0.8)
    with pytest.raises(OverflowError, match=r"fixed-q regime at t=0\.001, x=1\.0, y=3\.0"):
        local_limit_error_fixed_q(400, 0.001, 1.0, 3.0, model)
    with pytest.raises(OverflowError, match=r"fixed-q initial law at x=800\.0, c=1\.0"):
        initial_limit_fixed_q(400, 800.0, 1.0, model)


def test_far_point_error_names_the_regime_and_the_point():
    # at y = 40 the Bessel argument e^-40 = 4.2e-18 is below the K grid's
    # range; the error names the caller's point, not only that argument
    with pytest.raises(ConvergenceError, match=r"q-to-1 regime at t=1\.0, x=1\.0, y=40\.0"):
        local_limit_error_q_to_1(400, 1.0, 1.0, 40.0, 1.0)


# ------------------------------------------------------- f.d.d. surrogates

def test_fdd_surrogate_bessel_regime():
    # N * P(X_0 = m0, X_k = m1) vs c^2 x0 e^{-c x0} (x1/x0) q_{t/(1+s)}(x0, x1)
    N, t1, c = 2500, 1.0, 1.0
    x0, x1 = 1.0, 1.2
    m = QModelParams(q=0.5, sigma=1.0)
    ini = initial_limit_fixed_q(N, x0, c, m)
    tr = local_limit_error_fixed_q(N, t1, x0, x1, m)
    lattice = ini.lhs * tr.lhs
    target = xi0_density(x0, c) * bessel3d_transition(
        KernelQuery(t=t1, x=x0, y=x1, sigma=m.sigma))
    assert abs(lattice - target) / target < 0.10


def test_fdd_surrogate_bessel_k_regime():
    N, t1, c, sigma = 2500, 1.0, 1.0, 1.0
    x0, x1 = 0.0, 0.3
    ini = initial_limit_q_to_1(N, x0, c, sigma)
    tr = local_limit_error_q_to_1(N, t1, x0, x1, sigma)
    lattice = ini.lhs * tr.lhs
    target = zeta0_density(x0, c) * zeta_transition(
        KernelQuery(t=t1, x=x0, y=x1, sigma=sigma))
    assert abs(lattice - target) / target < 0.15


# ------------------------------------------------------------- error tables

def test_error_table_shapes_and_constant_rhs():
    m = QModelParams(q=0.5, sigma=1.0)
    rows = error_table("fixed-q", [400, 900], 1.0, 1.0, 1.0, model=m)
    assert [r["N"] for r in rows] == [400, 900]
    assert rows[0]["rhs"] == rows[1]["rhs"]
    with pytest.raises(ValueError):
        error_table("nope", [100], 1.0, 1.0, 1.0, model=m)


def test_kernel_query_validation():
    with pytest.raises(ValueError):
        KernelQuery(t=0.0, x=1.0, y=1.0)
    with pytest.raises(ValueError):
        KernelQuery(t=1.0, x=1.0, y=1.0, sigma=1.5)
