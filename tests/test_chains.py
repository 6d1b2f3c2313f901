"""Tests for the boundary birth-death chains."""

import math
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkinq.ascpoly import QModelParams, pi_values, q_number, s_values
from motzkinq.chains import (
    _chebyshev_power_coefficients,
    Distribution,
    chain_head_law,
    endpoint_pair_correlation,
    finite_path_head_law,
    initial_law,
    kstep_distribution,
    kstep_transition_integral,
    simulate_chain,
    transition_arrays,
    transition_row,
    tv_distance,
)
from motzkinq import chains, motzkin
from motzkinq.errors import CapacityError
from motzkinq.motzkin import WeightModel, matrix_ansatz_expectation

import oracles
from oracles import (_chebyshev_power, chain_head_law_walk, chebyshev_entry_three_buffers,
                     chebyshev_rows_full_width, endpoint_pair_correlation_per_start,
                     finite_path_head_law_walk, iterate_tridiagonal, simulate_chain_numpy_loop)


# ------------------------------------------------------------- transitions

def test_transition_row_at_zero_q_zero():
    m = QModelParams(q=0.0, sigma=0.5)
    row = transition_row(0, m)
    assert row.offset == 0
    assert row.probs[1] == pytest.approx(1 / 1.5, rel=1e-14)       # up
    assert row.probs[0] == pytest.approx(0.5 / 1.5, rel=1e-14)     # flat
    assert row.total() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("q", [0.0, 0.2, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("sigma", [0.1, 0.3, 0.5, 0.8, 1.0])
def test_rows_sum_to_one(q, sigma):
    m = QModelParams(q=q, sigma=sigma)
    up, flat, down = transition_arrays(m, 500)
    assert np.max(np.abs(up + flat + down - 1.0)) < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.9, 0.9999), sigma=st.floats(0.0, 1.0, exclude_min=True),
       cap=st.integers(0, 3000))
def test_rows_finite_and_stochastic_near_q_one(q, sigma, cap):
    up, flat, down = transition_arrays(QModelParams(q=q, sigma=sigma), cap)
    assert np.all(np.isfinite(up)) and np.all(np.isfinite(down))
    assert np.all(up[1:] > 0.0) and np.all(down[1:] > 0.0)
    assert np.max(np.abs(up + flat + down - 1.0)) <= 1e-14


def test_transition_matches_general_endpoint_form():
    # the ratio rows coincide with up_n pi_{n+1} / (B pi_n) etc.
    m = QModelParams(q=0.55, sigma=0.7)
    wm = WeightModel.from_qmodel(m)
    B = m.B
    pis = pi_values(60, m)
    up, flat, down = transition_arrays(m, 59)
    for n in (0, 1, 5, 17, 40):
        assert up[n] == pytest.approx(wm.up(n) * pis[n + 1] / (B * pis[n]), rel=1e-12)
        assert flat[n] == pytest.approx(wm.flat(n) / B, rel=1e-12)
        want_down = wm.down(n) * pis[n - 1] / (B * pis[n]) if n else 0.0
        assert down[n] == pytest.approx(want_down, rel=1e-12)


def test_head_and_tail_chains_share_rows():
    # the reversed-endpoint chain built from the renormalized values
    # pi~_n = [n+1]_q pi_n has identical one-step probabilities
    m = QModelParams(q=0.4, sigma=0.9)
    wm = WeightModel.from_qmodel(m)
    B = m.B
    s = s_values(50, m)  # pi~ = s
    up, flat, down = transition_arrays(m, 49)
    for n in (0, 1, 4, 20):
        upY = wm.down(n + 1) * s[n + 1] / (B * s[n])
        flatY = wm.flat(n) / B
        downY = (wm.up(n - 1) * s[n - 1] / (B * s[n])) if n else 0.0
        assert upY == pytest.approx(up[n], rel=1e-12)
        assert flatY == pytest.approx(flat[n], rel=1e-12)
        assert downY == pytest.approx(down[n], rel=1e-12)


# ------------------------------------------------------------- initial law

def test_initial_law_point_mass_when_rho_zero():
    m = QModelParams(q=0.3, sigma=0.5, rho0=0.0)
    law = initial_law("X", m)
    assert law.offset == 0 and len(law.probs) == 1 and law.probs[0] == 1.0


def test_initial_law_q_zero_geometric_times_linear():
    rho = 0.35
    m = QModelParams(q=0.0, sigma=0.5, rho0=rho)
    law = initial_law("X", m)
    for n in (0, 1, 2, 7, 20):
        assert law.prob(n) == pytest.approx((1 - rho) ** 2 * rho**n * (n + 1), rel=1e-10)
    assert law.total() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("which,rho", [("X", 0.45), ("Y", 0.6)])
def test_initial_law_normalizer_closed_form(which, rho):
    m = QModelParams(q=0.5, sigma=0.7, rho0=0.45, rho1=0.6)
    law = initial_law(which, m)
    # direct summation oracle of rho^n s_n against the product normalizer
    s = s_values(len(law.probs) + 600, m)
    direct = float(np.sum(np.power(rho, np.arange(len(s))) * s))
    from motzkinq.qspecial import qpoch_infinite
    closed = (qpoch_infinite(m.asc_a * rho, m.q) * qpoch_infinite(m.asc_b * rho, m.q)).real \
        / qpoch_infinite(rho, m.q) ** 2
    assert direct == pytest.approx(closed, rel=1e-9)
    assert law.total() == pytest.approx(1.0, abs=1e-9)


def test_transition_arrays_finite_where_s_values_overflow():
    # at q = e^{-2/300} the s-values leave double range at n = 928; the rows
    # need only their ratios and stay finite and stochastic past that level
    m = QModelParams(q=math.exp(-2.0 / 300.0), sigma=1.0)
    up, flat, down = transition_arrays(m, 1000)
    assert np.all(np.isfinite(up)) and np.all(np.isfinite(down))
    assert np.max(np.abs(up + flat + down - 1.0)) <= 1e-14
    with pytest.raises(OverflowError, match="n=928"):
        s_values(1000, m)
    assert np.all(np.isfinite(s_values(927, m)))


def test_initial_law_normalized_where_s_values_overflow():
    # q -> 1 scaling at N = 9e4: s_n leaves double range at n = 928 and the
    # mode of the law is at n = 2074
    m = QModelParams(q=math.exp(-2.0 / 300.0), sigma=1.0, rho0=math.exp(-1.0 / 300.0))
    law = initial_law("X", m)
    assert np.all(np.isfinite(law.probs))
    assert law.total() == pytest.approx(1.0, abs=1e-9)
    assert 928 < int(np.argmax(law.probs)) < len(law.probs) - 1


# ------------------------------------------------------------ k-step laws

def test_kstep_identity_and_single_step():
    m = QModelParams(q=0.35, sigma=0.8)
    start = Distribution.point_mass(3)
    out0 = kstep_distribution(start, 0, m)
    assert out0.prob(3) == 1.0
    out1 = kstep_distribution(start, 1, m)
    row = transition_row(3, m)
    for n in (2, 3, 4):
        assert out1.prob(n) == pytest.approx(row.prob(n), rel=1e-14)


def test_kstep_matches_trajectory_enumeration():
    m = QModelParams(q=0.45, sigma=0.6)
    k, start = 6, 2
    got = kstep_distribution(Distribution.point_mass(start), k, m)
    # oracle: sum over all 3^k step sequences of products of row entries
    probs: dict[int, float] = {}

    def walk(h, p, steps):
        if steps == 0:
            probs[h] = probs.get(h, 0.0) + p
            return
        row = transition_row(h, m)
        for nh, pr in row.rows():
            if pr > 0:
                walk(nh, p * pr, steps - 1)

    walk(start, 1.0, k)
    for n, p in probs.items():
        assert got.prob(n) == pytest.approx(p, rel=1e-12)
    assert got.total() == pytest.approx(1.0, abs=1e-9)


def test_kstep_runs_on_the_exact_reach():
    # states 0..max support + k, bit-equal to stepping on a larger cap
    m = QModelParams(q=0.3, sigma=0.5, rho0=0.4)
    for start, k in [(Distribution.point_mass(4), 10), (initial_law("X", m), 25)]:
        top = start.offset + len(start.probs) - 1
        got = kstep_distribution(start, k, m)
        assert len(got.probs) == top + k + 1
        cap = top + k + 40
        vec = np.zeros(cap + 1)
        vec[start.offset: top + 1] = start.probs
        want, lost = iterate_tridiagonal(vec, k, *transition_arrays(m, cap))
        assert lost == 0.0
        assert np.array_equal(got.probs, want[:top + k + 1])
        assert not want[top + k + 1:].any()


@pytest.mark.parametrize("k,mm,nn", [(0, 1, 1), (0, 1, 2), (5, 1, 2), (12, 0, 3), (20, 2, 2)])
def test_kstep_integral_route_agrees_with_iteration(k, mm, nn):
    m = QModelParams(q=0.3, sigma=0.7)
    via_int = kstep_transition_integral(mm, nn, k, m)
    via_iter = kstep_distribution(Distribution.point_mass(mm), k, m).prob(nn)
    if k == 0:
        assert via_int == pytest.approx(1.0 if mm == nn else 0.0, abs=1e-8)
    assert via_int == pytest.approx(via_iter, rel=1e-7, abs=1e-10)


# ------------------------------------------------- Chebyshev power of P

_EPS = float(np.finfo(float).eps)
# the left end lam0 = A/B of the chain's spectrum at sigma = 0.8 and 1, and -1
# (all of [-1, 1], where (b + a y)^k is y^k)
_SPECTRA = [-1.0] + [m.A / m.B for m in (QModelParams(q=0.5, sigma=0.8),
                                          QModelParams(q=0.5, sigma=1.0))]


def _exact_chebyshev_coefficient(mpmath, k, j):
    c = mpmath.binomial(k, (k - j) // 2) * mpmath.mpf(2) ** (1 - k)
    return c / 2 if j == 0 else c


@pytest.mark.parametrize("k", [1, 2, 3, 125, 2500, 40000])
def test_chebyshev_coefficients_match_exact_binomials(k):
    # on [-1, 1] the coefficients of y^k are 2^(1-k) C(k, (k-j)/2) for
    # j = k (mod 2), c_0 halved, and 0 for the other parity; the cosine
    # transform has them to an absolute rounding level, and the terms it
    # drops past d sum to at most eps/2
    mpmath = pytest.importorskip("mpmath")
    c = _chebyshev_power_coefficients(k, -1.0)
    d = len(c) - 1
    with mpmath.workdps(30):
        kept = mpmath.mpf(0)
        for j in range(d + 1):
            exact = 0 if (k - j) % 2 else _exact_chebyshev_coefficient(mpmath, k, j)
            kept += exact
            assert abs(float(mpmath.mpf(c[j]) - exact)) <= 1e-15, j
        assert float(1 - kept) <= 0.5 * _EPS


def _double_sum_coefficient(mpmath, k, lam0, j):
    """c_j of (b + a y)^k = sum_i C(k, i) b^(k-i) a^i y^i, with y^i =
    sum_j 2^(1-i) C(i, (i-j)/2) T_j(y) (c_0 halved)."""
    a = (1 - mpmath.mpf(lam0)) / 2
    b = 1 - a
    total = mpmath.mpf(0)
    for i in range(j, k + 1, 2):
        total += (mpmath.binomial(k, i) * b ** (k - i) * a ** i
                  * mpmath.binomial(i, (i - j) // 2) * mpmath.mpf(2) ** (1 - i))
    return total / 2 if j == 0 else total


@pytest.mark.parametrize("k", [1, 2, 3, 7, 50, 120])
@pytest.mark.parametrize("sigma", [0.05, 0.3, 0.8, 1.0])
def test_chebyshev_coefficients_match_double_sum(sigma, k):
    mpmath = pytest.importorskip("mpmath")
    model = QModelParams(q=0.5, sigma=sigma)
    lam0 = model.A / model.B
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = _chebyshev_power_coefficients(k, lam0)
    with mpmath.workdps(50):
        exact = [_double_sum_coefficient(mpmath, k, lam0, j) for j in range(k + 1)]
        for j in range(len(c)):
            assert abs(float(mpmath.mpf(c[j]) - exact[j])) <= 1e-15, j
        assert float(mpmath.fsum(exact[len(c):])) <= 0.5 * _EPS


def test_chebyshev_coefficients_at_sigma_one_match_closed_form():
    # at sigma = 1, ((1 + cos t) / 2)^k = cos(t/2)^(2k), so
    # c_j = 2 C(2k, k - j) / 4^k (c_0 halved); the power taken as
    # exp(k log1p(-2a sin^2(t/2))) keeps each c_j within 1e-16, where the
    # plain power carries k eps of relative error
    mpmath = pytest.importorskip("mpmath")
    k = 40_000
    model = QModelParams(q=0.5, sigma=1.0)
    c = _chebyshev_power_coefficients(k, model.A / model.B)
    with mpmath.workdps(40):
        binom = mpmath.binomial(2 * k, k) / mpmath.mpf(4) ** k  # C(2k, k - j) / 4^k
        for j in range(len(c)):
            exact = binom if j == 0 else 2 * binom
            assert abs(float(mpmath.mpf(c[j]) - exact)) <= 1e-16, j
            binom = binom * (k - j) / (k + j + 1)


@pytest.mark.parametrize("k", [1, 2, 3, 125, 2500, 40000])
def test_chebyshev_series_reproduces_power_on_interval(k):
    # sum_j c_j T_j((x - b) / a) is within 1e-14 of x^k on [lam0, 1]
    mpmath = pytest.importorskip("mpmath")
    ys = list(np.linspace(-1.0, 1.0, 41)) + [-1.0 + 1e-4, 1.0 - 1e-4, 1.0 - 1e-3 / k]
    for lam0 in _SPECTRA:
        c = _chebyshev_power_coefficients(k, lam0)
        with mpmath.workdps(30):
            a = (1 - mpmath.mpf(lam0)) / 2
            for y in ys:
                y = mpmath.mpf(float(y))
                t_prev, t_cur = mpmath.mpf(1), y  # T_0(y), T_1(y)
                total = c[0] * t_prev + (c[1] * t_cur if len(c) > 1 else 0)
                for j in range(2, len(c)):
                    t_prev, t_cur = t_cur, 2 * y * t_cur - t_prev
                    total += c[j] * t_cur
                assert abs(float(total - (1 - a + a * y) ** k)) <= 1e-14, (lam0, y)


@pytest.mark.parametrize("k", [1, 2, 3, 125, 2500, 40000])
def test_chebyshev_degree(k):
    # the degree of x^k on an interval grows as sqrt(k width): on the
    # chain's spectrum [lam0, 1] it is that on [-1, 1] over sqrt(1 + sigma)
    full = len(_chebyshev_power_coefficients(k, -1.0)) - 1
    for sigma in (0.05, 0.3, 0.8, 1.0):
        d = len(_chebyshev_power_coefficients(k, (sigma - 1.0) / (sigma + 1.0))) - 1
        if k <= 3:
            assert d == full == k  # exact expansion
        else:
            assert d < k
            assert full <= math.sqrt(2.0 * k * math.log(4.0 / _EPS)) + 2
            assert d * math.sqrt(1.0 + sigma) <= 1.03 * full


def test_chebyshev_power_matches_stepping_with_leaking_cap():
    # a cap well inside the reach of k steps: the mass deficit of the
    # expansion is the top-cap flux summed by exact stepping
    m = QModelParams(q=0.5, sigma=0.8)
    up, flat, down = transition_arrays(m, 60)
    vec = np.zeros(61)
    vec[30] = 1.0
    want, lost = iterate_tridiagonal(vec, 900, up, flat, down)
    got, d = _chebyshev_power(vec, 900, up, flat, down)
    assert d < 900
    assert lost > 1e-3
    assert 1.0 - got.sum() == pytest.approx(lost, rel=1e-9, abs=0.0)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-15)


# ------------------------------------------------- blocked bilinear pass

def _entry_against_oracle(model, k, m, n):
    """(blocked pass, three-buffer oracle, pi-symmetrized (d+1) eps bound)
    for e_m P^k e_n."""
    lam0 = model.A / model.B
    c = _chebyshev_power_coefficients(k, lam0)
    tables = transition_arrays(model, max(m, n) + len(c) // 2)
    up, _, down = tables
    log_pi = np.concatenate(([0.0], np.cumsum(np.log(up[:-1] / down[1:]))))  # log pi_j / pi_0
    bound = len(c) * _EPS * math.exp(0.5 * (log_pi[n] - log_pi[m]))
    return (chains._chebyshev_entry(m, n, c, lam0, *tables),
            chebyshev_entry_three_buffers(m, n, c, lam0, *tables), bound)


def test_blocked_entry_matches_three_buffer_oracle_on_a_seeded_sweep():
    # only the summation order of the moments changed
    rng = np.random.default_rng(2024)
    for _ in range(150):
        q = float(rng.choice([0.0, 0.3, 0.5, 0.9, 0.99, 0.999]))
        sigma = float(rng.choice([0.05, 0.5, 0.8, 1.0]))
        k, m = int(rng.integers(0, 3001)), int(rng.integers(0, 301))
        n = max(0, m + int(rng.integers(-200, 201)))
        got, want, bound = _entry_against_oracle(QModelParams(q=q, sigma=sigma), k, m, n)
        assert abs(got - want) <= bound, (q, sigma, k, m, n)


def _k_with_half_degree(R, lam0):
    """The least k whose expansion has len(c) // 2 = R steps."""
    return next(k for k in range(1, 100 * R * R)
                if len(_chebyshev_power_coefficients(k, lam0)) // 2 == R)


@pytest.mark.parametrize("R", [5, chains._RING - 1, chains._RING, chains._RING + 1,
                               2 * chains._RING - 1, 2 * chains._RING, 2 * chains._RING + 1])
def test_blocked_entry_at_block_edges_matches_three_buffer_oracle(R):
    # R below, at and one past a multiple of the block, and inside the
    # first block; ends far from 0, within R of 0 (the window is cut
    # there), 2R apart (at most one shared state, at the last step) and
    # further apart (no shared state: the entry is 0)
    model = QModelParams(q=0.5, sigma=0.8)
    k = _k_with_half_degree(R, model.A / model.B)
    for m, n in [(200, 200), (150, 190), (3, 10), (R + 40, 0), (10, 10 + 2 * R),
                 (0, 2 * R + 1), (2 * R + 7, 5)]:
        got, want, bound = _entry_against_oracle(model, k, m, n)
        if abs(m - n) > 2 * R:
            assert got == want == 0.0
        else:
            assert abs(got - want) <= bound, (m, n)


@pytest.mark.parametrize("m, n, R", [(200, 190, 70), (3, 10, 65), (40, 0, 33), (5, 6, 5),
                                     (0, 0, 2 * chains._RING)])
def test_windowed_ring_rows_equal_full_width_stepping(m, n, R):
    # every row of every block is the vector that stepping on all states
    # gives, equal as floats on the window and 0 past it
    model = QModelParams(q=0.7, sigma=0.5)
    lam0 = model.A / model.B
    tables = transition_arrays(model, max(m, n) + R)
    xs, ys = chebyshev_rows_full_width(m, n, R, lam0, *tables)
    done = 0
    for block, lo_x, lo_y, nx in chains._chebyshev_blocks(m, n, R, lam0, *tables):
        for i, row in enumerate(block):
            a = done - 1 + i
            if a < 0:
                assert not row.any()
                continue
            for full, part, lo in ((xs[a], row[:nx], lo_x), (ys[a], row[nx:], lo_y)):
                assert np.array_equal(part, full[lo:lo + len(part)]), (a, i)
                assert not full[:lo].any() and not full[lo + len(part):].any(), (a, i)
        done += len(block) - 2
    assert done == R


def _aligned(v: np.ndarray) -> bool:
    return v.ctypes.data % 64 == 0


@pytest.mark.parametrize("m, n, R", [(200, 190, 70), (3, 10, 65), (0, 0, 2 * chains._RING)])
def test_ring_rows_start_on_cache_lines(m, n, R):
    # every row of every block starts on a 64-byte boundary, also where the
    # block's width is not a multiple of 8 doubles
    model = QModelParams(q=0.7, sigma=0.5)
    tables = transition_arrays(model, max(m, n) + R)
    widths = []
    for block, *_ in chains._chebyshev_blocks(m, n, R, model.A / model.B, *tables):
        widths.append(block.shape[1])
        assert all(_aligned(row) for row in block)
    assert any(width % 8 for width in widths)


@pytest.mark.parametrize("moments", [1, 2])
def test_stepped_vectors_start_on_cache_lines(moments):
    # every yield of motzkin._steps, one vector or each row of a stack,
    # starts on a 64-byte boundary, through t changes and rescales (rows of
    # column sum 10, the stochastic rows times 10, leave the peak range
    # within 250 steps)
    up, flat, down = (10.0 * w for w in transition_arrays(QModelParams(q=0.5, sigma=0.8), 37))
    ends = np.ones(38) if moments == 1 else np.ones(38) * np.arange(38) ** np.arange(2)[:, None]
    scales = set()
    for v, log_scale in motzkin._steps(ends, up, flat, down, [2.0] * 3 + [1.0] * 250):
        scales.add(log_scale)
        assert v.shape == ends.shape
        assert all(_aligned(row) for row in np.atleast_2d(v))
    assert len(scales) > 1


# --------------------------------------------------------------- simulation

def test_simulation_steps_and_determinism():
    m = QModelParams(q=0.4, sigma=0.7, rho0=0.3)
    a = simulate_chain(m, 500, seed=11)
    b = simulate_chain(m, 500, seed=11)
    assert np.array_equal(a, b)
    assert a.min() >= 0
    assert np.all(np.isin(np.diff(a), (-1, 0, 1)))


def test_simulation_flat_frequency_from_high_altitude():
    # sigma = 1, q = 0: flat probability tends to 1/2 high up
    m = QModelParams(q=0.0, sigma=1.0)
    traj = simulate_chain(m, 1_000_000, seed=42, start=500)
    flat = float(np.mean(np.diff(traj) == 0))
    se = math.sqrt(0.25 / 1_000_000)
    assert abs(flat - 0.5) <= 4 * se + 1e-3  # +1e-3 for the O(1/n) row bias


def test_simulated_mean_drifts_upward():
    m = QModelParams(q=0.3, sigma=0.6, rho0=0.4)
    law = initial_law("X", m)
    k = 400
    exact = kstep_distribution(law, k, m)
    assert exact.mean() > law.mean()
    trajs = np.array([simulate_chain(m, k, seed=1000 + i)[-1] for i in range(400)])
    se = float(np.std(trajs)) / math.sqrt(len(trajs))
    assert abs(float(np.mean(trajs)) - exact.mean()) <= 4 * se


CHAIN_ORACLE_MODELS = [
    QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25),
    QModelParams(q=0.5, sigma=0.01, rho0=0.3, rho1=0.25),
    QModelParams(q=0.4, sigma=0.7, rho0=0.0, rho1=0.25),
    QModelParams(q=0.99, sigma=0.8, rho0=0.3, rho1=0.25),
]


@pytest.mark.parametrize("start", [None, 0, 7])
@pytest.mark.parametrize("m", CHAIN_ORACLE_MODELS)
def test_simulation_matches_numpy_loop_oracle_bitwise(m, start):
    for steps, seed in ((1, 0), (2, 3), (50, 1), (5000, 2)):
        got = simulate_chain(m, steps, seed, start=start)
        want = simulate_chain_numpy_loop(m, steps, seed, start=start)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("m, start", [
    (QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25), None),
    (QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25), 1000),
    (QModelParams(q=0.99, sigma=0.8, rho0=0.3, rho1=0.25), None),
    (QModelParams(q=0.99, sigma=0.8, rho0=0.3, rho1=0.25), 0),
])
def test_long_simulation_matches_numpy_loop_oracle_bitwise(monkeypatch, m, start):
    # 10^5 steps run in many chunks; at q = 0.99 from altitude 0 (seed 0)
    # the chain climbs past its first cap of 1328, so chunks stop at the cap
    # and one regrowth happens inside the run
    caps = []

    def recording(model, cap):
        caps.append(cap)
        return transition_arrays(model, cap)

    monkeypatch.setattr(chains, "transition_arrays", recording)
    got = simulate_chain(m, 100_000, 0, start=start)
    monkeypatch.undo()
    assert np.array_equal(got, simulate_chain_numpy_loop(m, 100_000, 0, start=start))
    if start == 0:
        assert caps == [1328, 2672] and got.max() >= 1327


def test_simulation_chunks_stop_at_the_cap(monkeypatch):
    # rows that alternate with the parity of the state, so a chunk that read
    # past the cap (clipped to the top row) would change the path, and a
    # drift of +0.1 per step that passes five caps from 64 on
    def parity_rows(model, cap):
        up = np.where(np.arange(cap + 1) % 2 == 1, 0.2, 0.7)
        return up, np.full(cap + 1, 0.2), 0.8 - up

    caps = []

    def recording(model, cap):
        caps.append(cap)
        return parity_rows(model, cap)

    m = QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25)
    monkeypatch.setattr(chains, "math", SimpleNamespace(sqrt=lambda x: 0.0))
    monkeypatch.setattr(chains, "transition_arrays", recording)
    got = simulate_chain(m, 20_000, seed=4, start=0)
    monkeypatch.setattr(oracles, "transition_arrays", parity_rows)
    assert np.array_equal(got, simulate_chain_numpy_loop(m, 20_000, 4, start=0))
    assert caps == [64, 144, 304, 624, 1264, 2544] and got.max() >= 1263


@pytest.mark.parametrize("steps, seed, start, name, value", [
    (-1, 0, None, "steps", -1), (10, -1, None, "seed", -1), (10, 0, -3, "start", -3)])
def test_simulation_names_a_negative_argument(steps, seed, start, name, value):
    m = QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25)
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got {value}$"):
        simulate_chain(m, steps, seed, start=start)


def test_simulation_cap_regrowth_matches_oracle(monkeypatch):
    # an unforced run regrows its cap only after climbing 4 sqrt(steps) + 64
    # levels, which no test-sized run does; with sqrt forced to 0 the cap
    # starts 64 above the start and must regrow.  Rows of transition_arrays
    # do not depend on the cap, so the oracle (unforced) gives the same path.
    m = QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25)
    caps = []

    def recording(model, cap):
        caps.append(cap)
        return transition_arrays(model, cap)

    monkeypatch.setattr(chains, "math", SimpleNamespace(sqrt=lambda x: 0.0))
    monkeypatch.setattr(chains, "transition_arrays", recording)
    got = simulate_chain(m, 20_000, seed=4, start=0)
    monkeypatch.undo()
    assert len(caps) >= 2 and caps[1] == 2 * caps[0] + 16
    assert got.max() + 1 >= caps[0]
    assert np.array_equal(got, simulate_chain_numpy_loop(m, 20_000, seed=4, start=0))


# ----------------------------------------------------- boundary-limit check

def test_finite_length_law_approaches_chain_law():
    m = QModelParams(q=0.2, sigma=0.6, rho0=0.2, rho1=0.2)
    wm = WeightModel.from_qmodel(m)
    chain = chain_head_law(m, "X", 3)
    assert sum(chain.values()) == pytest.approx(1.0, abs=1e-8)
    tv100 = tv_distance(finite_path_head_law(wm, 100, 3), chain)
    tv200 = tv_distance(finite_path_head_law(wm, 200, 3), chain)
    assert tv200 < tv100
    assert tv100 <= 0.02
    assert tv200 <= 0.01


def test_reversed_head_law_approaches_Y_chain():
    # the law of (g_L, g_{L-1}, ..) is the head law of the reversed model
    m = QModelParams(q=0.2, sigma=0.6, rho0=0.25, rho1=0.15)
    reversed_m = QModelParams(q=m.q, sigma=m.sigma, rho0=m.rho1, rho1=m.rho0)
    chain_y = chain_head_law(m, "Y", 2)
    # the symmetric weight is reversal-invariant, so reading the path
    # backwards is a head law with rho0 and rho1 exchanged
    path_rev = finite_path_head_law(WeightModel.from_qmodel(reversed_m), 200, 2)
    assert tv_distance(path_rev, chain_y) <= 0.015


def test_endpoint_pair_correlation_small():
    m = QModelParams(q=0.2, sigma=0.6, rho0=0.2, rho1=0.2)
    wm = WeightModel.from_qmodel(m)
    assert abs(endpoint_pair_correlation(wm, 200)) < 0.02


HEAD_LAW_MODELS = [
    QModelParams(q=0.2, sigma=0.6, rho0=0.2, rho1=0.2),
    QModelParams(q=0.2, sigma=0.6, rho0=0.15, rho1=0.25),
] + [m for m in CHAIN_ORACLE_MODELS if m.q <= 0.5]


def _assert_same_law(got, want, rel):
    assert set(got) == set(want)
    for key, p in want.items():
        assert abs(got[key] - p) <= rel * p, key


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("m", HEAD_LAW_MODELS)
def test_finite_path_head_law_matches_walk_oracle(m, K):
    wm = WeightModel.from_qmodel(m)
    for L in (100, 200):
        _assert_same_law(finite_path_head_law(wm, L, K), finite_path_head_law_walk(wm, L, K),
                         1e-13)


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("m", HEAD_LAW_MODELS[:2] + CHAIN_ORACLE_MODELS)
def test_chain_head_law_matches_walk_oracle(m, K):
    for which in ("X", "Y"):
        _assert_same_law(chain_head_law(m, which, K), chain_head_law_walk(m, which, K), 1e-13)


def test_initial_law_uses_the_whole_recurrence_cap_then_names_itself():
    # the level count doubles from 64 and stops at the cap, not past it
    assert len(initial_law("X", QModelParams(q=0.5, sigma=0.8, rho0=0.99955)).probs) == 70619
    # rho^n s_n / C at rho = 0.9999 is not cut within 10^5 levels
    m = QModelParams(q=0.9, sigma=0.8, rho0=0.9999, rho1=0.25)
    msg = r"initial law at rho=0.9999, q=0.9 needs more than RECURRENCE_CAP=100000 levels"
    with pytest.raises(OverflowError, match=msg):
        initial_law("X", m)


def test_finite_laws_raise_when_the_cut_loses_mass(monkeypatch):
    # a cut at T = 9 leaves 3.5e-4 of the initial mass past it at L = 200
    monkeypatch.setattr(motzkin, "_boundary_cutoff", lambda wm, L: 9)
    wm = WeightModel.from_qmodel(QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25))
    msg = r"initial altitudes past T=9 carry mass 3.52e-04 > 1e-11 at L=200"
    with pytest.raises(CapacityError, match=msg):
        finite_path_head_law(wm, 200, 2)
    with pytest.raises(CapacityError, match=msg):
        endpoint_pair_correlation(wm, 200)


@pytest.mark.parametrize("q", [0.9, 0.99])
def test_finite_path_head_law_keeps_its_mass_as_q_approaches_one(q):
    # the initial mass alpha_m u_0[m] grows with m, most as q -> 1, so the
    # old geometric boundary cutoff (T = 26 here) dropped 1.9e-5 of the law
    # at q = 0.9 and 99.55% at q = 0.99
    wm = WeightModel.from_qmodel(QModelParams(q=q, sigma=0.8, rho0=0.3, rho1=0.25))
    law = finite_path_head_law(wm, 200, 3)
    assert sum(law.values()) >= 1.0 - 1e-9
    # E[z0^g_0 prod_j t_j^(g_j - g_(j-1))] against the transfer route
    t = [1.1, 0.9, 1.2]
    got = sum(p * 0.9 ** g[0] * math.prod(tj ** (g[j + 1] - g[j]) for j, tj in enumerate(t))
              for g, p in law.items())
    want = matrix_ansatz_expectation(0.9, 1.0, t, [1.0] * 3, 200, wm)
    assert got == pytest.approx(want, rel=1e-9)


def test_head_laws_guard_the_head_length():
    m = QModelParams(q=0.2, sigma=0.6, rho0=0.2, rho1=0.2)
    with pytest.raises(CapacityError):
        finite_path_head_law(WeightModel.from_qmodel(m), 100, 15)
    with pytest.raises(CapacityError):
        chain_head_law(m, "X", 15)


@pytest.mark.parametrize("L", [200, 300])
@pytest.mark.parametrize("q", [0.2, 0.5])
def test_endpoint_pair_correlation_matches_per_start_oracle(q, L):
    wm = WeightModel.from_qmodel(QModelParams(q=q, sigma=0.8, rho0=0.3, rho1=0.25))
    assert endpoint_pair_correlation(wm, L) == pytest.approx(
        endpoint_pair_correlation_per_start(wm, L), rel=1e-8)


@pytest.mark.parametrize("L,want", [(400, 1.132e-4), (1000, 1.704e-5)])
def test_endpoint_pair_correlation_finite_for_long_paths(L, want):
    # one rescale per start and exp(scale) gave nan at L = 400 and a bare
    # OverflowError from L = 600
    wm = WeightModel.from_qmodel(QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corr = endpoint_pair_correlation(wm, L)
    assert math.isfinite(corr)
    assert corr == pytest.approx(want, rel=1e-3)


@pytest.mark.parametrize("name", ["rho0", "rho1"])
def test_endpoint_pair_correlation_at_zero_rho_is_a_value_error(name):
    # rho0 = 0 pins g_0 at 0 and rho1 = 0 pins g_L: a 0/0 correlation
    rhos = {"rho0": 0.3, "rho1": 0.25, name: 0.0}
    wm = WeightModel.from_qmodel(QModelParams(q=0.5, sigma=0.8, **rhos))
    with pytest.raises(ValueError, match=rf"{name} = 0 pins an end"):
        endpoint_pair_correlation(wm, 50)


def test_kstep_integral_overflow_is_named_at_once():
    # the rows p_300 and p_310 stay finite (about 1e173), their product in the
    # integrand does not; this used to end in a "did not converge" after 1.7 s
    t0 = time.monotonic()
    with pytest.raises(OverflowError, match="orthogonality-measure integrand"):
        kstep_transition_integral(300, 310, 100, QModelParams(q=0.99, sigma=1.0))
    assert time.monotonic() - t0 < 1.0

