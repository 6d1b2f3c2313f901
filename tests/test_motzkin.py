"""Tests for weighted Motzkin paths, transfer operators, and sampling."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motzkinq.ascpoly import (
    QModelParams,
    log_density_times_sine,
    motzkin_poly_table,
    nu_integrate,
    q_number,
)
from motzkinq import motzkin, numerics
from motzkinq.chains import endpoint_pair_correlation, finite_path_head_law
from motzkinq.errors import CapacityError
from motzkinq.motzkin import (
    MotzkinPath,
    WeightModel,
    altitude_table,
    enumerate_paths,
    integral_expectation,
    integral_normalizing_constant,
    log_normalizing_constant,
    matrix_ansatz_expectation,
    normalizing_constant,
    path_line,
    path_weight,
    sample_paths,
    table_weights,
    _boundary_cutoff,
    _step_rows,
    _step_views,
    _transposed,
    _tridiagonal_step,
)

from oracles import (backward_vectors_allocating, brute_expectation, brute_partition_sum,
                     end_laws, end_mass_shares_past, enumerate_paths_recursive, gauss_legendre,
                     horizontal_count, parse_path_line, partition_weight, power_allocating,
                     sample_paths_per_state, tiled_power, transfer_expectation_plain,
                     tridiagonal_step_allocating, unit_model)

MOTZKIN_NUMBERS = [1, 1, 2, 4, 9, 21, 51, 127]


# -------------------------------------------------------------- enumeration

def test_motzkin_counts():
    for L, target in enumerate(MOTZKIN_NUMBERS):
        assert len(enumerate_paths(L, 0, 0)) == target


def test_enumerate_single_flat_path():
    assert [p.altitudes for p in enumerate_paths(1, 0, 0)] == [(0, 0)]


def test_enumerate_descent_with_one_flat():
    got = {p.altitudes for p in enumerate_paths(3, 2, 0)}
    assert got == {(2, 2, 1, 0), (2, 1, 1, 0), (2, 1, 0, 0)}


def test_enumeration_guard():
    with pytest.raises(CapacityError):
        enumerate_paths(15, 0, 0)
    with pytest.raises(CapacityError, match="L=15 exceeds 14"):
        altitude_table(15, 0, None)


ENUMERATION_CASES = ([(L, m, n) for L in range(9) for m in range(5) for n in range(5)]
                     + [(10, 1, 2), (14, 0, 0)])


def test_altitude_table_matches_recursive_walk_row_order():
    for L, m, n in ENUMERATION_CASES:
        want = [p.altitudes for p in enumerate_paths_recursive(L, m, n)]
        table = altitude_table(L, m, n)
        assert table.dtype == np.int64 and table.shape == (len(want), L + 1)
        assert list(map(tuple, table.tolist())) == want, (L, m, n)
        assert [p.altitudes for p in enumerate_paths(L, m, n)] == want, (L, m, n)
    assert len(want) == 113634


@pytest.mark.parametrize("L, m, n", [(0, 0, 1), (0, 3, 2), (2, 0, 3), (3, 5, 1)])
def test_enumeration_ends_out_of_reach_give_no_path(L, m, n):
    assert altitude_table(L, m, n).shape == (0, L + 1)
    assert enumerate_paths(L, m, n) == []
    assert table_weights(altitude_table(L, m, n), unit_model()).shape == (0,)


@pytest.mark.parametrize("L, m", [(0, 2), (1, 0), (5, 0), (6, 3)])
def test_free_end_table_is_every_fixed_end_in_lexicographic_order(L, m):
    # with +1 ordered first, lexicographic order of the step sequences is
    # descending order of the altitude rows
    want = sorted((p.altitudes for n in range(m + L + 1)
                   for p in enumerate_paths_recursive(L, m, n)), reverse=True)
    assert list(map(tuple, altitude_table(L, m, None).tolist())) == want


@pytest.mark.parametrize("model", [
    WeightModel.from_qmodel(QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25)),
    WeightModel.from_qmodel(QModelParams(q=0.99, sigma=0.01)),
    WeightModel(up=lambda n: 2.0 ** (n + 1), flat=lambda n: 3.0 ** (n + 1),
                down=lambda n: 5.0 ** (n + 1) if n else 0.0, alpha=lambda n: 1.0,
                beta=lambda n: 1.0),
])
def test_table_weights_equal_path_weight_bitwise(model):
    for L, m, n in [(0, 2, 2), (1, 0, 0), (6, 2, 1), (10, 1, 2), (9, 0, None)]:
        table = altitude_table(L, m, n)
        got = table_weights(table, model)
        want = np.array([path_weight(MotzkinPath(tuple(row)), model) for row in table.tolist()])
        assert np.array_equal(got, want), (L, m, n)


def test_path_validation():
    with pytest.raises(ValueError):
        MotzkinPath((0, 2))
    with pytest.raises(ValueError):
        MotzkinPath((1, 0, -1))


def test_serialization_round_trip():
    p = MotzkinPath((2, 1, 1, 0, 1))
    assert path_line(p) == "2,1,1,0,1"
    assert parse_path_line(path_line(p)) == p


# ------------------------------------------------------------- path weights

def test_flat_path_weight_and_horizontal_count():
    m = QModelParams(q=0.5, sigma=0.7)
    wm = WeightModel.from_qmodel(m)
    p = MotzkinPath((0, 0, 0))
    assert horizontal_count(p) == 2
    assert path_weight(p, wm) == pytest.approx((2 * 0.7) ** 2, rel=1e-14)


def test_figure_path_weight_exponents():
    # distinct weights reveal the exact multiset of edge factors
    wm = WeightModel(
        up=lambda n: 2.0 ** (n + 1),
        flat=lambda n: 3.0 ** (n + 1),
        down=lambda n: 5.0 ** (n + 1),
        alpha=lambda n: 1.0,
        beta=lambda n: 1.0,
    )
    p = MotzkinPath((2, 1, 1, 0, 1, 1, 2, 1, 0, 1))
    expected = (wm.flat(1) ** 2) * (wm.up(0) ** 2) * wm.up(1) * (wm.down(1) ** 2) * (wm.down(2) ** 2)
    assert path_weight(p, wm) == pytest.approx(expected, rel=1e-14)


def test_qmodel_weight_closed_form():
    # for the q-model the weight is (2 sigma)^H prod_{k>=1} [g_k + 1]_q
    m = QModelParams(q=0.35, sigma=0.6)
    wm = WeightModel.from_qmodel(m)
    for path in enumerate_paths(5, 1, 2):
        closed = (2 * m.sigma) ** horizontal_count(path)
        for g in path.altitudes[1:]:
            closed *= q_number(g + 1, m.q)
        assert path_weight(path, wm) == pytest.approx(closed, rel=1e-12)


def test_up_down_excursion_weight():
    m = QModelParams(q=0.45, sigma=0.5)
    wm = WeightModel.from_qmodel(m)
    w = path_weight(MotzkinPath((0, 1, 0)), wm)
    assert w == pytest.approx(q_number(2, m.q) * q_number(1, m.q), rel=1e-14)


# ---------------------------------------------------------- transfer weights

def test_partition_weight_length_zero():
    wm = unit_model()
    assert partition_weight(0, 3, 3, wm) == 1.0
    assert partition_weight(0, 3, 4, wm) == 0.0


def test_partition_weight_counts_unit_model():
    wm = unit_model()
    assert partition_weight(4, 0, 0, wm) == pytest.approx(9.0, abs=0)
    for L, target in enumerate(MOTZKIN_NUMBERS):
        assert partition_weight(L, 0, 0, wm) == pytest.approx(target, abs=0)


@pytest.mark.parametrize("q,sigma,m,n,L", [
    (0.0, 0.5, 0, 0, 6),
    (0.4, 0.8, 2, 1, 7),
    (0.7, 0.3, 1, 4, 10),
])
def test_partition_weight_matches_enumeration(q, sigma, m, n, L):
    qm = QModelParams(q=q, sigma=sigma)
    wm = WeightModel.from_qmodel(qm)
    brute = sum(path_weight(p, wm) for p in enumerate_paths(L, m, n))
    assert partition_weight(L, m, n, wm) == pytest.approx(brute, rel=1e-10)


# ------------------------------------------------------ normalizing constant

def test_normalizing_constant_length_zero():
    m = QModelParams(q=0.3, sigma=0.6, rho0=0.4, rho1=0.5)
    wm = WeightModel.from_qmodel(m)
    direct = sum((m.rho0 * m.rho1) ** n * q_number(n + 1, m.q) for n in range(400))
    assert normalizing_constant(0, wm) == pytest.approx(direct, rel=1e-11)


def test_normalizing_constant_matches_enumeration():
    m = QModelParams(q=0.0, sigma=0.5, rho0=0.3, rho1=0.3)
    wm = WeightModel.from_qmodel(m)
    brute = brute_partition_sum(wm, 1.0, 1.0, 3, mmax=40)
    assert normalizing_constant(3, wm) == pytest.approx(brute, rel=1e-10)


def test_normalizing_constant_growth_rate():
    m = QModelParams(q=0.5, sigma=0.7, rho0=0.4, rho1=0.2)
    wm = WeightModel.from_qmodel(m)
    logB = math.log(m.B)
    errs = [abs(log_normalizing_constant(L + 1, wm) - log_normalizing_constant(L, wm) - logB)
            for L in (40, 80, 160)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.015


def test_normalizing_constant_past_exp_700_raises():
    wm = WeightModel.from_qmodel(QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25))
    assert 700.0 < log_normalizing_constant(400, wm) < 800.0
    with pytest.raises(OverflowError, match=r"normalizing constant exp\(777\.5\) overflows"):
        normalizing_constant(400, wm)


@pytest.mark.parametrize("q", [0.999, 0.9999])
def test_transfer_mantissa_underflow_raises_overflow_error(q):
    # the passes' vectors live but their products with the end vector are 0;
    # this raised ValueError (normalizer) and ZeroDivisionError (expectation)
    wm = WeightModel.from_qmodel(QModelParams(q=q, sigma=0.8, rho0=0.3, rho1=0.25))
    with pytest.raises(OverflowError, match=rf"transfer pass 1 of 1 \(z0=1.0, z1=1.0\) at q={q}, "
                                            r"L=2000 underflowed: .* backward-pass routes"):
        log_normalizing_constant(2000, wm)
    with pytest.raises(OverflowError, match=rf"transfer pass \d of 2 .* at q={q}, L=2000 "
                                            "underflowed"):
        matrix_ansatz_expectation(0.9, 0.8, [0.8], [1.1], 2000, wm)


def test_transfer_below_the_underflow_and_the_backward_routes_still_run():
    wm = WeightModel.from_qmodel(QModelParams(q=0.999, sigma=0.8, rho0=0.3, rho1=0.25))
    assert math.isfinite(log_normalizing_constant(1400, wm))
    # the expectation's numerator underflows already; it returned 0.0 here
    with pytest.raises(OverflowError, match=r"transfer pass 1 of 2 \(z0=0.9, z1=0.8\) at "
                                            r"q=0.999, L=1400 underflowed"):
        matrix_ansatz_expectation(0.9, 0.8, [0.8], [1.1], 1400, wm)
    assert -1.0 <= endpoint_pair_correlation(wm, 2000) <= 1.0


def test_functional_args_need_equal_lengths():
    with pytest.raises(ValueError, match="t and s must have equal length"):
        motzkin._functional_args(0.9, 0.8, [0.8, 1.2], [1.1], 6)


# ----------------------------------------------------------- matrix ansatz

def test_matrix_ansatz_constant_is_one():
    m = QModelParams(q=0.4, sigma=0.9, rho0=0.3, rho1=0.25)
    wm = WeightModel.from_qmodel(m)
    val = matrix_ansatz_expectation(1.0, 1.0, [1.0, 1.0], [1.0, 1.0], 6, wm)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_matrix_ansatz_initial_marginal_against_enumeration():
    m = QModelParams(q=0.3, sigma=0.6, rho0=0.35, rho1=0.3)
    wm = WeightModel.from_qmodel(m)
    got = matrix_ansatz_expectation(0.7, 1.0, [], [], 6, wm)
    want = brute_expectation(wm, 0.7, 1.0, [], [], 6, mmax=42)
    assert got == pytest.approx(want, rel=1e-10)


def test_matrix_ansatz_full_against_enumeration():
    m = QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.2)
    wm = WeightModel.from_qmodel(m)
    t, s = [0.8, 1.3], [1.2, 0.7]
    got = matrix_ansatz_expectation(0.9, 0.85, t, s, 6, wm)
    want = brute_expectation(wm, 0.9, 0.85, t, s, 6, mmax=42)
    assert got == pytest.approx(want, rel=1e-10)


# values at the benchmark's transfer arguments, every orientation of
# ((z0, z1), t, s), and the log-normalizer: pinned bit for bit (repr)
TRANSFER_PINS = [
    ((0.9, 0.8), (0.8, 1.2), (1.1, 0.9), "0.5946043827801035"),
    ((0.9, 0.8), (0.8, 1.2), (0.9, 1.1), "0.5845142254086472"),
    ((0.9, 0.8), (1.2, 0.8), (1.1, 0.9), "0.6115622637929818"),
    ((0.9, 0.8), (1.2, 0.8), (0.9, 1.1), "0.6011843383476488"),
    ((0.8, 0.9), (0.8, 1.2), (1.1, 0.9), "0.5715763169007887"),
    ((0.8, 0.9), (0.8, 1.2), (0.9, 1.1), "0.5625690998266424"),
    ((0.8, 0.9), (1.2, 0.8), (1.1, 0.9), "0.5895243086738793"),
    ((0.8, 0.9), (1.2, 0.8), (0.9, 1.1), "0.5802342564162043"),
]
LOG_NORMALIZER_PINS = [(0, "0.11618275428990982"), (1, "1.0453834237240205"),
                       (6, "8.282470220467772"), (2000, "3933.49333977103")]


def test_transfer_values_pinned_bitwise():
    wm = WeightModel.from_qmodel(QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25))
    for (z0, z1), t, s, want in TRANSFER_PINS:
        assert repr(matrix_ansatz_expectation(z0, z1, list(t), list(s), 2000, wm)) == want
    for L, want in LOG_NORMALIZER_PINS:
        assert repr(log_normalizing_constant(L, wm)) == want


# the integral route at the TRANSFER_PINS orientations (L = 2000) and its
# normalizing constant, on the same model: pinned bit for bit (repr)
INTEGRAL_PINS = ["0.5946043827799788", "0.5845142254085254", "0.6115622637925628",
                 "0.6011843383472376", "0.5715763169006439", "0.5625690998264993",
                 "0.5895243086737568", "0.5802342564160843"]
INTEGRAL_NORMALIZER_PINS = [(0, "1.123201123201123"), (1, "2.8444889591386393"),
                            (8, "110624.598381533"), (300, "1.3403887566150397e+252")]


def test_integral_values_pinned_bitwise():
    wm = WeightModel.from_qmodel(QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25))
    for ((z0, z1), t, s, _), want in zip(TRANSFER_PINS, INTEGRAL_PINS, strict=True):
        assert repr(integral_expectation(z0, z1, list(t), list(s), 2000, wm)) == want
    for L, want in INTEGRAL_NORMALIZER_PINS:
        assert repr(integral_normalizing_constant(L, wm)) == want


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.0, 0.99), sigma=st.floats(0.01, 1.0), rho0=st.floats(0.0, 0.99),
       rho1=st.floats(0.0, 0.99), L=st.integers(1, 400))
# the old geometric cutoff lost 0.9955 and 5.8e-10 of the mass at these two
@example(q=0.99, sigma=0.8, rho0=0.3, rho1=0.25, L=200)
@example(q=0.99, sigma=0.01, rho0=0.9, rho1=0.9, L=400)
@example(q=0.99, sigma=0.8, rho0=0.3, rho1=0.25, L=2000)
@example(q=0.99, sigma=0.01, rho0=0.99, rho1=0.99, L=2000)
# the rho0 law is not cut within 10^5 levels; T comes from the rho1 end plus L
@example(q=0.9, sigma=0.8, rho0=0.9999, rho1=0.25, L=10)
def test_boundary_cutoff_keeps_all_but_tail_tol_of_both_end_laws(q, sigma, rho0, rho1, L):
    wm = WeightModel.from_qmodel(QModelParams(q=q, sigma=sigma, rho0=rho0, rho1=rho1))
    T = _boundary_cutoff(wm, L)
    share_g0, share_gL = end_mass_shares_past(wm, L, T)
    assert share_g0 <= numerics.TAIL_TOL and share_gL <= numerics.TAIL_TOL


def test_transfer_takes_the_cut_from_the_short_end_when_rho0_is_near_one():
    # the rho0 = 0.9999 law needs more than RECURRENCE_CAP levels, but
    # g_0 <= g_L + L keeps the initial altitudes within L of the rho1 cut
    wm = WeightModel.from_qmodel(QModelParams(q=0.9, sigma=0.8, rho0=0.9999, rho1=0.25))
    assert _boundary_cutoff(wm, 10) == 54
    got = matrix_ansatz_expectation(0.9, 0.8, [0.8], [1.1], 10, wm)
    want = transfer_expectation_plain(wm, 0.9, 0.8, [0.8], [1.1], 10, 202)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.27025397, rel=1e-7)


# --------------------------------------------------------- the height rule

_HEIGHT_QS = [0.0, 0.3, 0.5, 0.9, 0.99]


@pytest.mark.parametrize("q", _HEIGHT_QS)
@pytest.mark.parametrize("sigma", [0.01, 0.8, 1.0])
def test_top_state_bound_rests_on_harmonic_vectors(q, sigma):
    # the facts the top-state bound uses: M pi = B pi and M^T s = B s
    # (checked through the log ratios of log_s_values), pi_0 = 1 with pi
    # nondecreasing, and falling ratios r_n = s_(n+1) / s_n
    m = QModelParams(q=q, sigma=sigma)
    wm = WeightModel.from_qmodel(m)
    n = 2000
    log_s = motzkin.log_s_values(n + 1, m)
    log_pi = log_s - np.log([q_number(k + 1, q) for k in range(n + 2)])
    a, b, c = wm.weight_arrays(n + 1)
    k = np.arange(1, n)
    d, r = np.exp(np.diff(log_pi)), np.exp(np.diff(log_s))
    right = a[k] * d[k] + b[k] + c[k] / d[k - 1]  # (M pi)_k / pi_k
    left = a[k - 1] / r[k - 1] + b[k] + c[k + 1] * r[k]  # (M^T s)_k / s_k
    assert np.max(np.abs(right / m.B - 1.0)) < 1e-12
    assert np.max(np.abs(left / m.B - 1.0)) < 1e-12
    assert log_pi[0] == 0.0 and np.all(np.diff(log_pi) >= 0.0)
    assert np.all(np.diff(r) <= 0.0)


def _full_height_only(model, T, L):
    return iter([(motzkin._weight_tables(model, T + L + 2), None)])


def _at_height(monkeypatch, S):
    """Patch the routes to run at height S alone and to accept it; the
    list returned collects each certificate's (value, top, log_weight)."""
    spied = []
    monkeypatch.setattr(motzkin, "_heights", lambda model, T, L: iter([motzkin._top_tables(model, S)]))
    monkeypatch.setattr(motzkin, "_certified", lambda *args: spied.append(args) or True)
    return spied


def _share_bound(value, top, log_weight):
    """The bound of a certificate as a share of its value."""
    return 0.0 if top == 0.0 else math.exp(min(math.log(top) + log_weight - math.log(value), 700.0))


@pytest.mark.parametrize("extra", [20, 60])
@pytest.mark.parametrize("q", _HEIGHT_QS)
def test_top_state_bound_holds_at_forced_low_heights(monkeypatch, q, extra):
    # at S' = T + 20 the cut drops up to 1e-4 of the value, and the bound is
    # at least that for the numerator, the denominator, the mass of the
    # sampler and of the head law, and the correlation's sums F[i, j] of the
    # heads alpha_m m^i, m <= T, against the columns beta_n n^j
    wm = WeightModel.from_qmodel(QModelParams(q=q, sigma=0.8, rho0=0.3, rho1=0.25))
    L = 500
    T = _boundary_cutoff(wm, L)
    S = T + extra
    passes = [(0.9, 0.8, [0.8], [1.1]), (1.0, 1.0, [], [])]
    a, b, c, av, bv = motzkin._weight_tables(wm, T + L + 2)
    av[T + 1:] = 0.0  # the initial altitudes of the backward pass
    powers = np.arange(T + L + 2) ** np.arange(3)[:, None]
    heads, ends = av * powers, bv * powers
    (full, full_lg), (cut, cut_lg) = (motzkin._power(heads[:, :n], a[:n], b[:n], c[:n], [1.0] * L)
                                      for n in (T + L + 2, S))
    F = (cut @ ends[:, :S].T) / (full @ ends.T) * math.exp(cut_lg - full_lg)
    with monkeypatch.context() as mp:
        mp.setattr(motzkin, "_heights", _full_height_only)
        want = motzkin._transfer_logs(wm, L, passes)
    spied = _at_height(monkeypatch, S)
    got = motzkin._transfer_logs(wm, L, passes)
    sample_paths(L, wm, 10, seed=1)
    finite_path_head_law(wm, L, 3)
    endpoint_pair_correlation(wm, L)
    drops = [1.0 - g / w * math.exp(lg - lw) for (g, lg), (w, lw) in zip(got, want)]
    drops += [1.0 - F[0, 0]] * 2 + list(1.0 - F.ravel())
    for drop, certificate in zip(drops, spied, strict=True):
        assert drop <= _share_bound(*certificate) + 1e-14
    if extra == 20 and q < 0.99:
        assert min(drops) > 1e-6


@pytest.mark.parametrize("L,K,moments", [(1000, 0, 3), (200, 3, 1)])
def test_backward_table_steps_its_stack_as_the_tiled_vector(monkeypatch, L, K, moments):
    # the (moments, S) stack of end columns through _power is the old tiled
    # vector of moments * S entries bit for bit, rescales (at L = 1000) and
    # their common peak included, and the backward pass at the full height
    # keeps that stack as its row u_K
    wm = WeightModel.from_qmodel(QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25))
    monkeypatch.setattr(motzkin, "_heights", _full_height_only)
    T, _, uK, _ = motzkin._backward_table(wm, L, (K,), moments)
    a, b, c, _, bv = motzkin._weight_tables(wm, T + L + 2)
    up_T, down_T = _transposed(a, c)
    ends = bv * np.arange(len(bv)) ** np.arange(moments)[:, None]
    stacked, scale = motzkin._power(ends, up_T, b, down_T, [1.0] * (L - K))
    want, want_scale = tiled_power(ends, up_T, b, down_T, [1.0] * (L - K))
    assert scale == want_scale and (scale != 0.0) == (L == 1000)
    assert stacked.tobytes() == want.tobytes()
    assert uK[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("L", [500, 2000, 200, 1000])
@pytest.mark.parametrize("model", [QModelParams(q=q, sigma=0.8, rho0=0.3, rho1=0.25)
                                   for q in _HEIGHT_QS]
                         + [QModelParams(q=0.5, sigma=0.01, rho0=0.9, rho1=0.25),
                            QModelParams(q=0.9, sigma=0.5, rho0=0.95, rho1=0.95),
                            QModelParams(q=0.2, sigma=0.8, rho0=0.3, rho1=0.25),
                            QModelParams(q=0.5, sigma=0.8, rho0=0.9, rho1=0.25),
                            QModelParams(q=0.2, sigma=0.6, rho0=0.2, rho1=0.2),
                            QModelParams(q=0.0, sigma=1.0, rho0=0.3, rho1=0.3)],
                         ids=str)
def test_certified_height_agrees_with_the_full_height(monkeypatch, model, L):
    # the values stay within their eps / 16 bounds of the full-height ones;
    # on these models, bench model included, they agree bit for bit: the
    # transfer and log C, and at L = 200 and 1000 the head law (K = 3) and
    # the endpoint correlation
    wm = WeightModel.from_qmodel(model)
    args = (0.9, 0.8, [0.8, 1.3], [1.1, 0.7], L, wm)

    def values():
        got = [matrix_ansatz_expectation(*args), log_normalizing_constant(L, wm)]
        if L in (200, 1000):
            got += [finite_path_head_law(wm, L, 3), endpoint_pair_correlation(wm, L)]
        return got

    got = values()
    monkeypatch.setattr(motzkin, "_heights", _full_height_only)
    assert got == values()


@pytest.mark.parametrize("q, L, heights", [(0.5, 2000, [453]), (0.5, 20_000, [1227]),
                                           (0.9, 2000, [473, 945]),
                                           (0.99, 2000, [631, 1261, 2210])])
def test_transfer_doubles_the_height_until_the_bound_passes(monkeypatch, q, L, heights):
    # table lengths stepped (S' plus the top state, or T + L + 2 at the end)
    wm = WeightModel.from_qmodel(QModelParams(q=q, sigma=0.8, rho0=0.3, rho1=0.25))
    seen = []
    real = motzkin._bilinear_log
    monkeypatch.setattr(motzkin, "_bilinear_log",
                        lambda tables, *args: seen.append(len(tables[0])) or real(tables, *args))
    matrix_ansatz_expectation(0.9, 0.8, [0.8], [1.1], L, wm)
    assert sorted(set(seen)) == heights


def test_sampler_reaches_past_the_full_height_cap():
    # 5001 x 5032 entries at T + L + 2 pass SAMPLE_TABLE_CAP; the first
    # height, T + 566 + 64, fits
    wm = WeightModel.from_qmodel(QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25))
    paths = sample_paths(5000, wm, 20, seed=2)
    assert paths.shape == (20, 5001)
    assert paths.min() >= 0 and np.all(np.abs(np.diff(paths, axis=1)) <= 1)


# the q = 0.99 weights without their qmodel tag
_UNTAGGED = dataclasses.replace(
    WeightModel.from_qmodel(QModelParams(q=0.99, sigma=0.8, rho0=0.3, rho1=0.25)), qmodel=None)
TRUNCATED_ROUTES = {
    "log_normalizing_constant": lambda wm: log_normalizing_constant(10, wm),
    "normalizing_constant": lambda wm: normalizing_constant(10, wm),
    "matrix_ansatz_expectation":
        lambda wm: matrix_ansatz_expectation(0.9, 0.8, [0.8], [1.1], 10, wm),
    "sample_paths": lambda wm: sample_paths(10, wm, 5, seed=1),
    "finite_path_head_law": lambda wm: finite_path_head_law(wm, 10, 2),
    "endpoint_pair_correlation": lambda wm: endpoint_pair_correlation(wm, 10),
    "integral_expectation": lambda wm: integral_expectation(0.9, 0.8, [0.8], [1.1], 10, wm),
    "integral_normalizing_constant": lambda wm: integral_normalizing_constant(10, wm),
}


@pytest.mark.parametrize("route", TRUNCATED_ROUTES.values(), ids=TRUNCATED_ROUTES.keys())
@pytest.mark.parametrize("wm", [unit_model(), _UNTAGGED], ids=["unit", "untagged_q099"])
def test_truncated_routes_require_the_qmodel(route, wm):
    with pytest.raises(ValueError, match=r"needs the q-model weights"):
        route(wm)


@pytest.mark.parametrize("route", [matrix_ansatz_expectation, integral_expectation],
                         ids=["matrix_ansatz_expectation", "integral_expectation"])
def test_matrix_ansatz_argument_validation(route):
    # the integral route used to return 1.22, 0.67 and -0.17 for z0 = 1.5,
    # z0 = 0 and t = [-0.8], and divide by zero for s = [0]
    wm = WeightModel.from_qmodel(QModelParams(q=0.3, sigma=0.5, rho0=0.2, rho1=0.2))
    with pytest.raises(ValueError):
        route(1.0, 1.0, [1.0] * 4, [1.0] * 4, 6, wm)
    with pytest.raises(ValueError):
        route(1.5, 1.0, [], [], 4, wm)
    with pytest.raises(ValueError):
        route(0.0, 1.0, [], [], 4, wm)
    with pytest.raises(ValueError):
        route(1.0, 1.0, [0.0], [1.0], 4, wm)
    with pytest.raises(ValueError):
        route(1.0, 1.0, [-0.8], [1.0], 4, wm)
    with pytest.raises(ValueError):
        route(1.0, 1.0, [1.0], [0.0], 4, wm)


# --------------------------------------------------- integral representation

def test_integral_expectation_constant_is_one():
    m = QModelParams(q=0.4, sigma=0.6, rho0=0.3, rho1=0.3)
    wm = WeightModel.from_qmodel(m)
    val = integral_expectation(1.0, 1.0, [1.0], [1.0], 6, wm)
    assert val == pytest.approx(1.0, rel=1e-9)


def test_integral_matches_matrix_ansatz():
    m = QModelParams(q=0.4, sigma=0.6, rho0=0.3, rho1=0.3)
    wm = WeightModel.from_qmodel(m)
    t, s = [0.8], [1.25]
    via_integral = integral_expectation(0.9, 0.95, t, s, 8, wm)
    via_transfer = matrix_ansatz_expectation(0.9, 0.95, t, s, 8, wm)
    assert via_integral == pytest.approx(via_transfer, rel=1e-7)


@pytest.mark.parametrize("model, L", [
    # the old geometric cutoff kept 26 initial altitudes here: off by 4.8e-8 and 2.86
    (QModelParams(q=0.99, sigma=0.8, rho0=0.3, rho1=0.25), 50),
    (QModelParams(q=0.99, sigma=0.8, rho0=0.3, rho1=0.25), 200),
    # the integral route truncates beta as well, so a cut from rho0 alone fails here
    (QModelParams(q=0.9, sigma=0.8, rho0=0.1, rho1=0.8), 100),
    # rho0 [2]_q > 1, so alpha's peak is not 1 and its scale must be carried
    (QModelParams(q=0.5, sigma=0.8, rho0=0.9, rho1=0.25), 200),
    (QModelParams(q=0.9, sigma=0.8, rho0=0.9, rho1=0.25), 200),
])
def test_integral_matches_matrix_ansatz_at_long_paths(model, L):
    wm = WeightModel.from_qmodel(model)
    via_integral = integral_expectation(0.9, 0.8, [0.8], [1.1], L, wm)
    via_transfer = matrix_ansatz_expectation(0.9, 0.8, [0.8], [1.1], L, wm)
    assert via_integral == pytest.approx(via_transfer, rel=1e-9)


@pytest.mark.parametrize("q, L, K", [(0.5, 2000, 300), (0.5, 2000, 1000),
                                     (0.9, 400, 100), (0.9, 400, 200)])
def test_integral_matches_transfer_at_large_K(q, L, K):
    # the unscaled end vectors used to leave double range here (OverflowError)
    wm = WeightModel.from_qmodel(QModelParams(q=q, sigma=0.8, rho0=0.3, rho1=0.25))
    t, s = [0.95] * K, [1.05] * K
    via_integral = integral_expectation(0.9, 0.8, t, s, L, wm)
    via_transfer = matrix_ansatz_expectation(0.9, 0.8, t, s, L, wm)
    assert via_integral == pytest.approx(via_transfer, rel=1e-10)


def test_integral_normalizing_constant_matches_transfer():
    m = QModelParams(q=0.4, sigma=0.6, rho0=0.3, rho1=0.3)
    wm = WeightModel.from_qmodel(m)
    assert integral_normalizing_constant(8, wm) == pytest.approx(
        normalizing_constant(8, wm), rel=1e-7)


def test_integral_normalizing_constant_overflow_names_layer():
    # C_200 = exp(895) at q = 0.99; B**L used to raise a bare OverflowError
    wm = WeightModel.from_qmodel(QModelParams(q=0.99, sigma=0.8, rho0=0.3, rho1=0.25))
    with pytest.raises(OverflowError, match=r"integral normalizing constant .* at L=200, "
                                            r"B=360 overflows; use log_normalizing_constant"):
        integral_normalizing_constant(200, wm)


# at q = 0.995 the density is below double range where (x/B)^L has its
# mass: the q-product density made these integrals come out as 0
# (ZeroDivisionError, "math domain error", or 0.0 returned for the
# expectation at L = 700), or lose part of it without an error (-3.7% at
# L = 600, +19% at L = 620)
_Q995 = WeightModel.from_qmodel(QModelParams(q=0.995, sigma=0.8, rho0=0.3, rho1=0.25))
_Q99 = WeightModel.from_qmodel(QModelParams(q=0.99, sigma=0.8, rho0=0.3, rho1=0.25))
_INTEGRAL_ROUTES = {
    "expectation": lambda L: integral_expectation(0.9, 0.8, [0.8], [1.1], L, _Q995),
    "normalizing_constant": lambda L: integral_normalizing_constant(L, _Q995),
}


@pytest.mark.parametrize("route, L, in_denominator", [
    ("expectation", 700, True), ("expectation", 1000, True), ("expectation", 2000, True),
    ("expectation", 600, True), ("expectation", 620, True), ("expectation", 540, False),
    ("normalizing_constant", 1000, True), ("normalizing_constant", 2000, True),
])
def test_integral_underflow_names_the_integral(route, L, in_denominator):
    # the first integral whose L1 mass is below 1e-300 / REL_TOL, where the
    # quadrature's 1e-300 floor could cost more than REL_TOL
    integral = r"C_L / B\^L" if in_denominator else "the expectation's numerator"
    with pytest.raises(OverflowError, match=rf"moment integral of {integral} at L={L}, "
                                            r"q=0\.995: .* has L1 mass .* < 1e-300 / REL_TOL.*; "
                                            "use the transfer route"):
        _INTEGRAL_ROUTES[route](L)


def test_integral_underflow_names_the_integral_at_q_099():
    with pytest.raises(OverflowError, match=r"moment integral of the expectation's numerator "
                                            r"at L=4000, q=0\.99: .* has L1 mass .*; "
                                            "use the transfer route"):
        integral_expectation(0.9, 0.8, [0.8], [1.1], 4000, _Q99)


def test_integral_below_the_density_underflow_matches_transfer():
    # the density underflows at q = 0.995, but not where (x/B)^400 has its mass
    want = matrix_ansatz_expectation(0.9, 0.8, [0.8], [1.1], 400, _Q995)
    assert _INTEGRAL_ROUTES["expectation"](400) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("q, L, rel", [(0.995, 486, 1e-12), (0.995, 500, 1e-12),
                                     (0.995, 520, 1e-12), (0.99, 1250, 1e-11),
                                     (0.99, 2500, 1e-11)])
def test_integral_matches_transfer_where_the_density_is_below_double_range(q, L, rel):
    # (x/B)^L has its mass where the density is below double range: the
    # q-product density raised OverflowError here; its log form keeps that mass
    wm = {0.995: _Q995, 0.99: _Q99}[q]
    want = matrix_ansatz_expectation(0.9, 0.8, [0.8], [1.1], L, wm)
    assert integral_expectation(0.9, 0.8, [0.8], [1.1], L, wm) == pytest.approx(want, rel=rel)


def test_integral_expectation_requires_qmodel():
    with pytest.raises(ValueError):
        integral_expectation(1.0, 1.0, [], [], 4, unit_model())


# ------------------------------------------------------ measure invariants

def test_total_probability_by_enumeration():
    m = QModelParams(q=0.45, sigma=0.75, rho0=0.35, rho1=0.25)
    wm = WeightModel.from_qmodel(m)
    for L in (2, 5, 8):
        brute = brute_partition_sum(wm, 1.0, 1.0, L, mmax=46)
        assert brute / normalizing_constant(L, wm) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("L", [3, 6, 8])
def test_viennot_moment_identity(L):
    # int p_m p_n x^L nu(dx) = (path-weight sum over M^{(L)}_{m,n}) / [n+1]_q
    m = QModelParams(q=0.5, sigma=0.7)
    wm = WeightModel.from_qmodel(m)
    B = m.B
    for mm in (0, 1, 3, 4):
        for nn in (0, 2, 4):
            brute = sum(path_weight(p, wm) for p in enumerate_paths(L, mm, nn))
            target = brute / q_number(nn + 1, m.q)

            def f(x):
                tbl = motzkin_poly_table(max(mm, nn), x, m)
                return tbl[mm] * tbl[nn] * (x / B) ** L

            got = nu_integrate(f, m) * B**L
            assert got == pytest.approx(target, rel=1e-7, abs=1e-9)


def test_transfer_eigen_relation_on_polynomial_vector():
    # the truncated operator reproduces x * (p_0(x), ..., p_{S-1}(x)) in all
    # coordinates except the last
    m = QModelParams(q=0.6, sigma=0.4)
    wm = WeightModel.from_qmodel(m)
    S = 24
    a, b, c = wm.weight_arrays(S)
    for x in np.linspace(m.A + 0.1, m.B - 0.1, 7):
        p = motzkin_poly_table(S - 1, np.array([x]), m)[:, 0]
        out = b * p
        out[:-1] += a[:-1] * p[1:]
        out[1:] += c[1:] * p[:-1]
        assert np.allclose(out[:-1], x * p[:-1], rtol=1e-9, atol=1e-9)
        assert abs(out[-1] - x * p[-1]) > 1e-6  # boundary row is the exception


def _step(v, up, flat, down):
    """v -> v M by the in-place step, into a fresh vector."""
    out = np.empty(len(v))
    _tridiagonal_step(_step_views(v), _step_views(out), _step_rows(up, flat, down),
                      np.empty(len(v) - 1))
    return out


def test_tridiagonal_step_matches_dense_matrix():
    # M_t[n, n+1] = t a_n, M_t[n, n] = b_n, M_t[n, n-1] = c_n / t on 0..S-1
    rng = np.random.default_rng(8)
    S, t = 9, 1.7
    a, b, c = rng.uniform(0.5, 2.0, (3, S))
    M = np.diag(b) + np.diag(t * a[:-1], 1) + np.diag(c[1:] / t, -1)
    v = rng.uniform(0.1, 1.0, S)
    row = _step(v, t * a, b, c / t)
    assert np.allclose(row, v @ M, rtol=1e-14, atol=0.0)
    up_T, down_T = _transposed(a, c)
    col = _step(v, up_T / t, b, t * down_T)
    assert np.allclose(col, M @ v, rtol=1e-14, atol=0.0)
    # the same float operations in the same order as the allocating step
    assert np.array_equal(row, tridiagonal_step_allocating(v, t * a, b, c / t))
    assert np.array_equal(col, tridiagonal_step_allocating(v, up_T / t, b, t * down_T))


@pytest.mark.parametrize("q,L,ts", [(0.5, 300, None), (0.99, 2000, None),
                                    (0.9, 400, [0.9] * 50 + [1.0] * 300 + [1.3] * 50)])
def test_power_and_backward_table_match_the_allocating_loops_bitwise(q, L, ts):
    # the in-place step does the allocating step's operations in its order,
    # rescales included, in both orientations
    wm = WeightModel.from_qmodel(QModelParams(q=q, sigma=0.8, rho0=0.3, rho1=0.25))
    tables = motzkin._weight_tables(wm, _boundary_cutoff(wm, L) + L + 2)
    a, b, c, av, bv = tables
    ts = [1.0] * L if ts is None else ts
    up_T, down_T = _transposed(a, c)
    for args in ((av, a, b, c, ts), (bv, up_T, b, down_T, ts)):
        got, got_scale = motzkin._power(*args)
        want, want_scale = power_allocating(*args)
        assert got_scale == want_scale and np.array_equal(got, want)
    # the sampler's backward table holds the yields of _steps, which are the
    # rows of the max-normalized allocating loop up to a positive factor;
    # entries below 1e-200 of the row max hold their rounding from where
    # the two loops underflowed at different levels
    rows = [row.copy() for row, _ in motzkin._steps(bv, up_T, b, down_T, [1.0] * L)]
    for got, want in zip(rows[::-1], backward_vectors_allocating(tables, L), strict=True):
        got = got / got.max()
        kept = want > 1e-200
        assert np.allclose(got[kept], want[kept], rtol=1e-13, atol=0.0)


def _power_case(case):
    """(v, up, flat, down, ts) on 60 states: weights in [0.5, 2] times a
    scale that moves the peak by about that factor per step, or rows that
    move it by exactly the bound that _power skips its reads by."""
    rng = np.random.default_rng(12)
    a, b, c = rng.uniform(0.5, 2.0, (3, 60))
    v = rng.uniform(0.0, 1.0, 60)
    ts = [1.0] * 40
    if case == "grows-at-bound":
        # v = 1 grows by the column sum G = 2 * 5.5e39 + 5.5e29 inside
        # [20, 40), and G^5 = 1.6e200: the read after 4 steps that the bound
        # skips is the one that rescales
        return np.ones(60), np.full(60, 5.5e39), np.full(60, 5.5e29), np.full(60, 5.5e39), ts
    if case == "shrinks-at-bound":
        # the peak sits on the smallest flat weight 1e-41, which it shrinks by
        b = 1e-39 * a
        b[30] = 1e-41
        return np.eye(60)[30], np.full(60, 1e-300), b, np.full(60, 1e-300), ts
    scale = {"dies": 1e-170, "grows": 1e60, "shrinks": 1e-60, "ts": 1.0, "flat0": 1e45}[case]
    if case == "ts":
        # slow growth, with room for hundreds of unread steps, up to a jump
        # to t = 1e80, past which the peak crosses 1e200 within 3 steps
        ts = [0.7, 0.7, 1.4, 1.4, 1.4, 0.9] * 4 + [1e80] * 4 + [0.7, 1.4, 0.9] * 10
    if case == "flat0":
        b[7] = 0.0
    return v, scale * a, scale * b, scale * c, ts


@pytest.mark.parametrize("case", ["dies", "grows", "shrinks", "ts", "flat0",
                                  "grows-at-bound", "shrinks-at-bound"])
def test_power_matches_allocating_loop_where_peak_reads_are_skipped(case):
    # a vector that dies out (-inf), peaks that cross 1e200 or 1e-200 within
    # a few steps, rows that change every few steps, a zero flat weight, and
    # peaks that move by the full factor of the skipping bound
    v, a, b, c, ts = _power_case(case)
    up_T, down_T = _transposed(a, c)
    for args in ((v, a, b, c, ts), (v, up_T, b, down_T, ts)):
        got, got_scale = motzkin._power(*args)
        want, want_scale = power_allocating(*args)
        assert got_scale == want_scale and np.array_equal(got, want)
    if case == "dies":
        assert got_scale == -math.inf
    else:
        assert math.isfinite(got_scale) and got_scale != 0.0


def test_moment_ratio_limits_pick_out_right_endpoint():
    # int F x^L nu / int x^L nu -> F(B) for F(x) = x and an indicator
    m = QModelParams(q=0.5, sigma=0.7)
    B = m.B
    errs_x = []
    errs_ind = []
    for L in (50, 100, 200):
        den = nu_integrate(lambda x: (x / B) ** L, m)
        num = nu_integrate(lambda x: x * (x / B) ** L, m)
        errs_x.append(abs(num / den - B))
        # indicator of x > 0.95 B, i.e. theta < theta_c; the B/2 cutoff is
        # below fp resolution already at L = 50
        theta_c = math.acos(0.95 * (1 + m.sigma) - m.sigma)
        num_ind = gauss_legendre(lambda th: np.exp(log_density_times_sine(th, m))
                                 * ((np.cos(th) + m.sigma) / (1 + m.sigma)) ** L, 0.0, theta_c)
        errs_ind.append(abs(num_ind / den - 1.0))
    assert errs_x[0] > errs_x[1] > errs_x[2]
    assert errs_ind[0] > errs_ind[1] > errs_ind[2]
    assert errs_ind[2] < 1e-3


# ---------------------------------------------------------------- sampling

def test_sampler_deterministic_per_seed():
    m = QModelParams(q=0.3, sigma=0.5, rho0=0.2, rho1=0.2)
    wm = WeightModel.from_qmodel(m)
    a = sample_paths(6, wm, 50, seed=123)
    b = sample_paths(6, wm, 50, seed=123)
    c = sample_paths(6, wm, 50, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_paths_are_valid():
    m = QModelParams(q=0.6, sigma=0.9, rho0=0.45, rho1=0.3)
    wm = WeightModel.from_qmodel(m)
    paths = sample_paths(12, wm, 400, seed=5)
    assert paths.min() >= 0
    steps = np.diff(paths, axis=1)
    assert np.all(np.isin(steps, (-1, 0, 1)))


def test_sampler_frequencies_match_exact_probabilities():
    m = QModelParams(q=0.0, sigma=0.5, rho0=0.2, rho1=0.2)
    wm = WeightModel.from_qmodel(m)
    L, N = 2, 1_000_000
    paths = sample_paths(L, wm, N, seed=77)
    # exact probabilities over all paths with endpoints below a safe cutoff
    C = normalizing_constant(L, wm)
    freqs: dict[tuple[int, ...], float] = {}
    for mm in range(30):
        from motzkinq.motzkin import enumerate_paths as enum
        for p in enum(L, mm, 0) + enum(L, mm, 1) + [x for n in range(2, 30) for x in enum(L, mm, n)]:
            prob = wm.alpha(p.altitudes[0]) * wm.beta(p.altitudes[-1]) * path_weight(p, wm) / C
            if prob > 1e-7:
                freqs[p.altitudes] = prob
    counts: dict[tuple[int, ...], int] = {}
    for row in map(tuple, paths):
        counts[row] = counts.get(row, 0) + 1
    for alts, prob in freqs.items():
        if prob < 1e-4:
            continue
        se = math.sqrt(prob * (1 - prob) / N)
        assert abs(counts.get(alts, 0) / N - prob) <= 4 * se + 1e-12


def test_sampler_initial_marginal_matches_generating_function():
    m = QModelParams(q=0.4, sigma=0.7, rho0=0.3, rho1=0.25)
    wm = WeightModel.from_qmodel(m)
    L, N, z = 5, 200_000, 0.6
    paths = sample_paths(L, wm, N, seed=31)
    emp = float(np.mean(np.power(z, paths[:, 0])))
    exact = matrix_ansatz_expectation(z, 1.0, [], [], L, wm)
    se = float(np.std(np.power(z, paths[:, 0]))) / math.sqrt(N)
    assert abs(emp - exact) <= 4 * se


def test_sampler_table_cap_checked_before_the_backward_pass(monkeypatch):
    # T = 691 at q = 0.99, rho0 = 0.8: the first height's table, 4001 x 1262,
    # fits and its bound fails; the doubled height's, 4001 x 2523, passes
    # 2^23 entries and raises before its pass
    widths = []
    real = motzkin._steps

    def counted(v, *args):
        widths.append(v.shape[-1])
        return real(v, *args)

    monkeypatch.setattr(motzkin, "_steps", counted)
    wm = WeightModel.from_qmodel(QModelParams(q=0.99, sigma=0.8, rho0=0.8, rho1=0.25))
    with pytest.raises(CapacityError, match=r"L=4000, S=2523 passes SAMPLE_TABLE_CAP"):
        sample_paths(4000, wm, 10, seed=1)
    assert widths == [1262]
    assert all(4001 * w <= motzkin.SAMPLE_TABLE_CAP for w in widths)


def test_sampler_default_cap_raises_when_the_cut_loses_mass(monkeypatch):
    monkeypatch.setattr(motzkin, "_boundary_cutoff", lambda wm, L: 9)
    wm = WeightModel.from_qmodel(QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25))
    with pytest.raises(CapacityError, match=r"initial altitudes past T=9 carry mass "
                                            r"3.52e-04 > 1e-11 at L=200"):
        sample_paths(200, wm, 10, seed=1)


@pytest.mark.parametrize("L", [50, 300])
def test_sampler_default_cap_grows_as_q_approaches_one(L):
    # u_0 grows with the altitude at q = 0.99, so the old geometric boundary
    # cutoff discarded initial altitudes; the initial-law cut keeps them
    wm = WeightModel.from_qmodel(QModelParams(q=0.99, sigma=0.8, rho0=0.3, rho1=0.25))
    N = 4000
    got = sample_paths(L, wm, N, seed=3)
    exact = end_laws(wm, L, 1600)
    for col, law in zip((0, L), exact):
        a = got[:, col].astype(float)
        mean = float(np.arange(len(law)) @ law)
        assert abs(a.mean() - mean) <= 4 * a.std() / math.sqrt(N), col


# the ids keep the test names of the time when the q = 0.99 model ran at an
# explicit cap of 800; it runs at the boundary cutoff like the others
ORACLE_MODELS = [
    pytest.param(QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25), id="model0-None"),
    pytest.param(QModelParams(q=0.5, sigma=0.01, rho0=0.3, rho1=0.25), id="model1-None"),
    pytest.param(QModelParams(q=0.4, sigma=0.7, rho0=0.0, rho1=0.25), id="model2-None"),
    pytest.param(QModelParams(q=0.99, sigma=0.8, rho0=0.3, rho1=0.25), id="model3-800"),
]


@pytest.mark.parametrize("L", [1, 2, 50, 300])
@pytest.mark.parametrize("model", ORACLE_MODELS)
def test_sampler_matches_per_state_oracle_bitwise(model, L):
    # the level tables draw the same uniforms and do the same floating-point
    # operations as the per-path gathers, so the paths agree exactly
    wm = WeightModel.from_qmodel(model)
    for seed in (0, 1, 17):
        got = sample_paths(L, wm, 300, seed)
        want = sample_paths_per_state(L, wm, 300, seed)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("L", [31, 32, 33, 37, 64, 65])
def test_sampler_move_table_blocks_match_per_state_oracle_bitwise(L):
    # L off and on multiples of the 32-step move-table block; 9000 paths
    # are more than one draw of 2^13 uniforms holds, so each draw is one step
    wm = WeightModel.from_qmodel(QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25))
    got = sample_paths(L, wm, 9000, seed=21)
    assert np.array_equal(got, sample_paths_per_state(L, wm, 9000, seed=21))


@pytest.mark.parametrize("L, seed, name", [(-1, 0, "L"), (5, -1, "seed")])
def test_sampler_names_a_negative_argument(L, seed, name):
    wm = WeightModel.from_qmodel(QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25))
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got -1$"):
        sample_paths(L, wm, 10, seed)
