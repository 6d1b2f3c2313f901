"""Weighted Motzkin paths: enumeration, transfer-operator computations,
the equivalent orthogonal-polynomial integral representation, and exact
path sampling.

A path of length L is its altitude sequence (g_0, ..., g_L) with steps in
{-1, 0, +1} staying nonnegative.  A weight model assigns multiplicative
edge weights by the altitude at the left end of each step (up a_n, flat
b_n, down c_n) plus boundary weights alpha_{g_0}, beta_{g_L}; the path
probability is alpha beta w(path) / C_L.

All transfer computations use the tridiagonal structure directly (O(S) per
step); dense operator matrices are never formed.  Every multi-step pass of
a length-L route (the transfer product, the integral route's two end
vectors, the exact laws of :mod:`motzkinq.chains`) is one scaled power,
:func:`_power`, which carries its scale as a log; the sampler keeps every
row of its backward table, each divided by its max.  The transfer and the
integral route take their arguments through one check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ascpoly import (QModelParams, _DensityUnderflow, _initial_law_probs, _moment_integral,
                      q_number)
from .errors import CapacityError

__all__ = [
    "MotzkinPath",
    "WeightModel",
    "ENUMERATION_CAP",
    "altitude_table",
    "enumerate_paths",
    "path_weight",
    "table_weights",
    "normalizing_constant",
    "log_normalizing_constant",
    "matrix_ansatz_expectation",
    "integral_expectation",
    "integral_normalizing_constant",
    "sample_paths",
    "path_line",
]

ENUMERATION_CAP = 14
# share of the boundary mass that the transfer and integral routes may drop
# past the boundary cutoff
TAIL_TOL = 1e-12
# entries (L+1) x S of the largest backward table that sample_paths
# allocates (64 MB of float64)
SAMPLE_TABLE_CAP = 1 << 23


@dataclass(frozen=True)
class MotzkinPath:
    """Altitude sequence of a Motzkin path."""

    altitudes: tuple[int, ...]

    def __post_init__(self) -> None:
        alts = self.altitudes
        if len(alts) < 1:
            raise ValueError("a path needs at least one altitude")
        if any(a < 0 for a in alts):
            raise ValueError(f"altitudes must be nonnegative: {alts}")
        if any(abs(b - a) > 1 for a, b in zip(alts, alts[1:])):
            raise ValueError(f"steps must lie in {{-1,0,1}}: {alts}")

    @property
    def length(self) -> int:
        return len(self.altitudes) - 1

    def __iter__(self):
        return iter(self.altitudes)


@dataclass(frozen=True)
class WeightModel:
    """Edge weights (up, flat, down) by left altitude plus boundary weights.

    ``qmodel`` tags instances that come from the q-weighted specialization
    (up [n+2]_q, flat 2 sigma [n+1]_q, down [n]_q, alpha_n rho0^n [n+1]_q,
    beta_n rho1^n); those unlock the orthogonal-polynomial machinery.
    """

    up: Callable[[int], float]
    flat: Callable[[int], float]
    down: Callable[[int], float]
    alpha: Callable[[int], float]
    beta: Callable[[int], float]
    qmodel: QModelParams | None = field(default=None, compare=False)

    @staticmethod
    def from_qmodel(m: QModelParams) -> "WeightModel":
        q = m.q
        return WeightModel(
            up=lambda n: q_number(n + 2, q),
            flat=lambda n: 2.0 * m.sigma * q_number(n + 1, q),
            down=lambda n: q_number(n, q),
            alpha=lambda n: m.rho0**n * q_number(n + 1, q),
            beta=lambda n: m.rho1**n,
            qmodel=m,
        )

    def weight_arrays(self, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ns = range(size)
        a = np.array([self.up(n) for n in ns])
        b = np.array([self.flat(n) for n in ns])
        c = np.array([self.down(n) for n in ns])
        if np.any(a <= 0.0) or np.any(b < 0.0) or np.any(c[1:] <= 0.0) or c[0] < 0.0:
            raise ValueError("need up > 0, flat >= 0, down > 0 (down at 0 may be 0)")
        return a, b, c

    def boundary_arrays(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        av = np.array([self.alpha(n) for n in range(size)])
        bv = np.array([self.beta(n) for n in range(size)])
        if np.any(av < 0.0) or np.any(bv < 0.0):
            raise ValueError("boundary weights must be nonnegative")
        return av, bv


# -------------------------------------------------------------- enumeration

_STEPS = np.array([1, 0, -1], dtype=np.int64)


def altitude_table(L: int, m: int, n: int | None) -> np.ndarray:
    """Altitudes of all Motzkin paths of length L from altitude m to
    altitude n (any end when n is None), as an int64 array (count, L+1).

    Built level by level: every prefix is extended by the steps +1, 0, -1
    in that order and kept while h >= 0 and |h - n| <= the steps left, so
    the rows come in lexicographic order of their step sequences with +1
    first.  Guarded at L <= ENUMERATION_CAP.
    """
    if L < 0 or m < 0 or (n is not None and n < 0):
        raise ValueError("L, m, n must be nonnegative")
    if L > ENUMERATION_CAP:
        raise CapacityError(f"enumeration guard: L={L} exceeds {ENUMERATION_CAP}")
    if n is not None and abs(m - n) > L:
        return np.empty((0, L + 1), dtype=np.int64)
    table = np.full((1, 1), m, dtype=np.int64)
    for remaining in range(L - 1, -1, -1):
        nxt = table[:, -1:] + _STEPS
        keep = nxt >= 0
        if n is not None:
            keep &= np.abs(nxt - n) <= remaining
        rows, cols = np.nonzero(keep)
        table = np.column_stack((table[rows], nxt[rows, cols]))
    return table


def enumerate_paths(L: int, m: int, n: int) -> list[MotzkinPath]:
    """All Motzkin paths of length L from altitude m to altitude n, in the
    row order of :func:`altitude_table`.  Guarded at L <= 14."""
    return [MotzkinPath(tuple(row)) for row in altitude_table(L, m, n).tolist()]


def path_weight(path: MotzkinPath, model: WeightModel) -> float:
    """Product of edge weights taken at the left altitude of each step."""
    w = 1.0
    alts = path.altitudes
    for a, b in zip(alts, alts[1:]):
        if b > a:
            w *= model.up(a)
        elif b < a:
            w *= model.down(a)
        else:
            w *= model.flat(a)
    return w


def table_weights(table: np.ndarray, model: WeightModel) -> np.ndarray:
    """:func:`path_weight` of every row of an altitude table, bit for bit."""
    return _table_product(table, *model.weight_arrays(int(table.max(initial=0)) + 1))


def _table_product(table: np.ndarray, up: np.ndarray, flat: np.ndarray,
                   down: np.ndarray) -> np.ndarray:
    """Per row of an altitude table, the weights up[h], flat[h] or down[h] of
    its steps from altitude h, multiplied in from the left starting at 1.0."""
    w = np.ones(table.shape[0])
    for left, right in zip(table.T, table.T[1:]):
        w *= np.where(right > left, up[left], np.where(right < left, down[left], flat[left]))
    return w


# --------------------------------------------------------- transfer operator

def _tridiagonal_step(v: np.ndarray, up: np.ndarray, flat: np.ndarray,
                      down: np.ndarray) -> np.ndarray:
    """One step v -> v M of the tridiagonal operator with M[n, n+1] = up[n],
    M[n, n] = flat[n] and M[n, n-1] = down[n] on states 0..S-1; the flux
    up[-1] v[-1] past the top is dropped.  The weighted operator M_t passes
    t up and down / t; the column step v -> M v passes :func:`_transposed`."""
    new = flat * v
    new[1:] += up[:-1] * v[:-1]
    new[:-1] += down[1:] * v[1:]
    return new


def _transposed(up: np.ndarray, down: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(up, down) of the transposed operator: up_T[n] = down[n+1] and
    down_T[n] = up[n-1]."""
    return np.append(down[1:], 0.0), np.append(0.0, up[:-1])


def _power(v: np.ndarray, up: np.ndarray, flat: np.ndarray, down: np.ndarray,
           ts) -> tuple[np.ndarray, float]:
    """(v', log_scale) with v M_{t_1} ... M_{t_n} = v' exp(log_scale), M_t
    the step of :func:`_tridiagonal_step` with up t and down / t, rebuilt
    only where t changes; the column pass v -> M_t v passes
    :func:`_transposed`.  v is nonnegative, so its peak is its max, and v'
    is divided by it whenever it leaves [1e-200, 1e200]; (v', -inf) once
    v dies out."""
    log_scale = 0.0
    prev = None
    for t in ts:
        if t != prev:
            tu, dt, prev = t * up, down / t, t
        v = _tridiagonal_step(v, tu, flat, dt)
        peak = float(v.max())
        if peak == 0.0:
            return v, -math.inf
        if peak > 1e200 or peak < 1e-200:
            v = v / peak
            log_scale += math.log(peak)
    return v, log_scale


def _require_qmodel(model: WeightModel) -> QModelParams:
    if model.qmodel is None:
        raise ValueError("this route needs the q-model weights (WeightModel.from_qmodel)")
    return model.qmodel


def _boundary_cutoff(model: WeightModel, tail_tol: float, L: int) -> int:
    """Largest initial altitude T that the finite-length routes keep: the
    larger length of the two chain initial laws rho^n s_n / C of the
    q-model cut at tail_tol.

    The length-L law of g_0 is the law with rho0 tilted by a weight that
    falls with the altitude, so its mass past T stays below that law's tail
    at every L; g_L and rho1 likewise.  This is measured, not proven, and
    the exact laws and the sampler check it.  Where the law with the larger
    rho is not cut within RECURRENCE_CAP levels, T is the other law's length
    plus L, as |g_0 - g_L| <= L.  ValueError without the q-model.
    """
    qm = _require_qmodel(model)
    lo, hi = sorted((qm.rho0, qm.rho1))
    t_lo = len(_initial_law_probs(qm, lo, tail_tol))
    try:
        return max(t_lo, len(_initial_law_probs(qm, hi, tail_tol)))
    except OverflowError:
        return t_lo + L


def _weight_tables(model: WeightModel, size: int) -> tuple[np.ndarray, ...]:
    """(up, flat, down, alpha, beta) tabulated on altitudes 0..size-1."""
    return (*model.weight_arrays(size), *model.boundary_arrays(size))


def _bilinear_log(tables: tuple[np.ndarray, ...], z0: float, z1: float,
                  tlist: list[float]) -> tuple[float, float]:
    """(mantissa, log_scale) of V_alpha(z0)^T M_{t_1} ... M_{t_L} W_beta(z1)
    on the truncated operator of :func:`_weight_tables`, by :func:`_power`."""
    a, b, c, av, bv = tables
    powers = np.arange(len(a))
    v, log_scale = _power(av * np.power(float(z0), powers), a, b, c, tlist)
    return float(np.dot(v, bv * np.power(float(z1), powers))), log_scale


def log_normalizing_constant(L: int, model: WeightModel, tail_tol: float = TAIL_TOL) -> float:
    """log of the normalizing constant C_L = sum alpha_m W_{m,n} beta_n over
    the initial altitudes m <= T, T the boundary cutoff at tail_tol."""
    tables = _weight_tables(model, _boundary_cutoff(model, tail_tol, L) + L + 2)
    val, lg = _bilinear_log(tables, 1.0, 1.0, [1.0] * L)
    if val <= 0.0:
        raise ValueError("normalizing constant must be positive")
    return math.log(val) + lg


def normalizing_constant(L: int, model: WeightModel, tail_tol: float = TAIL_TOL) -> float:
    lg = log_normalizing_constant(L, model, tail_tol)
    if lg > 700.0:
        raise OverflowError(f"normalizing constant exp({lg:.1f}) overflows; "
                            "use log_normalizing_constant")
    return math.exp(lg)


def _functional_args(z0: float, z1: float, t: list[float], s: list[float],
                     L: int) -> tuple[list[float], list[float]]:
    """(t, s) as lists; ValueError unless len(t) = len(s) = K with 2K <= L,
    z0, z1 in (0, 1] and every t_j, s_j > 0."""
    t, s = list(t), list(s)
    K = len(t)
    if len(s) != K:
        raise ValueError("t and s must have equal length")
    if 2 * K > L:
        raise ValueError(f"need 2K <= L, got K={K}, L={L}")
    if not (0.0 < z0 <= 1.0 and 0.0 < z1 <= 1.0):
        raise ValueError("z0, z1 must lie in (0, 1]")
    if any(tj <= 0 for tj in t) or any(sj <= 0 for sj in s):
        raise ValueError("t_j and s_j must be positive")
    return t, s


def matrix_ansatz_expectation(z0: float, z1: float, t: list[float], s: list[float],
                              L: int, model: WeightModel) -> float:
    """Joint generating functional
    E[z0^{g_0} prod_j t_j^{g_j - g_{j-1}} prod_j s_j^{-(g_{L-j+1} - g_{L-j})} z1^{g_L}]
    via the transfer-operator product sandwiched between boundary vectors,
    on S = T + L + 2 altitudes, which every path from an initial altitude
    m <= T stays below, T the boundary cutoff at TAIL_TOL.  Numerator and
    denominator share the weight tables.
    """
    t, s = _functional_args(z0, z1, t, s, L)
    K = len(t)
    tlist = t + [1.0] * (L - 2 * K) + [1.0 / sj for sj in reversed(s)]
    tables = _weight_tables(model, _boundary_cutoff(model, TAIL_TOL, L) + L + 2)
    num, lg_num = _bilinear_log(tables, z0, z1, tlist)
    den, lg_den = _bilinear_log(tables, 1.0, 1.0, [1.0] * L)
    return num / den * math.exp(lg_num - lg_den)


# ------------------------------------------------- integral representation

def _psi_functions(tables: tuple[np.ndarray, ...], z0: float, z1: float,
                   t: list[float], s: list[float]) -> tuple[np.ndarray, np.ndarray, float]:
    """(v, w, log_scale): the row vector V_alpha(z0)^T M_{t_1}..M_{t_K} and
    the column vector M_{1/s_K}..M_{1/s_1} W_beta(z1) on the truncated
    operator of :func:`_weight_tables`, both by :func:`_power` and divided
    by their peaks, with the log of the product of the two scales."""
    a, b, c, av, bv = tables
    powers = np.arange(len(a))
    v, lv = _power(av * np.power(float(z0), powers), a, b, c, t)
    up_T, down_T = _transposed(a, c)
    w, lw = _power(bv * np.power(float(z1), powers), up_T, b, down_T, s)
    pv, pw = float(v.max()), float(w.max())
    return v / pv, w / pw, lv + lw + math.log(pv) + math.log(pw)


def _positive_moments(qm: QModelParams, L: int, *terms) -> list[float]:
    """:func:`motzkinq.ascpoly._moment_integral` of each term
    (v, w, power, what), positive here.  OverflowError naming L, q and the
    first ``what`` that comes out as 0, else the first whose density
    underflows where its integrand carries more than REL_TOL of its largest
    value; both happen when the density underflows where (x/B)^power has
    its mass."""
    vals, lost = [], []
    for v, w, power, what in terms:
        try:
            vals.append(_moment_integral(v, w, power, qm))
        except _DensityUnderflow:
            vals.append(math.nan)
            lost.append(what)
    failed = [what for val, (*_, what) in zip(vals, terms) if val == 0.0] + lost
    if failed:
        raise OverflowError(f"moment integral of {failed[0]} underflows to 0 at L={L}, "
                            f"q={qm.q:g}: the orthogonality density underflows where (x/B)^L "
                            "has its mass; use the transfer route (matrix_ansatz_expectation, "
                            "log_normalizing_constant)")
    return vals


def integral_expectation(z0: float, z1: float, t: list[float], s: list[float],
                         L: int, model: WeightModel) -> float:
    """Same expectation as :func:`matrix_ansatz_expectation`, with the same
    argument check, evaluated as (1/C_L) int x^{L-2K} Psi_0(x) Psi_1(x) nu(dx)
    against the q-model orthogonality measure, both vectors truncated at
    S = T + 2K + 8, T the boundary cutoff at TAIL_TOL.  Powers are taken of
    x/B, and Psi_0, Psi_1 divided by their peaks with the scales combined in
    log space, so the integrand stays bounded for every L and K <= L/2.
    OverflowError when either integral loses the part of its mass where the
    density underflows (q close to 1 at large L).
    """
    qm = _require_qmodel(model)
    t, s = _functional_args(z0, z1, t, s, L)
    K = len(t)
    tables = _weight_tables(model, _boundary_cutoff(model, TAIL_TOL, L) + 2 * K + 8)
    v1, w1, lg_den = _psi_functions(tables, 1.0, 1.0, [], [])
    v, w, lg_num = _psi_functions(tables, z0, z1, t, s)
    den, num = _positive_moments(qm, L, (v1, w1, L, "C_L / B^L"),
                                 (v, w, L - 2 * K, "the expectation's numerator"))
    return num / den * math.exp(lg_num - lg_den - 2 * K * math.log(qm.B))


def integral_normalizing_constant(L: int, model: WeightModel) -> float:
    """C_L as the moment integral int x^L (V^T P)(W^T Q) nu(dx), both
    vectors truncated at S = T + 8, T the boundary cutoff at TAIL_TOL."""
    qm = _require_qmodel(model)
    B = qm.B
    tables = _weight_tables(model, _boundary_cutoff(model, TAIL_TOL, L) + 8)
    v1, w1, log_scale = _psi_functions(tables, 1.0, 1.0, [], [])
    den, = _positive_moments(qm, L, (v1, w1, L, "C_L / B^L"))
    log_value = math.log(den) + log_scale + L * math.log(B)
    if log_value > 700.0:
        raise OverflowError(f"integral normalizing constant exp({log_value:.1f}) at L={L}, "
                            f"B={B:g} overflows; use log_normalizing_constant")
    return math.exp(log_value)


# ------------------------------------------------------------------ sampling

def _initial_mass_past(av: np.ndarray, u0: np.ndarray, T: int, L: int, bound: float) -> float:
    """Share of the initial-altitude mass alpha_m u_0[m] at altitudes m > T;
    CapacityError naming T, L and the share when it is above bound."""
    p0 = av * u0
    total = float(np.sum(p0))
    if not total > 0.0:
        raise ValueError("initial-altitude mass alpha_m u_0[m] is not positive")
    lost = float(np.sum(p0[T + 1:])) / total
    if lost > bound:
        raise CapacityError(f"initial altitudes past T={T} carry mass {lost:.2e} "
                            f"> {bound:g} at L={L}")
    return lost


def _backward_vectors(tables: tuple[np.ndarray, ...], L: int) -> np.ndarray:
    """Rows u_k = M_1^{L-k} W_beta(1) on the altitudes of
    :func:`_weight_tables`, max-normalized per row (ratios of consecutive
    rows are renormalized at sampling time)."""
    a, b, c, _, bv = tables
    up_T, down_T = _transposed(a, c)
    u = np.empty((L + 1, len(a)))
    u[L] = bv / np.max(bv)
    for k in range(L - 1, -1, -1):
        v = _tridiagonal_step(u[k + 1], up_T, b, down_T)
        u[k] = v / v.max()
    return u


def sample_paths(L: int, model: WeightModel, count: int, seed: int,
                 tail_tol: float = TAIL_TOL) -> np.ndarray:
    """Exact samples from the path measure, as an int array (count, L+1).

    Sequential sampler: the initial altitude is drawn proportionally to
    alpha_m u_0[m], then every step proportionally to edge weight times the
    next backward vector.  Step k tabulates, once per level h, the cumulative
    weights up, up + flat and up + flat + down of the three moves; each path
    then gathers its three entries and takes the move its uniform lands in.
    Deterministic for a fixed seed.

    Initial altitudes are at most the boundary cutoff T, and the backward
    table (L+1) x (T+L+2) must fit in SAMPLE_TABLE_CAP entries.
    CapacityError when the table does not fit, or when the initial
    altitudes past T carry more than 10 tail_tol of the mass alpha_m u_0[m].
    """
    if count < 1:
        raise ValueError("count must be positive")
    T = _boundary_cutoff(model, tail_tol, L)
    S = T + L + 2
    if (L + 1) * S > SAMPLE_TABLE_CAP:
        raise CapacityError(f"backward table of (L+1) x S entries at L={L}, S={S} "
                            f"passes SAMPLE_TABLE_CAP={SAMPLE_TABLE_CAP} entries")
    tables = _weight_tables(model, S)
    a, b, c, av, _ = tables
    u = _backward_vectors(tables, L)
    _initial_mass_past(av, u[0], T, L, 10 * tail_tol)
    p0 = (av * u[0])[:T + 1]
    p0 = p0 / np.sum(p0)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(p0)
    states = np.searchsorted(cdf, rng.random(count), side="right").astype(np.int64)
    paths = np.empty((count, L + 1), dtype=np.int64)
    paths[:, 0] = states
    down = np.zeros(S - 1)  # no down move at level 0
    for k in range(L):
        nxt = u[k + 1]
        up = a[:-1] * nxt[1:]
        upflat = up + b[:-1] * nxt[:-1]
        np.multiply(c[1:-1], nxt[:-2], out=down[1:])
        total = upflat + down
        r = rng.random(count) * total[states]
        states = states + 1 - (r >= up[states]) - (r >= upflat[states])
        paths[:, k + 1] = states
    return paths


# ------------------------------------------------------------- serialization

def path_line(path: MotzkinPath) -> str:
    """One path per line: comma-separated altitudes."""
    return ",".join(str(a) for a in path.altitudes)
