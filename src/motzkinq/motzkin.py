"""Weighted Motzkin paths: enumeration, transfer-operator computations,
the equivalent orthogonal-polynomial integral representation, and exact
path sampling.

A path of length L is its altitude sequence (g_0, ..., g_L) with steps in
{-1, 0, +1} staying nonnegative.  A weight model assigns multiplicative
edge weights by the altitude at the left end of each step (up a_n, flat
b_n, down c_n) plus boundary weights alpha_{g_0}, beta_{g_L}; the path
probability is alpha beta w(path) / C_L.

All transfer computations use the tridiagonal structure directly (O(S) per
step); dense operator matrices are never formed.  Every step of every pass
in the package is :func:`_tridiagonal_step`, which writes in place into a
buffer its caller owns.  Every exact multi-step pass (the transfer product,
the integral route's end vectors, the backward pass, the chains' k-step
laws, the lattice point's exact branches) is the loop :func:`_steps`
(:func:`_power` is its last vector), on one vector or a stack, which
carries its scale as a log and reads the peak only after steps where
bounds on its growth let it leave range.  One backward pass,
:func:`_backward_table`, pulls the end columns back for the sampler and
for the exact laws of ``chains``; the sampler tabulates its move weights
for a block of steps at a time on the levels its paths can reach.  The
transfer and the backward pass step on O(sqrt L) altitudes above the
boundary cut plus one absorbing top state, whose final entry, weighted by
the q-model's harmonic vectors, bounds what the height drops; the height
doubles until that bound is below eps / 16 of the value.  The two finite-L
routes, :func:`_transfer_logs` and :func:`_integral_logs`, each take passes
(z0, z1, t, s), checked by :func:`_functional_args`, and return one
(mantissa, log_scale) per pass.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numerics
from .ascpoly import QModelParams, _initial_law_probs, _moment_integral, log_s_values, q_number
from .errors import CapacityError
from .numerics import _EPS

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
# entries of the largest table of rows that the backward pass keeps, (L+1)
# x S for sample_paths (64 MB of float64)
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

def _step_views(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, v[..., :-1], v[..., 1:]): the views of a vector or a stack of them
    that :func:`_tridiagonal_step` reads or writes, made once per pass."""
    return v, v[..., :-1], v[..., 1:]


def _step_rows(up: np.ndarray, flat: np.ndarray,
               down: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat, up[:-1], down[1:]): the rows that :func:`_tridiagonal_step`
    reads, made once per pass."""
    return flat, up[:-1], down[1:]


def _tridiagonal_step(v: tuple, out: tuple, rows: tuple, work: np.ndarray) -> None:
    """out <- v M, one step of the tridiagonal operator with M[n, n+1] =
    up[n], M[n, n] = flat[n] and M[n, n-1] = down[n] on states 0..S-1; the
    flux up[-1] v[-1] past the top is dropped.  v and out are the
    :func:`_step_views` of two distinct length-S vectors or stacks (on the
    last axis), rows is :func:`_step_rows` and work a length-(S-1) work row
    of that stack shape, so a step allocates nothing.  out[n] = flat[n] v[n]
    + up[n-1] v[n-1] + down[n+1] v[n+1], added in that order.  The weighted
    operator M_t passes t up and down / t; the column step v -> M v passes
    :func:`_transposed`."""
    (v, v_lo, v_hi), (new, new_lo, new_hi), (flat, up_lo, down_hi) = v, out, rows
    np.multiply(flat, v, out=new)
    np.multiply(up_lo, v_lo, out=work)
    new_hi += work
    np.multiply(down_hi, v_hi, out=work)
    new_lo += work


def _transposed(up: np.ndarray, down: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(up, down) of the transposed operator: up_T[n] = down[n+1] and
    down_T[n] = up[n-1]."""
    return np.append(down[1:], 0.0), np.append(0.0, up[:-1])


def _steps(v: np.ndarray, up: np.ndarray, flat: np.ndarray, down: np.ndarray, ts):
    """Yield (v_j, log_scale_j) for j = 0..n, with v M_{t_1} ... M_{t_j} =
    v_j exp(log_scale_j), M_t the step of :func:`_tridiagonal_step` with up
    t and down / t, rebuilt only where t changes; the column pass
    v -> M_t v passes :func:`_transposed`.  v is nonnegative, one vector or
    a stack stepped on its last axis, so its peak is its max, and v_j is
    divided by it after every step that leaves it outside [1e-200, 1e200];
    the last yield is (v_j, -inf) once v dies out.  Two buffers take turns,
    so v_j is overwritten two steps on; v itself is not written.

    The peak is read only after steps where it may have left that range:
    after a read of peak p, k steps of rows with the rates of
    :func:`_peak_rates` keep it within [p e^(-k shrink), p e^(k grow)], so
    the steps that this bound keeps inside the range are not read
    (:func:`_unread_steps`), and the rescales and the scale are those of a
    read after every step.  The first step with a new t is always read."""
    log_scale = 0.0
    prev = None
    v = np.array(v, dtype=float)
    cur, nxt = _step_views(v), _step_views(np.empty_like(v))
    work = np.empty_like(cur[1])
    unread = 0  # steps left that need no peak read
    yield v, log_scale
    for t in ts:
        if t != prev:
            rows, prev = _step_rows(t * up, flat, down / t), t
            grow, shrink = _peak_rates(rows)
            unread = 0
        _tridiagonal_step(cur, nxt, rows, work)
        cur, nxt = nxt, cur
        v = cur[0]
        if unread:
            unread -= 1
        else:
            peak = float(v.max())
            if peak == 0.0:
                yield v, -math.inf
                return
            if peak > 1e200 or peak < 1e-200:
                v /= peak
                log_scale += math.log(peak)
                peak = 1.0
            unread = _unread_steps(peak, grow, shrink)
        yield v, log_scale


def _power(v: np.ndarray, up: np.ndarray, flat: np.ndarray, down: np.ndarray,
           ts) -> tuple[np.ndarray, float]:
    """(v', log_scale) with v M_{t_1} ... M_{t_n} = v' exp(log_scale): the
    last yield of :func:`_steps`, kept by a deque of length 1."""
    return collections.deque(_steps(v, up, flat, down, ts), maxlen=1)[0]


# log of the peak range of _steps, less a margin far above the rounding of
# the budget arithmetic in _unread_steps
_LOG_PEAK_ROOM = math.log(1e200) - 1e-3


def _peak_rates(rows: tuple[np.ndarray, np.ndarray, np.ndarray]) -> tuple[float, float]:
    """(grow, shrink): one :func:`_tridiagonal_step` of these rows moves a
    nonnegative vector's peak by a factor within [e^-shrink, e^grow].  Entry
    n of the step is at most the column sum flat[n] + up[n-1] + down[n+1]
    times the peak and at least flat[n] times it, both up to a few roundings,
    so grow is the log of the largest column sum and shrink minus the log of
    the smallest flat weight, each widened by 16 ulp.  shrink is inf where a
    flat weight is 0 (or NaN), and then every step is read."""
    flat, up_lo, down_hi = rows
    colsum = flat.copy()
    colsum[1:] += up_lo
    colsum[:-1] += down_hi
    top = float(colsum.max()) * (1.0 + 16.0 * _EPS)
    low = float(flat.min()) * (1.0 - 16.0 * _EPS)
    return (math.log(top) if top > 0.0 else -math.inf,
            -math.log(low) if low > 0.0 else math.inf)


def _unread_steps(peak: float, grow: float, shrink: float) -> int:
    """Steps after a peak read at ``peak`` in [1e-200, 1e200] whose peaks
    the rates of :func:`_peak_rates` keep inside that range."""
    log_peak = math.log(peak)
    steps = math.inf
    if grow > 0.0:
        steps = (_LOG_PEAK_ROOM - log_peak) / grow
    if shrink > 0.0:
        steps = min(steps, (_LOG_PEAK_ROOM + log_peak) / shrink)
    return max(0, int(min(steps, 1 << 62)))


def _require_qmodel(model: WeightModel) -> QModelParams:
    if model.qmodel is None:
        raise ValueError("this route needs the q-model weights (WeightModel.from_qmodel)")
    return model.qmodel


def _boundary_cutoff(model: WeightModel, L: int) -> int:
    """Largest initial altitude T that the finite-length routes keep: the
    larger length of the two chain initial laws rho^n s_n / C of the
    q-model cut at ``numerics.TAIL_TOL``.  The transfer and the backward
    pass (the sampler and the exact laws of ``chains``) step the paths on
    heights T + 8 sqrt(L) + 64, doubled up to T + L + 2 (:func:`_heights`),
    each with an absorbing top state whose final entry bounds what the
    height drops; a height is taken when that bound is at most eps / 16 of
    the value.

    The length-L law of g_0 is the law with rho0 tilted by a weight that
    falls with the altitude, so its mass past T stays below that law's tail
    at every L; g_L and rho1 likewise.  This is measured, not proven, and
    the exact laws and the sampler check it.  Where the law with the larger
    rho is not cut within RECURRENCE_CAP levels, T is the other law's length
    plus L, as |g_0 - g_L| <= L.  ValueError for a negative L or without
    the q-model.
    """
    if L < 0:
        raise ValueError(f"L must be nonnegative, got {L}")
    qm = _require_qmodel(model)
    lo, hi = sorted((qm.rho0, qm.rho1))
    t_lo = len(_initial_law_probs(qm, lo))
    try:
        return max(t_lo, len(_initial_law_probs(qm, hi)))
    except OverflowError:
        return t_lo + L


def _weight_tables(model: WeightModel, size: int) -> tuple[np.ndarray, ...]:
    """(up, flat, down, alpha, beta) tabulated on altitudes 0..size-1."""
    return (*model.weight_arrays(size), *model.boundary_arrays(size))


def _heights(model: WeightModel, T: int, L: int):
    """The tables that the transfer and the backward pass try in turn, one
    per height S': T + ceil(8 sqrt L) + 64, doubled while below T + L + 2,
    each as (:func:`_top_tables`, log s_S'), skipped where its tail bound
    diverges; last ((up, flat, down, alpha, beta) on T + L + 2 altitudes,
    None), the exact reach of the paths from initial altitudes m <= T,
    with no top state and no bound."""
    full = T + L + 2
    S = T + math.ceil(8.0 * math.sqrt(L)) + 64
    while S < full:
        topped = _top_tables(model, S)
        if topped is not None:
            yield topped
        S *= 2
    yield _weight_tables(model, full), None


def _top_tables(model: WeightModel, S: int) -> tuple[tuple[np.ndarray, ...], float] | None:
    """((up, flat, down, alpha, beta), log s_S) on altitudes 0..S-1 plus an
    absorbing top state S, or None where the tail bound below diverges.

    The top state has the self-weight B of the q-model; each route takes
    its down move out of it away, so it keeps the flux that crosses the cut
    (up[S-1] t in a forward pass, down[S] in a column pass).  Its alpha and
    beta entries bound the boundary vectors' tails in the units of the top
    state: sum_(n >= S) rho^n s_n / s_S <= rho^S / (1 - rho r_S), as the
    ratios r_n = s_(n+1) / s_n fall with n (measured), so alpha_S and
    beta_S are divided by 1 - rho r_S.  s_n comes from ``log_s_values``,
    as it leaves double range at large n."""
    qm = model.qmodel
    a, b, c, av, bv = _weight_tables(model, S + 1)
    log_s = log_s_values(S + 1, qm)
    ratio = math.exp(log_s[S + 1] - log_s[S])
    for vec, rho in ((av, qm.rho0), (bv, qm.rho1)):
        if rho * ratio >= 1.0:
            return None
        vec[S] /= 1.0 - rho * ratio
    b[S] = qm.B
    return (a, b, c, av, bv), float(log_s[S])


def _certified(value: float, top: float, log_weight: float) -> bool:
    """Whether top exp(log_weight), a bound on what the cut drops from a
    value in the same units, is at most eps / 16 of that value."""
    if not value > 0.0:
        return False
    return top == 0.0 or math.log(top) + log_weight <= math.log(_EPS / 16.0 * value)


def _bilinear_log(tables: tuple[np.ndarray, ...], z0: float, z1: float,
                  tlist: list[float]) -> tuple[float, float, float]:
    """(mantissa, log_scale, top): V_alpha(z0)^T M_{t_1} ... M_{t_L}
    W_beta(z1) on the truncated operator of :func:`_weight_tables` is
    mantissa exp(log_scale), by :func:`_power`, and top exp(log_scale) is
    the last state's final entry.  A beta of 0 at an absorbing top state
    leaves it out of the mantissa."""
    a, b, c, av, bv = tables
    powers = np.arange(len(a))
    v, log_scale = _power(av * np.power(float(z0), powers), a, b, c, tlist)
    return float(np.dot(v, bv * np.power(float(z1), powers))), log_scale, float(v[-1])


def _transfer_logs(model: WeightModel, L: int, passes) -> list[tuple[float, float]]:
    """(mantissa, log_scale) per pass (z0, z1, t, s): the value V_alpha(z0)^T
    M_{t_1}..M_{t_K} M^(L-2K) M_{1/s_K}..M_{1/s_1} W_beta(z1), K = len(t), is
    mantissa exp(log_scale), by :func:`_bilinear_log` on the first tables of
    :func:`_heights` whose top-state bound passes :func:`_certified` for all.

    A path that leaves the altitudes below S' enters the top state, which
    then grows by B per step.  The q-model's harmonic vector pi_n = s_n /
    [n+1]_q (M pi = B pi, pi_0 = 1, nondecreasing) and M_t <=
    max(t, 1/t) M entrywise bound what the path would have added by
    pi_S' prod_j max(t_j, 1/t_j) per unit of top state, as beta_n z1^n
    <= 1 <= pi_n; so that times the top's final entry bounds the drop.

    OverflowError where a pass on the full height T + L + 2 has mantissa 0
    and a finite log_scale: its vector lives, but its product with the end
    vector underflowed (q near 1 at large L)."""
    T = _boundary_cutoff(model, L)
    q = model.qmodel.q
    passes = [(z0, z1, t + [1.0] * (L - 2 * len(t)) + [1.0 / sj for sj in reversed(s)])
              for z0, z1, t, s in passes]
    tilts = [sum(abs(math.log(tj)) for tj in tlist) for _, _, tlist in passes]
    for tables, log_s in _heights(model, T, L):
        if log_s is None:
            logs = [_bilinear_log(tables, *args)[:2] for args in passes]
            for j, ((z0, z1, _), (val, lg)) in enumerate(zip(passes, logs), 1):
                if val == 0.0 and lg > -math.inf:
                    raise OverflowError(
                        f"transfer pass {j} of {len(passes)} (z0={z0}, z1={z1}) at q={q}, "
                        f"L={L} underflowed: its vector lives (log scale {lg:.6g}) but its "
                        "product with the end vector is 0; the backward-pass routes "
                        "(sample_paths, chains.finite_path_head_law, "
                        "chains.endpoint_pair_correlation) still run here")
            return logs
        a, b, c, av, bv = tables
        c[-1] = bv[-1] = 0.0  # no down move out of the top state; not in the value
        log_pi = log_s - math.log(q_number(len(a), q))
        logs = []
        for args, tilt in zip(passes, tilts):
            val, lg, top = _bilinear_log(tables, *args)
            if not _certified(val, top, log_pi + tilt):
                break
            logs.append((val, lg))
        else:
            return logs


def log_normalizing_constant(L: int, model: WeightModel) -> float:
    """log of the normalizing constant C_L = sum alpha_m W_{m,n} beta_n.

    The paths run on the first height S' of :func:`_heights`, T + 8 sqrt(L)
    + 64 doubled up to T + L + 2, T the boundary cutoff, whose absorbing
    top state bounds the weight of the paths that cross S' by at most
    eps / 16 of C_L (:func:`_transfer_logs`).  OverflowError where the pass
    underflows to 0 on the full height (q near 1 at large L)."""
    (val, lg), = _transfer_logs(model, L, [(1.0, 1.0, [], [])])
    if val <= 0.0:
        raise ValueError("normalizing constant must be positive")
    return math.log(val) + lg


def normalizing_constant(L: int, model: WeightModel) -> float:
    lg = log_normalizing_constant(L, model)
    if lg > 700.0:
        raise OverflowError(f"normalizing constant exp({lg:.1f}) overflows; "
                            "use log_normalizing_constant")
    return math.exp(lg)


def _functional_args(z0: float, z1: float, t: list[float], s: list[float],
                     L: int) -> tuple[list[float], list[float]]:
    """(t, s) as lists; ValueError unless len(t) = len(s) = K with 2K <= L,
    z0, z1 in (0, 1] and every t_j, s_j positive and finite."""
    t, s = list(t), list(s)
    K = len(t)
    if len(s) != K:
        raise ValueError("t and s must have equal length")
    if 2 * K > L:
        raise ValueError(f"need 2K <= L, got K={K}, L={L}")
    if not (0.0 < z0 <= 1.0 and 0.0 < z1 <= 1.0):
        raise ValueError("z0, z1 must lie in (0, 1]")
    for name, tilts in (("t", t), ("s", s)):
        for j, tilt in enumerate(tilts, 1):
            if not 0.0 < tilt < math.inf:
                raise ValueError(f"{name}_{j} must be positive and finite, got {tilt}")
    return t, s


def matrix_ansatz_expectation(z0: float, z1: float, t: list[float], s: list[float],
                              L: int, model: WeightModel) -> float:
    """Joint generating functional
    E[z0^{g_0} prod_j t_j^{g_j - g_{j-1}} prod_j s_j^{-(g_{L-j+1} - g_{L-j})} z1^{g_L}]
    via the transfer-operator product sandwiched between boundary vectors.

    Numerator and denominator run on one height S' of :func:`_heights`,
    T + 8 sqrt(L) + 64 doubled up to T + L + 2, T the boundary cutoff: the
    first whose absorbing top state bounds the weight of the paths that
    cross S' by at most eps / 16 of both (:func:`_transfer_logs`).  At
    T + L + 2, which every path from an initial altitude m <= T stays
    below, no bound is needed; OverflowError where a pass underflows to 0
    there (q near 1 at large L).
    """
    t, s = _functional_args(z0, z1, t, s, L)
    (num, lg_num), (den, lg_den) = _transfer_logs(model, L, [(z0, z1, t, s), (1.0, 1.0, [], [])])
    return num / den * math.exp(lg_num - lg_den)


# ------------------------------------------------- integral representation

def _integral_logs(model: WeightModel, L: int, passes) -> list[tuple[float, float]]:
    """The contract of :func:`_transfer_logs` on the integral route, with
    the power of B left out: per pass, mantissa exp(log_scale) B^(L-2K) is
    the value, mantissa the moment integral int (x/B)^(L-2K) Psi_0 Psi_1
    nu(dx) of ``ascpoly._moment_integral``.  Psi_0 and Psi_1 pair the
    polynomials with V_alpha(z0)^T M_{t_1}..M_{t_K} and M_{1/s_K}..M_{1/s_1}
    W_beta(z1), stepped by :func:`_power` on T + 2 max K + 8 altitudes, T
    the boundary cutoff, and divided by their peaks.  An OverflowError of a
    moment integral (q near 1, large L: the mass of (x/B)^(L-2K) sits where
    the density is below double range) is raised again naming its pass
    (C_L / B^L for (1, 1, [], []), else the expectation's numerator), L and q."""
    qm = _require_qmodel(model)
    K = max(len(t) for _, _, t, _ in passes)
    a, b, c, av, bv = _weight_tables(model, _boundary_cutoff(model, L) + 2 * K + 8)
    up_T, down_T = _transposed(a, c)
    powers = np.arange(len(a))
    logs = []
    for z0, z1, t, s in passes:
        v, lv = _power(av * np.power(float(z0), powers), a, b, c, t)
        w, lw = _power(bv * np.power(float(z1), powers), up_T, b, down_T, s)
        pv, pw = float(v.max()), float(w.max())
        try:
            val = _moment_integral(v / pv, w / pw, L - 2 * len(t), qm)
        except OverflowError as exc:
            what = "C_L / B^L" if (z0, z1, t) == (1.0, 1.0, []) else "the expectation's numerator"
            raise OverflowError(f"moment integral of {what} at L={L}, q={qm.q:g}: {exc}; use the "
                                "transfer route (matrix_ansatz_expectation, "
                                "log_normalizing_constant)") from exc
        logs.append((val, lv + lw + math.log(pv) + math.log(pw)))
    return logs


def integral_expectation(z0: float, z1: float, t: list[float], s: list[float],
                         L: int, model: WeightModel) -> float:
    """Same expectation as :func:`matrix_ansatz_expectation`, with the same
    argument check, as (1/C_L) int x^{L-2K} Psi_0(x) Psi_1(x) nu(dx) against
    the q-model orthogonality measure (:func:`_integral_logs`, denominator
    first).  OverflowError when either integral's L1 mass is below
    1e-300 / REL_TOL (q close to 1 at large L)."""
    t, s = _functional_args(z0, z1, t, s, L)
    (den, lg_den), (num, lg_num) = _integral_logs(model, L, [(1.0, 1.0, [], []), (z0, z1, t, s)])
    return num / den * math.exp(lg_num - lg_den - 2 * len(t) * math.log(model.qmodel.B))


def integral_normalizing_constant(L: int, model: WeightModel) -> float:
    """C_L as the moment integral int x^L (V^T P)(W^T Q) nu(dx) of
    :func:`_integral_logs`, both vectors truncated at S = T + 8, T the
    boundary cutoff."""
    (den, log_scale), = _integral_logs(model, L, [(1.0, 1.0, [], [])])
    B = model.qmodel.B
    log_value = math.log(den) + log_scale + L * math.log(B)
    if log_value > 700.0:
        raise OverflowError(f"integral normalizing constant exp({log_value:.1f}) at L={L}, "
                            f"B={B:g} overflows; use log_normalizing_constant")
    return math.exp(log_value)


# ------------------------------------------------------------------ sampling

def sample_paths(L: int, model: WeightModel, count: int, seed: int) -> np.ndarray:
    """Exact samples from the path measure, as an int array (count, L+1):
    the transpose of the (L+1, count) buffer that the loop fills one step
    (one row) at a time, so it is F-ordered.

    Sequential sampler: the initial altitude is drawn proportionally to
    alpha_m u_0[m], then every step proportionally to edge weight times the
    next backward vector u_k = M_1^{L-k} W_beta(1), from
    :func:`_backward_table` up to a positive factor.  Step k takes, per
    level h, the cumulative weights up, up + flat and up + flat + down of
    the three moves from the tables of :func:`_move_tables`, made for a
    block of _BLOCK_STEPS steps at once on the levels the paths can reach
    in it: a block that starts at step k with highest state m has its
    states at most m + i at step k + i; each path then gathers its three
    entries and takes the move its uniform lands in.  Deterministic for a
    fixed seed.

    Initial altitudes are at most the boundary cutoff T, the one cut of
    every finite-L route, and level S' - 1 of the certified height has no
    up move.  CapacityError when the (L+1) x S backward table of a height
    passes SAMPLE_TABLE_CAP entries, before its pass, when the (L+1) x count
    path table cannot be allocated, or when the initial altitudes past T
    carry more than 10 TAIL_TOL of the mass alpha_m u_0[m].  ValueError for
    a negative L or seed, or a count below 1.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    T, (a, b, c, av, bv), u, _ = _backward_table(model, L, range(L + 1))
    S = u.shape[1]
    p0 = (av * u[0])[:T + 1]
    p0 = p0 / np.sum(p0)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(p0)
    try:
        paths = np.empty((L + 1, count), dtype=np.int64)
    except MemoryError as exc:
        raise CapacityError(f"path table of (L+1) x count int64 entries at L={L}, "
                            f"count={count} needs {8 * (L + 1) * count} bytes, "
                            f"more than can be allocated") from exc
    # paths[0] <= T + 1, the length of the cdf
    paths[0] = np.searchsorted(cdf, rng.random(count), side="right")
    tables = np.empty(3 * min(_BLOCK_STEPS, L) * (S - 1))
    # the uniforms of several steps come from one draw of at most 2^13
    # values (one step's count when that is larger), in the stream's order
    per_draw = max(1, (1 << 13) // count)
    uniforms = np.empty((min(per_draw, L), count))
    r, gathered = np.empty(count), np.empty(count)
    moved = np.empty(count, dtype=bool)
    for k in range(L):
        if k % per_draw == 0:
            drawn = rng.random(out=uniforms[:min(per_draw, L - k)])
        j = k % _BLOCK_STEPS
        if j == 0:
            # the states of step k + i are at most max(paths[k]) + i and
            # below S - 1, so the levels 0..max(paths[k]) + steps - 1 up to
            # S - 2 hold every state of the block; its three tables are one
            # contiguous (3, steps, width) array
            steps = min(_BLOCK_STEPS, L - k)
            width = min(int(paths[k].max()) + steps, S - 1)
            up, upflat, total = _move_tables(a, b, c, u[k + 1:k + 1 + steps],
                                             tables[:3 * steps * width].reshape(3, steps, width))
        # every state has its level in the tables, so "clip" only skips
        # take's bounds check
        states, row = paths[k], paths[k + 1]
        np.multiply(drawn[k % per_draw], total[j].take(states, out=gathered, mode="clip"), out=r)
        np.add(states, 1, out=row)
        for bound in (up[j], upflat[j]):
            np.greater_equal(r, bound.take(states, out=gathered, mode="clip"), out=moved)
            row -= moved
    return paths.T


def _backward_table(model: WeightModel, L: int, keep,
                    moments: int = 1) -> tuple[int, tuple, np.ndarray, float]:
    """(T, (up, flat, down, alpha, beta), u, lost): the one backward pass
    of the finite-L routes, the sampler and the exact laws of ``chains``.
    u[i] = M^(L - keep[i]) ends up to a positive factor, for the end
    columns beta_n n^j, j < moments, stepped by :func:`_steps` as one stack
    (a vector beta when moments = 1), with the top state's column zeroed; T
    is the boundary cutoff and lost the share of the initial mass
    alpha_m u_0[m] past T.  The pass runs on the first tables of
    :func:`_heights` whose top-state bound passes :func:`_certified` for
    every F[i, j] = sum_(m <= T) alpha_m m^i u_0[m, j].

    Read backwards, a path is the column pass's row process from the ends,
    which enters the top state where it first crosses S'.  The left
    harmonic vector s (M^T s = B s) bounds what the path would have added
    by s_S' per unit of top state, as alpha_m <= s_m, so T^i s_S' times
    column j's top entry of u_0 bounds the drop of F[i, j] (m^i <= T^i).
    The top state's ends take n = T + L, the highest end that a path from
    m <= T reaches.  CapacityError when the kept rows of a height (S counts
    the top state) pass SAMPLE_TABLE_CAP entries, before its pass, or when
    lost is above 10 ``numerics.TAIL_TOL``; ValueError where the initial
    mass is not positive."""
    T = _boundary_cutoff(model, L)
    for tables, log_s in _heights(model, T, L):
        a, b, c, av, bv = tables
        S = len(a)
        if len(keep) * moments * S > SAMPLE_TABLE_CAP:
            raise CapacityError(f"backward table of {len(keep) * moments} x S entries at L={L}, "
                                f"S={S} passes SAMPLE_TABLE_CAP={SAMPLE_TABLE_CAP} entries")
        up_T, down_T = _transposed(a, c)
        n = np.arange(S)
        if log_s is not None:
            down_T[-1] = 0.0  # no down move out of the top state
            n[-1] = T + L
        # one column steps faster as a vector than as a stack
        ends = bv if moments == 1 else bv * n ** np.arange(moments)[:, None]
        u = np.empty((len(keep), *ends.shape))
        kept = dict(zip(keep, u))
        for i, (row, _) in enumerate(_steps(ends, up_T, b, down_T, itertools.repeat(1.0, L))):
            if L - i in kept:
                kept[L - i][...] = row
        u0 = np.atleast_2d(row)  # the last yield, u_0
        if log_s is not None:
            top = u0[:, -1].tolist()
            u0[:, -1] = u[..., -1] = 0.0  # level S' - 1 has no up move
            heads = av[:T + 1] * n[:T + 1] ** np.arange(moments)[:, None]
            F = heads @ u0[:, :T + 1].T
            if not all(_certified(F[i, j], top[j] * T**i, log_s) for i, j in np.ndindex(F.shape)):
                continue
        p0 = av * u0[0]
        total = float(np.sum(p0))
        if not total > 0.0:
            raise ValueError("initial-altitude mass alpha_m u_0[m] is not positive")
        lost = float(np.sum(p0[T + 1:])) / total
        if lost > 10.0 * numerics.TAIL_TOL:
            raise CapacityError(f"initial altitudes past T={T} carry mass {lost:.2e} "
                                f"> {10.0 * numerics.TAIL_TOL:g} at L={L}")
        return T, tables, u, lost


# steps per block of the sampler's move tables
_BLOCK_STEPS = 32


def _move_tables(a: np.ndarray, b: np.ndarray, c: np.ndarray, nxt: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """(up, upflat, total) written into out, of shape (3, steps, n): for
    the backward rows nxt[i] = u_(k+1+i) of a block of steps and the levels
    h < n, the cumulative move weights up = a_h nxt[h+1],
    upflat = up + b_h nxt[h] and total = upflat + c_h nxt[h-1] (no down
    move at h = 0), each product and sum rounded once."""
    up, upflat, total = out
    n = up.shape[1]
    np.multiply(a[:n], nxt[:, 1:n + 1], out=up)
    np.multiply(b[:n], nxt[:, :n], out=upflat)
    upflat += up
    total[:, 0] = 0.0  # no down move at level 0
    np.multiply(c[1:n], nxt[:, :n - 1], out=total[:, 1:])
    total += upflat
    return out


# ------------------------------------------------------------- serialization

def path_line(path: MotzkinPath) -> str:
    """One path per line: comma-separated altitudes."""
    return ",".join(str(a) for a in path.altitudes)
