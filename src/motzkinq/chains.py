"""Boundary birth-death chains of the weighted Motzkin path measure.

As the path length grows, the altitudes near either endpoint converge to a
Markov chain whose one-step probabilities are built from the right-endpoint
polynomial values:

    up(n)   = (1 - q^{n+1}) s_{n+1} / (2 (1+sigma) s_n)
    flat(n) = (1 - q^{n+1}) sigma / (1 + sigma)
    down(n) = (1 - q^{n+1}) s_{n-1} / (2 (1+sigma) s_n)       (s_{-1} = 0)

with initial laws  P(X_0 = n) = rho0^n s_n / C  and  P(Y_0 = n) = rho1^n s_n / C,
C = (a rho, b rho; q)_inf / (rho; q)_inf^2.  The rows need only the ratios
r_n = s_{n+1} / s_n, which :func:`motzkinq.ascpoly.s_ratios` gives in O(cap)
real arithmetic, and the initial laws combine log s_n with log C, so both
stay finite where s_n and C leave double range (q -> 1 at large N).  Every
function takes the model parameters directly; nothing is cached.
k-step probabilities come either from tridiagonal iteration (default, on
states 0..max support + k, the exact reach) or from the
orthogonality-measure integral

    P(X_k = n | X_0 = m) = (pi_n / pi_m) int (x/B)^k p_m(x) ptilde_n(x) nu(dx),

kept as a cross-validation route.  The local-limit drivers use a Chebyshev
expansion of P^k (:func:`_chebyshev_power`), which needs about
sqrt(2 k ln(4/eps)) tridiagonal products instead of k.  The exact length-L
laws that the chains approximate take their heads from ``altitude_table``
and their middle from one backward pass of a few end vectors through
``motzkin._power``, and drop at most EXACT_TAIL_TOL of the initial mass past
the boundary cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ascpoly import (
    QModelParams,
    _decay,
    _initial_law_probs,
    _moment_integral,
    pi_values,
    s_ratios,
)
from .motzkin import (WeightModel, _boundary_cutoff, _initial_mass_past, _power,
                      _table_product, _transposed, _tridiagonal_step, _weight_tables,
                      altitude_table)
from .numerics import _EPS

__all__ = [
    "Distribution",
    "transition_row",
    "transition_arrays",
    "initial_law",
    "kstep_distribution",
    "kstep_transition_integral",
    "simulate_chain",
    "finite_path_head_law",
    "chain_head_law",
    "tv_distance",
    "endpoint_pair_correlation",
]

# share of the initial mass that the exact head law and the endpoint
# correlation may drop past the boundary cutoff
EXACT_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class Distribution:
    """Probability vector over consecutive nonnegative integers."""

    offset: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError("offset must be nonnegative")
        if np.any(np.asarray(self.probs) < 0.0):
            raise ValueError("probabilities must be nonnegative")

    def total(self) -> float:
        return float(np.sum(self.probs))

    def mean(self) -> float:
        ns = np.arange(self.offset, self.offset + len(self.probs))
        return float(np.dot(ns, self.probs)) / self.total()

    def prob(self, n: int) -> float:
        i = n - self.offset
        if 0 <= i < len(self.probs):
            return float(self.probs[i])
        return 0.0

    @staticmethod
    def point_mass(n: int) -> "Distribution":
        return Distribution(offset=n, probs=np.array([1.0]))

    def rows(self):
        for i, p in enumerate(self.probs):
            yield self.offset + i, float(p)


def transition_row(n: int, model: QModelParams) -> Distribution:
    """One-step distribution from altitude n (support {n-1, n, n+1})."""
    if n < 0:
        raise ValueError("altitude must be nonnegative")
    up, flat, down = (float(arr[n]) for arr in transition_arrays(model, n))
    if n == 0:
        return Distribution(offset=0, probs=np.array([flat, up]))
    return Distribution(offset=n - 1, probs=np.array([down, flat, up]))


def transition_arrays(model: QModelParams, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(up, flat, down) probability tables for altitudes 0..cap, from the
    ratios r_n = s_(n+1) / s_n (finite wherever the recurrence is)."""
    r = s_ratios(cap, model)
    decay = _decay(cap, model.q)
    scale = 2.0 * (1.0 + model.sigma)
    up = decay * r / scale
    flat = decay * model.sigma / (1.0 + model.sigma)
    down = np.empty(cap + 1)
    down[0] = 0.0
    down[1:] = decay[1:] / (scale * r[:-1])
    return up, flat, down


def initial_law(which: str, model: QModelParams, tail_tol: float = 1e-12) -> Distribution:
    """Initial distribution of the head chain (which='X', weight rho0) or
    the tail chain (which='Y', weight rho1): P(n) = rho^n s_n / C, cut at the
    first n > 10 whose term is below tail_tol (1 - rho) / 2 of the mass so far.
    """
    if which not in ("X", "Y"):
        raise ValueError("which must be 'X' or 'Y'")
    rho = model.rho0 if which == "X" else model.rho1
    return Distribution(offset=0, probs=_initial_law_probs(model, rho, tail_tol))


def _iterate_tridiagonal(vec: np.ndarray, k: int, up: np.ndarray, flat: np.ndarray,
                         down: np.ndarray) -> tuple[np.ndarray, float]:
    """k tridiagonal steps; returns (vector, mass lost past the cap)."""
    v = vec.astype(float).copy()
    lost = 0.0
    for _ in range(k):
        lost += up[-1] * v[-1]
        v = _tridiagonal_step(v, up, flat, down)
    return v, lost


def _chebyshev_power_coefficients(k: int) -> np.ndarray:
    """c_0..c_d with x^k = sum_j c_j T_j(x) up to eps on [-1, 1].

    c_j = 2^(1-k) C(k, (k-j)/2) for j = k (mod 2), c_0 halved, from the
    ratio c_(j+2)/c_j = (k-j)/(k+j+2) normalized to sum 1.  The terms past
    J = sqrt(2k ln(4/eps)) sum to at most 2 exp(-J^2/2k) = eps/2 (Hoeffding)
    and are not formed; the series is cut at the first degree d whose tail
    falls to eps/2 (d = k keeps it exact).
    """
    top = min(k, int(math.sqrt(2.0 * k * math.log(4.0 / _EPS))) + 2)
    js = np.arange(k % 2, top + 1, 2, dtype=float)
    rel = np.cumprod(np.concatenate(([1.0], (k - js[:-1]) / (k + js[:-1] + 2.0))))
    if js[0] == 0:
        rel[1:] *= 2.0  # c_0 is halved, the ratio from it is doubled
    rel /= rel.sum()
    tail = np.cumsum(rel[::-1])[::-1]  # tail[i] = sum of rel[i:]
    keep = int(np.argmax(tail <= 0.5 * _EPS)) if tail[-1] <= 0.5 * _EPS else len(js)
    c = np.zeros(int(js[keep - 1]) + 1)
    c[k % 2::2] = rel[:keep]
    return c


def _chebyshev_power(vec: np.ndarray, k: int, up: np.ndarray, flat: np.ndarray,
                     down: np.ndarray) -> tuple[np.ndarray, int]:
    """vec P^k as sum_j c_j T_j(P) vec by the Chebyshev three-term recurrence
    T_(j+1)(P) v = 2 T_j(P) v P - T_(j-1)(P) v; returns (vector, degree d).

    The capped chain is reversible and substochastic, so P is similar to a
    symmetric matrix with spectrum in [-1, 1], where the truncated series
    is within eps of x^k: d ~ sqrt(2 k ln(4/eps)) products instead of k.
    The error is absolute in the pi-symmetrized entries
    out[n] sqrt(pi_m / pi_n), so tiny values need a guard by the caller.
    """
    c = _chebyshev_power_coefficients(k)
    d = len(c) - 1
    prev = vec.astype(float)
    out = c[0] * prev
    if d == 0:
        return out, d
    cur = _tridiagonal_step(prev, up, flat, down)
    out += c[1] * cur
    up2, flat2, down2 = 2.0 * up, 2.0 * flat, 2.0 * down
    for j in range(2, d + 1):
        nxt = _tridiagonal_step(cur, up2, flat2, down2)
        nxt -= prev
        prev, cur = cur, nxt
        if c[j]:
            out += c[j] * cur
    return out, d


def kstep_distribution(start: Distribution, k: int, model: QModelParams) -> Distribution:
    """Distribution after k steps from ``start`` on states 0..max support + k,
    the exact reach: mass gets to the top state only at step k, so none is
    lost past it."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    cap = start.offset + len(start.probs) - 1 + k
    up, flat, down = transition_arrays(model, cap)
    vec = np.zeros(cap + 1)
    vec[start.offset: start.offset + len(start.probs)] = start.probs
    out, _ = _iterate_tridiagonal(vec, k, up, flat, down)
    return Distribution(offset=0, probs=out)


def kstep_transition_integral(m: int, n: int, k: int, model: QModelParams) -> float:
    """P(X_k = n | X_0 = m) = (pi_n / pi_m) int (x/B)^k p_m ptilde_n nu(dx),
    the moment integral :func:`motzkinq.ascpoly._moment_integral` of the unit
    vectors e_m and e_n; cross-validates the tridiagonal route.

    The factor x^k concentrates near the right endpoint, so node doubling is
    capped (a :class:`ConvergenceError` is preferable to a silently
    inaccurate value).
    """
    nmax = max(m, n)
    unit = np.eye(nmax + 1)
    pis = pi_values(nmax, model)
    return pis[n] / pis[m] * _moment_integral(unit[m], unit[n], k, model)


def simulate_chain(model: QModelParams, steps: int, seed: int,
                   start: int | None = None) -> np.ndarray:
    """Trajectory of the boundary chain, drawn from the initial law unless a
    fixed start altitude is given.  Deterministic per seed.  The loop runs on
    Python floats (the transition rows and the uniforms as lists)."""
    rng = np.random.default_rng(seed)
    if start is None:
        law = initial_law("X", model)
        cdf = np.cumsum(law.probs)
        state = int(law.offset + np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    else:
        state = int(start)
    cap = state + 4 * int(math.sqrt(steps + 1)) + 64
    up, flat = _step_lists(model, cap)
    out = [state]
    for r in rng.random(steps).tolist():
        if state + 1 >= cap:
            cap = 2 * cap + 16
            up, flat = _step_lists(model, cap)
        if r < up[state]:
            state += 1
        elif r < up[state] + flat[state]:
            pass
        elif state > 0:
            # residual rounding mass joins the down branch; at state 0 the
            # row has no down component so the flat branch absorbs it
            state -= 1
        out.append(state)
    return np.array(out, dtype=np.int64)


def _step_lists(model: QModelParams, cap: int) -> tuple[list[float], list[float]]:
    """The up and flat rows of :func:`transition_arrays` as Python floats,
    which a state-by-state loop indexes without boxing numpy scalars."""
    up, flat, _ = transition_arrays(model, cap)
    return up.tolist(), flat.tolist()


# ----------------------------------------------- exact finite-length laws

def _pulled_back_ends(wm: WeightModel, L: int, K: int, moments: int):
    """(T, (up, flat, down, alpha), u_K, lost) with u_K = M^(L-K) ends up to
    a positive factor (:func:`motzkinq.motzkin._power`), for the end columns
    beta_n n^i, i < moments, on altitudes 0..T+L+1, T the boundary cutoff at
    EXACT_TAIL_TOL, and lost the share of the initial mass alpha_m u_0[m],
    u_0 = M^L ends, past T.  CapacityError if lost > EXACT_TAIL_TOL."""
    T = _boundary_cutoff(wm, EXACT_TAIL_TOL, L)
    S = T + L + 2
    a, b, c, av, bv = _weight_tables(wm, S)
    up_T, down_T = _transposed(a, c)
    cols = (up_T[:, None], b[:, None], down_T[:, None])
    uK, _ = _power(bv[:, None] * np.arange(S)[:, None] ** np.arange(moments), *cols,
                   [1.0] * (L - K))
    u0, _ = _power(uK, *cols, [1.0] * K)
    lost = _initial_mass_past(av, u0[:, 0], T, L, EXACT_TAIL_TOL)
    return T, (a, b, c, av), uK, lost


def _positive_rows(table: np.ndarray, p: np.ndarray) -> dict[tuple[int, ...], float]:
    keep = p > 0.0
    return dict(zip(map(tuple, table[keep].tolist()), p[keep].tolist()))


def finite_path_head_law(wm: WeightModel, L: int, K: int) -> dict[tuple[int, ...], float]:
    """Exact joint law of (g_0, ..., g_K) under the length-L path measure:
    alpha_m w(head) u_K[g_K] / (alpha . u_0) over the :func:`altitude_table`
    heads from m <= T, T the boundary cutoff, whose total is 1 - lost.
    CapacityError if the share lost of the mass alpha_m u_0[m] past T
    exceeds EXACT_TAIL_TOL, so the law misses at most that.  Needs the
    q-model weights.  Guarded at K <= ENUMERATION_CAP."""
    if K >= L:
        raise ValueError("need K < L")
    T, (a, b, c, av), uK, lost = _pulled_back_ends(wm, L, K, 1)
    table = np.concatenate([altitude_table(K, m, None) for m in range(T + 1)])
    p = av[table[:, 0]] * _table_product(table, a, b, c) * uK[table[:, -1], 0]
    return _positive_rows(table, p * ((1.0 - lost) / p.sum()))


def chain_head_law(model: QModelParams, which: str, K: int) -> dict[tuple[int, ...], float]:
    """Joint law of the first K+1 chain states (X_0..X_K or Y_0..Y_K): the
    :func:`altitude_table` heads from each start of the initial law, cut at
    EXACT_TAIL_TOL, priced by the (up, flat, down) rows.  Guarded at
    K <= ENUMERATION_CAP."""
    init = initial_law(which, model, EXACT_TAIL_TOL)
    up, flat, down = transition_arrays(model, init.offset + len(init.probs) + K)
    table = np.concatenate([altitude_table(K, n, None) for n, _ in init.rows()])
    p = init.probs[table[:, 0] - init.offset] * _table_product(table, up, flat, down)
    return _positive_rows(table, p)


def tv_distance(law1: dict[tuple[int, ...], float],
                law2: dict[tuple[int, ...], float]) -> float:
    """Total-variation distance of two (possibly truncated) discrete laws;
    unassigned mass counts toward the distance, making this an upper bound."""
    keys = set(law1) | set(law2)
    diff = sum(abs(law1.get(k, 0.0) - law2.get(k, 0.0)) for k in keys)
    tail1 = max(0.0, 1.0 - sum(law1.values()))
    tail2 = max(0.0, 1.0 - sum(law2.values()))
    return 0.5 * (diff + tail1 + tail2)


def endpoint_pair_correlation(wm: WeightModel, L: int) -> float:
    """Correlation of (g_0, g_L) under the exact length-L path measure.

    (beta, beta n, beta n^2) pulled back L steps and paired with
    (alpha, alpha m, alpha m^2) over m <= T give F[i, j] = C E[g_0^i g_L^j]
    up to one factor, T the boundary cutoff.  CapacityError if more than
    EXACT_TAIL_TOL of the initial mass lies past T, so the law behind the
    moments misses at most that share of its total.  Needs the q-model
    weights.
    """
    T, (*_, av), u0, _ = _pulled_back_ends(wm, L, 0, 3)
    heads = av[:T + 1, None] * np.arange(T + 1)[:, None] ** np.arange(3)
    F = heads.T @ u0[:T + 1]
    F /= F[0, 0]  # F[i, j] = E[g_0^i g_L^j]
    vm, vn = F[2, 0] - F[1, 0] ** 2, F[0, 2] - F[0, 1] ** 2
    return float((F[1, 1] - F[1, 0] * F[0, 1]) / math.sqrt(vm * vn))
