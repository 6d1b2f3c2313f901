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
k-step probabilities come either from k exact steps of
``motzkin._power`` (default, on states 0..max support + k, the exact
reach) or from the orthogonality-measure integral

    P(X_k = n | X_0 = m) = (pi_n / pi_m) int (x/B)^k p_m(x) ptilde_n(x) nu(dx),

kept as a cross-validation route.  P is the Al-Salam-Chihara Jacobi
operator divided by B, so its spectrum lies in [A/B, 1] =
[(sigma-1)/(sigma+1), 1].  The local-limit drivers take one entry
e_m P^k e_n of the Chebyshev expansion of P^k on that interval, degree
d ~ sqrt(2 k ln(4/eps) / (1+sigma)), by one bilinear pass
(:func:`_chebyshev_entry`): ceil(d/2) in-place tridiagonal steps of the row
e_m T_a(P') and the column T_a(P') e_n together, P' = P mapped onto
[-1, 1], each on the exact reach of its end, instead of k steps.  The
exact length-L laws that the chains approximate take their heads from
``altitude_table`` and their middle from one backward pass of a stack of
end columns through ``motzkin._power``, and drop at most EXACT_TAIL_TOL of
the initial mass past the boundary cutoff.
"""

from __future__ import annotations

import itertools
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
from .motzkin import (TAIL_TOL, WeightModel, _boundary_cutoff, _initial_mass_past, _power,
                      _require_qmodel, _step_rows, _step_views, _table_product, _transposed,
                      _tridiagonal_step, _weight_tables, altitude_table)
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


def initial_law(which: str, model: QModelParams, tail_tol: float = TAIL_TOL) -> Distribution:
    """Initial distribution of the head chain (which='X', weight rho0) or
    the tail chain (which='Y', weight rho1): P(n) = rho^n s_n / C, cut at the
    first n > 10 whose term is below tail_tol (1 - rho) / 2 of the mass so far.
    """
    if which not in ("X", "Y"):
        raise ValueError("which must be 'X' or 'Y'")
    rho = model.rho0 if which == "X" else model.rho1
    return Distribution(offset=0, probs=_initial_law_probs(model, rho, tail_tol))


def _chebyshev_power_coefficients(k: int, lam0: float) -> np.ndarray:
    """c_0..c_d with x^k = sum_j c_j T_j((x - b) / a) up to eps on
    [lam0, 1], a = (1 - lam0) / 2, b = 1 - a.

    With x = b + a cos(theta), c_j is the cosine coefficient of
    f(theta) = (b + a cos(theta))^k (c_0 halved), here from the trapezoidal
    rule on M + 1 nodes of [0, pi], which is exact up to the aliases
    c_(2M-j), c_(2M+j), ... (Trefethen & Weideman, SIAM Review 56, 2014).
    Only the nodes where |f| is above eps e^-10 enter.  f is taken in log
    form: k log1p(-2a sin^2(theta/2)) where its base 1 - 2a sin^2(theta/2) =
    lam0 + 2a cos^2(theta/2) is positive, and
    k (log(-lam0) + log1p(2a cos^2(theta/2) / lam0)) with the sign (-1)^k
    where it is negative, so neither end of [0, pi] carries the k eps
    relative error of the plain power.  Each c_j is P(|J| = j) for a
    sum J of k steps in {-1, 0, 1} of variance a, so the terms past
    t = l/3 + sqrt(l^2/9 + 2 k a l), l = ln(4/eps), sum to at most eps/2
    (Bernstein) and are not formed; M = floor(t) + 3 puts every alias past them.
    The series is cut at the first degree d whose tail falls to eps/4,
    leaving eps/4 for the rounding of the transform: d ~ sqrt(2 k a ln(4/eps))
    (lam0 = -1, a = 1: the binomials 2^(1-k) C(k, (k-j)/2) of x^k on [-1, 1]).
    """
    if k == 0:
        return np.ones(1)
    a = 0.5 * (1.0 - lam0)
    ell = math.log(4.0 / _EPS)
    top = min(k, int(ell / 3.0 + math.sqrt(ell * ell / 9.0 + 2.0 * k * a * ell)) + 2)
    M = top + 1
    half = (0.5 * math.pi / M) * np.arange(M + 1)
    x = 2.0 * a * np.sin(half) ** 2  # base = 1 - x = lam0 + 2a cos^2(theta/2)
    log_f = np.full(M + 1, -math.inf)
    pos, neg = x < 1.0, x > 1.0
    log_f[pos] = k * np.log1p(-x[pos])
    if neg.any():  # lam0 < 0: |base| = -lam0 (1 - 2a cos^2(theta/2) / -lam0)
        log_f[neg] = k * (math.log(-lam0) + np.log1p(2.0 * a / lam0 * np.cos(half[neg]) ** 2))
    nodes = np.flatnonzero(log_f > math.log(_EPS) - 10.0)
    w = np.exp(log_f[nodes]) * (2.0 / M)
    if k % 2:
        w[neg[nodes]] *= -1.0
    w[(nodes == 0) | (nodes == M)] *= 0.5
    # cos(j theta_i) from a table of cos(pi r / M), r = j i mod 2M, exact in r
    cos_table = np.cos((math.pi / M) * np.arange(2 * M))
    c = cos_table[np.outer(np.arange(top + 1), nodes) % (2 * M)] @ w
    c[0] *= 0.5
    tail = np.cumsum(c[::-1])[::-1]  # tail[i] = sum of c[i:]
    keep = int(np.argmax(tail <= 0.25 * _EPS)) if tail[-1] <= 0.25 * _EPS else len(c)
    return c[:keep]


def _chebyshev_entry(m: int, n: int, c: np.ndarray, lam0: float, up: np.ndarray,
                     flat: np.ndarray, down: np.ndarray) -> float:
    """e_m P^k e_n = sum_j c_j e_m T_j(P') e_n for the coefficients
    c = _chebyshev_power_coefficients(k, lam0) of degree d, by one bilinear
    pass.  P' = (P - b I) / a maps the spectrum [lam0, 1] of P onto [-1, 1],
    a = (1 - lam0) / 2, b = 1 - a; 2 P' has the rows up 2/a, (flat - b) 2/a
    and down 2/a.

    T_2a = 2 T_a^2 - I and T_(2a-1) = 2 T_a T_(a-1) - T_1 turn each term
    into a dot product of the row x_a = e_m T_a(P') with the column
    y_a = T_a(P') e_n: c_2a (2 x_a.y_a - x_0.y_0) and
    c_(2a-1) (2 x_a.y_(a-1) - x_1.y_0), so x and y need R = ceil(d/2) =
    len(c) // 2 steps of the three-term recurrence instead of d, with two
    dot products per step.  They are stepped as one vector [x | y]: x on the
    states m-R..m+R with the rows up, flat, down, and y on n-R..n+R with the
    transposed rows, both cut at 0.  Within R steps x reaches m +- R and
    y reaches n +- R only at the last step, so no flux crosses a block edge
    (an edge cut at 0 has down weight 0) and the pass is exact with the
    rows of states 0..max(m, n) + R, without a state cap.  The dot products
    run over the states the blocks share (none: every term is 0).  Three
    buffers take turns through the in-place
    :func:`motzkinq.motzkin._tridiagonal_step`.

    P is similar to a symmetric matrix with spectrum in [lam0, 1], so
    ||T_a(P')|| <= 1 there and the error is about (d+1) eps in the
    pi-symmetrized value e_m P^k e_n sqrt(pi_m / pi_n), as for the vector
    form; tiny values need a guard by the caller.
    """
    R = len(c) // 2
    if R == 0:
        return float(m == n)  # k = 0
    a = 0.5 * (1.0 - lam0)
    b, scale = 1.0 - a, 2.0 / a
    blocks = []
    for end, (u, w) in ((m, (up, down)), (n, _transposed(up, down))):
        lo, hi = max(end - R, 0), end + R + 1
        blocks.append((lo, hi, scale * u[lo:hi], scale * (flat[lo:hi] - b), scale * w[lo:hi]))
    (lo_x, hi_x, *rows_x), (lo_y, hi_y, *rows_y) = blocks
    lo, hi = max(lo_x, lo_y), min(hi_x, hi_y)
    if lo >= hi:
        return 0.0
    rows = _step_rows(*(np.concatenate(pair) for pair in zip(rows_x, rows_y)))
    nx = hi_x - lo_x
    xs, ys = slice(lo - lo_x, hi - lo_x), slice(nx + lo - lo_y, nx + hi - lo_y)
    size = nx + hi_y - lo_y
    bufs = []  # (vector, its step views, its x part, its y part)
    for _ in range(3):
        v = np.zeros(size)
        bufs.append((v, _step_views(v), v[xs], v[ys]))
    work = np.empty(size - 1)
    prev, cur, nxt = bufs
    prev[0][m - lo_x] = prev[0][nx + n - lo_y] = 1.0  # [x_0 | y_0]
    _tridiagonal_step(prev[1], cur[1], rows, work)
    np.multiply(cur[0], 0.5, out=cur[0])  # [x_1 | y_1]
    even = [float(m == n), float(cur[2] @ cur[3])]  # x_a.y_a from a = 0
    odd = [float(cur[2] @ prev[3])]  # x_a.y_(a-1) from a = 1
    for _ in range(R - 1):
        _tridiagonal_step(cur[1], nxt[1], rows, work)
        np.subtract(nxt[0], prev[0], out=nxt[0])
        prev, cur, nxt = cur, nxt, prev
        even.append(float(cur[2] @ cur[3]))
        odd.append(float(cur[2] @ prev[3]))
    ce, co = c[0::2], c[1::2]
    ce_dots, co_dots = np.array(even[:len(ce)]), np.array(odd[:len(co)])
    return (2.0 * float(ce @ ce_dots) - even[0] * float(ce.sum())
            + 2.0 * float(co @ co_dots) - odd[0] * float(co.sum()))


def kstep_distribution(start: Distribution, k: int, model: QModelParams) -> Distribution:
    """Distribution after k steps from ``start`` on states 0..max support + k,
    the exact reach: mass gets to the top state only at step k, so none is
    lost past it.  The steps are :func:`motzkinq.motzkin._power`."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    cap = start.offset + len(start.probs) - 1 + k
    up, flat, down = transition_arrays(model, cap)
    vec = np.zeros(cap + 1)
    vec[start.offset: start.offset + len(start.probs)] = start.probs
    out, log_scale = _power(vec, up, flat, down, itertools.repeat(1.0, k))
    return Distribution(offset=0, probs=out * math.exp(log_scale))


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
    fixed start altitude is given.  Deterministic per seed.

    Step i moves up when its uniform r < up[state], stays when
    r < up[state] + flat[state] and moves down otherwise, except at state 0,
    whose row has no down move, so the flat branch takes the rounding
    residue there.  The rows cover states 0..cap and cap -> 2 cap + 16
    whenever state + 1 >= cap before a step.  The steps run in chunks of
    at most _CHUNK_STEPS that stop short of the cap, each solved by
    :func:`_chunk_fixed_point`, which gives the step-by-step trajectory
    bit for bit.  ValueError for negative steps, start or seed.
    """
    for name, value in (("steps", steps), ("seed", seed), ("start", start)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    rng = np.random.default_rng(seed)
    if start is None:
        law = initial_law("X", model)
        cdf = np.cumsum(law.probs)
        state = int(law.offset + np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    else:
        state = int(start)
    cap = state + 4 * int(math.sqrt(steps + 1)) + 64
    up, upflat = _move_bounds(model, cap)
    draws = rng.random(steps)
    out = np.empty(steps + 1, dtype=np.int64)
    out[0] = state
    done = 0
    while done < steps:
        if state + 1 >= cap:
            cap = 2 * cap + 16
            up, upflat = _move_bounds(model, cap)
        # a chunk's steps start from states below cap - 1, so none regrows
        size = min(_CHUNK_STEPS, steps - done, cap - 1 - state)
        _chunk_fixed_point(draws[done:done + size], out[done:done + size + 1], up, upflat)
        done += size
        state = int(out[done])
    return out


# steps per chunk of simulate_chain
_CHUNK_STEPS = 2048


def _move_bounds(model: QModelParams, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(up, upflat) on states 0..cap: the uniform of a step from state s
    moves up below up[s] and down at or above upflat[s] = up[s] + flat[s],
    the float add of the step rule; upflat[0] is inf since state 0 has no
    down move."""
    up, flat, _ = transition_arrays(model, cap)
    upflat = up + flat
    upflat[0] = np.inf
    return up, upflat


def _chunk_fixed_point(r: np.ndarray, states: np.ndarray, up: np.ndarray,
                       upflat: np.ndarray) -> None:
    """Fill states[1:] with the chain's states after the steps of the
    uniforms r, from states[0].

    Every state starts as a guess of states[0].  One pass takes all moves
    from the guessed states at once and cumsums them into new guesses; a
    fixed point obeys the step rule at every step, so it is the sequential
    trajectory.  The states before the first changed guess were right, so
    they and the first new guess are final and the next pass starts there:
    each pass fixes at least one state.  Guesses may leave 0..cap; "clip"
    keeps their lookups in the tables, and a wrong guess only costs a pass.
    """
    states[1:] = states[0]
    lo, n = 0, len(r)
    while lo < n:
        before, rr = states[lo:n], r[lo:]
        moves = np.subtract(rr < up.take(before, mode="clip"),
                            rr >= upflat.take(before, mode="clip"), dtype=np.int64)
        after = np.cumsum(moves, out=moves)
        after += states[lo]
        changed = np.flatnonzero(after != states[lo + 1:])
        if not changed.size:
            return
        states[lo + 1:] = after
        lo += int(changed[0]) + 1


# ----------------------------------------------- exact finite-length laws

def _pulled_back_ends(wm: WeightModel, L: int, K: int, moments: int):
    """(T, (up, flat, down, alpha), u_K, lost) with u_K = M^(L-K) ends up to
    a positive factor, for the end columns beta_n n^i, i < moments, on
    altitudes 0..T+L+1, T the boundary cutoff at EXACT_TAIL_TOL, and lost
    the share of the initial mass alpha_m u_0[m], u_0 = M^L ends, past T.
    CapacityError if lost > EXACT_TAIL_TOL.  The columns are stepped as one
    (moments, S) stack by :func:`motzkinq.motzkin._power`, which rescales
    them by their common peak; u_K comes back as an (S, moments) array."""
    T = _boundary_cutoff(wm, EXACT_TAIL_TOL, L)
    S = T + L + 2
    a, b, c, av, bv = _weight_tables(wm, S)
    up_T, down_T = _transposed(a, c)
    ends = bv * np.arange(S) ** np.arange(moments)[:, None]
    uK, _ = _power(ends, up_T, b, down_T, itertools.repeat(1.0, L - K))
    u0, _ = _power(uK, up_T, b, down_T, itertools.repeat(1.0, K))
    lost = _initial_mass_past(av, u0[0], T, L, EXACT_TAIL_TOL)
    return T, (a, b, c, av), np.ascontiguousarray(uK.T), lost


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
    weights; ValueError where rho0 = 0 or rho1 = 0 pins g_0 or g_L at 0,
    so the correlation is undefined.
    """
    for name in ("rho0", "rho1"):
        if getattr(_require_qmodel(wm), name) == 0.0:
            raise ValueError(f"{name} = 0 pins an end at 0: corr(g_0, g_L) is undefined")
    T, (*_, av), u0, _ = _pulled_back_ends(wm, L, 0, 3)
    heads = av[:T + 1, None] * np.arange(T + 1)[:, None] ** np.arange(3)
    F = heads.T @ u0[:T + 1]
    F /= F[0, 0]  # F[i, j] = E[g_0^i g_L^j]
    vm, vn = F[2, 0] - F[1, 0] ** 2, F[0, 2] - F[0, 1] ** 2
    return float((F[1, 1] - F[1, 0] * F[0, 1]) / math.sqrt(vm * vn))
