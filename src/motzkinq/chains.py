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
k-step probabilities come either from the one exact pass :func:`_kstep`,
k steps of ``motzkin._power`` on states 0..cap and an absorbing state past
them (``kstep_distribution`` takes it on 0..max support + k, the exact
reach), or from the orthogonality-measure integral

    P(X_k = n | X_0 = m) = (pi_n / pi_m) int (x/B)^k p_m(x) ptilde_n(x) nu(dx),

kept as a cross-validation route.  P is the Doob transform of the
Al-Salam-Chihara Jacobi operator divided by B by the endpoint values:
P = D^(-1/2) J D^(1/2), D = diag pi_n, with J the symmetric Jacobi matrix
of :func:`_jacobi_rows`, whose rows are closed-form in q and sigma (no
ratios s_(n+1) / s_n), so the spectrum of both lies in [A/B, 1] =
[(sigma-1)/(sigma+1), 1] and P^k[m, n] = sqrt(pi_n / pi_m) J^k[m, n].
The lattice point :func:`_chain_point_evolution`, the P^k[m, n] of the
local-limit functions in :mod:`motzkinq.kernels`, takes one entry
e_m J^k e_n of the Chebyshev expansion of J^k on that interval, degree
d ~ sqrt(2 k ln(4/eps) / (1+sigma)), by one bilinear pass
(:func:`_chebyshev_entry`): ceil(d/2) in-place tridiagonal steps of the
row e_m T_a(J') and the column T_a(J') e_n together, J' = J mapped onto
[-1, 1], instead of k steps, in blocks on the states both ends reach by
the block's last step, with two row sums of moments per block.  J is
symmetric, so both take the same rows, and where m = n the column is the
row bit for bit and the pass steps it alone.  Where k steps on the exact
reach cost no more than twice the pass, and for a far tail below the
pass's accuracy, the point is one :func:`_kstep` instead, on the exact
reach or on a diffusive state cap that raises CapacityError if it leaks.
The exact length-L laws that the chains approximate take their heads from
``altitude_table`` and their middle from ``motzkin._backward_table``, the
sampler's backward pass: their end columns, one or a stack, pulled back on
the first certified O(sqrt L) height, with at most 10 ``numerics.TAIL_TOL``
of the initial mass dropped past the boundary cutoff.
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
from .errors import CapacityError
from .motzkin import (WeightModel, _aligned_empty, _backward_table, _power, _require_qmodel,
                      _step_rows, _step_views, _table_product, _tridiagonal_step, altitude_table)
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


@dataclass(frozen=True)
class Distribution:
    """Probability vector over consecutive nonnegative integers."""

    offset: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError("offset must be nonnegative")
        if not np.all(np.asarray(self.probs) >= 0.0):  # NaN too
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


def _jacobi_rows(model: QModelParams, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(up, flat, down) rows of the symmetric Jacobi matrix J = D^(1/2) P
    D^(-1/2), D = diag pi_n, on states 0..cap, in closed form (Koekoek,
    Lesky & Swarttouw, Hypergeometric Orthogonal Polynomials and Their
    q-Analogues, 2010):

        J[n, n]   = sigma (1 - q^(n+1)) / (1 + sigma),
        J[n, n+1] = sqrt((1 - q^(n+1)) (1 - q^(n+2))) / (2 (1 + sigma)),

    the flat row of P and sqrt(up[n] down[n+1]) of its rows, from one table
    of 1 - q^(n+1) and no ratios s_(n+1) / s_n.  up[n] = J[n, n+1] and
    down[n] = J[n, n-1] (down[0] = 0), so down[1:] is up[:-1] as floats."""
    decay = _decay(cap + 1, model.q)
    up = np.sqrt(decay[:-1] * decay[1:]) / (2.0 * (1.0 + model.sigma))
    flat = decay[:-1] * model.sigma / (1.0 + model.sigma)
    down = np.empty(cap + 1)
    down[0] = 0.0
    down[1:] = up[:-1]
    return up, flat, down


def initial_law(which: str, model: QModelParams) -> Distribution:
    """Initial distribution of the head chain (which='X', weight rho0) or
    the tail chain (which='Y', weight rho1): P(n) = rho^n s_n / C, cut at the
    first n > 10 whose term is below TAIL_TOL (1 - rho) / 2 of the mass so far.
    """
    if which not in ("X", "Y"):
        raise ValueError("which must be 'X' or 'Y'")
    rho = model.rho0 if which == "X" else model.rho1
    return Distribution(offset=0, probs=_initial_law_probs(model, rho))


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
    c = cos_table.take(np.outer(np.arange(top + 1), nodes), mode="wrap") @ w
    c[0] *= 0.5
    tail = np.cumsum(c[::-1])[::-1]  # tail[i] = sum of c[i:]
    keep = int(np.argmax(tail <= 0.25 * _EPS)) if tail[-1] <= 0.25 * _EPS else len(c)
    return c[:keep]


def _chebyshev_entry(m: int, n: int, c: np.ndarray, lam0: float, up: np.ndarray,
                     flat: np.ndarray, down: np.ndarray) -> float:
    """e_m J^k e_n = sum_j c_j e_m T_j(J') e_n for the coefficients
    c = _chebyshev_power_coefficients(k, lam0) of degree d, by one bilinear
    pass, J the symmetric tridiagonal matrix of the rows (up, flat, down),
    down[1:] = up[:-1] (:func:`_jacobi_rows`).  J' = (J - b I) / a maps the
    spectrum [lam0, 1] of J onto [-1, 1], a = (1 - lam0) / 2, b = 1 - a.

    T_2a = 2 T_a^2 - I and T_(2a-1) = 2 T_a T_(a-1) - T_1 turn each term
    into a moment of the row x_a = e_m T_a(J') and the column
    y_a = T_a(J') e_n: c_2a (2 x_a.y_a - x_0.y_0) and
    c_(2a-1) (2 x_a.y_(a-1) - x_1.y_0), so x and y need R = ceil(d/2) =
    len(c) // 2 steps of the three-term recurrence instead of d, taken by
    :func:`_chebyshev_blocks` with the rows of states 0..max(m, n) + R and
    no state cap, on the same rows since J is symmetric; where m = n the
    column is the row bit for bit, so the blocks step x alone and y is x.
    Each block's moments are two einsum row sums over the states x and y
    share (none when |m - n| > 2R: every term is 0).

    ||T_a(J')|| <= 1 on the spectrum, so the error is about (d+1) eps in
    e_m J^k e_n = P^k[m, n] sqrt(pi_m / pi_n), P = D^(-1/2) J D^(1/2) the
    chain, as for the vector form; tiny values need a guard by the caller.
    """
    R = len(c) // 2
    if R == 0 or abs(m - n) > 2 * R:
        return float(m == n)  # k = 0, or no state shared
    even, odd = [np.array([float(m == n)])], []  # x_a.y_a from a = 0, x_a.y_(a-1) from 1
    for block, lo_x, lo_y, nx in _chebyshev_blocks(m, n, R, lam0, up, flat, down):
        x = block[:, :nx]
        y = x if m == n else block[:, nx:]
        lo = max(lo_x, lo_y)
        hi = max(lo, min(lo_x + nx, lo_y + y.shape[1]))
        xs, ys = x[:, lo - lo_x:hi - lo_x], y[:, lo - lo_y:hi - lo_y]
        even.append(np.einsum("ij,ij->i", xs[2:], ys[2:]))
        odd.append(np.einsum("ij,ij->i", xs[2:], ys[1:-1]))
    even, odd = np.concatenate(even), np.concatenate(odd)
    ce, co = c[0::2], c[1::2]
    return float(2.0 * (ce @ even[:len(ce)]) - even[0] * ce.sum()
                 + 2.0 * (co @ odd) - odd[0] * co.sum())


_RING = 32  # three-term steps per block of _chebyshev_blocks


def _chebyshev_blocks(m: int, n: int, R: int, lam0: float, up: np.ndarray, flat: np.ndarray,
                      down: np.ndarray):
    """Yield (block, lo_x, lo_y, nx) per block of up to _RING steps of x_a
    and y_a, a <= R, in one ring of _RING + 2 rows [x | y]: x on the states
    lo_x..lo_x + nx - 1 and y from lo_y, the states m +- a and n +- a that
    each end reaches by the block's last step a, cut at 0.  Where m = n the
    rows are x alone (nx is the block's width, lo_y = lo_x): on the
    symmetric rows (up, flat, down) of :func:`_chebyshev_entry` the column
    pass y_a = T_a(J') e_n is then the row pass x_a bit for bit, so one half
    of the layout takes half the state-steps.  Row i of a block after step
    a0 holds step a0 - 1 + i (row 0 is 0 in the first block).  Entries past
    the reach are exactly 0 and no flux crosses from x to y before the last
    step (a state cut at 0 has down weight 0), so each row is the float
    vector of stepping on all states.  Each step goes in place through
    :func:`motzkinq.motzkin._tridiagonal_step` with the rows of 2 J', on
    the views of three 2-D views of the block, then subtracts the row two
    back (the first step halves instead).  The ring (_RING + 2 rows of the
    widest block), the work row and the block's row tables are
    :func:`motzkinq.motzkin._aligned_empty`, made once per pass, with the
    down table one slot late: each row and step view read or written whole
    starts on a 64-byte boundary, and a block copies its tables in place.
    """
    a = 0.5 * (1.0 - lam0)
    b, scale = 1.0 - a, 2.0 / a
    sides = scale * up, scale * (flat - b), scale * down
    halves = 1 if m == n else 2
    width = halves * (2 * R + 1)  # the widest block
    ring, work = _aligned_empty((_RING + 2, width)), _aligned_empty(width - 1)
    tables = _aligned_empty((3, width + 7))
    tables = tables[0, :width], tables[1, :width], tables[2, 7:]  # up, flat, down
    # [x_-1 | y_-1] = 0 and [x_0 | y_0] = [e_m | e_n], one column per half
    done, carry = 0, (np.repeat([[0.0], [1.0]], halves, axis=1), m, n, 1)
    while done < R:
        last = min(done + _RING, R)
        lo_x, lo_y = max(m - last, 0), max(n - last, 0)
        nx = m + last + 1 - lo_x
        size = nx if m == n else nx + n + last + 1 - lo_y
        rows = _step_rows(*(np.concatenate((u[lo_x:lo_x + nx], u[lo_y:lo_y + size - nx]),
                                           out=table[:size])
                            for u, table in zip(sides, tables)))
        block = ring[:last - done + 2, :size]
        old, x0, y0, old_nx = carry
        block[:2] = 0.0
        block[:2, x0 - lo_x:x0 - lo_x + old_nx] = old[:, :old_nx]
        block[:2, nx + y0 - lo_y:nx + y0 - lo_y + old.shape[1] - old_nx] = old[:, old_nx:]
        whole, below, above = _step_views(block)
        w = work[:size - 1]
        before, cur = whole[0], (whole[1], below[1], above[1])
        for i in range(2, len(block)):
            new = whole[i], below[i], above[i]
            _tridiagonal_step(cur, new, rows, w)
            if done == 0 and i == 2:
                np.multiply(new[0], 0.5, out=new[0])  # [x_1 | y_1]
            else:
                np.subtract(new[0], before, out=new[0])
            before, cur = cur[0], new
        yield block, lo_x, lo_y, nx
        carry, done = (block[-2:].copy(), lo_x, lo_y, nx), last


def kstep_distribution(start: Distribution, k: int, model: QModelParams) -> Distribution:
    """Distribution after k steps from ``start``: :func:`_kstep` on states
    0..max support + k, the exact reach, where mass gets to the top state
    only at step k, so none leaks past it."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    cap = start.offset + len(start.probs) - 1 + k
    return Distribution(offset=0, probs=_kstep(start, k, model, cap))


def _kstep(start: Distribution, k: int, model: QModelParams, cap: int) -> np.ndarray:
    """The law on states 0..cap after k steps from ``start``: k steps of
    :func:`motzkinq.motzkin._power` on the rows of states 0..cap and one
    absorbing state cap + 1 (up 0, flat 1, down 0), whose entry gathers the
    mass that leaves past the cap; CapacityError naming the cap, k and that
    leak when it is more than 1e-9 (never on the exact reach, where cap is
    at least the top of the support plus k)."""
    up, flat, down = (np.append(w, end) for w, end in
                      zip(transition_arrays(model, cap), (0.0, 1.0, 0.0)))
    vec = np.zeros(cap + 2)
    vec[start.offset:start.offset + len(start.probs)] = start.probs
    out, log_scale = _power(vec, up, flat, down, itertools.repeat(1.0, k))
    out = out * math.exp(log_scale)
    if out[-1] > 1e-9:
        raise CapacityError(f"state cap {cap} leaks mass {out[-1]:.3g} > 1e-9 in k={k} steps "
                            f"from level {start.offset}")
    return out[:-1]


def _chain_point_evolution(model: QModelParams, m: int, n: int, k: int) -> float:
    """P(X_k = n | X_0 = m), the lattice point of the local-limit functions
    of :mod:`motzkinq.kernels`; 0 when |m - n| > k.

    It is sqrt(pi_n / pi_m) J^k[m, n], from the Chebyshev expansion of J^k
    on the spectrum [A/B, 1], of degree d, by the bilinear pass
    :func:`_chebyshev_entry` of R = ceil(d/2) steps on the closed-form rows
    :func:`_jacobi_rows` of states 0..max(m, n) + R, the exact reach of
    both ends, and one half of its ring where m = n.  log(pi_n / pi_m) is
    summed from the ratios of ``transition_arrays`` on states 0..max(m, n),
    and not taken where m = n.

    Where k steps on the exact reach 0..max(m, n) + k cost no more
    state-steps than twice the two-half pass, 4R (2R + 1), the point is
    instead the one exact pass :func:`_kstep` from m on that reach, where
    nothing leaks.  The expansion is accurate to about (d+1) eps in the
    pi-symmetrized value J^k[m, n] = P(X_k = n | X_0 = m) sqrt(pi_m / pi_n);
    a value within 10^6 times that of zero (a far tail) is recomputed by
    the exact pass too: on the exact reach while max(m, n) + k is at most
    twice the diffusive cap max(m, n) + floor(8 sqrt(k / (1+sigma))) + 64,
    eight diffusive widths above the farther end, and on that cap beyond
    it, where CapacityError names the cap, k and the leak when more than
    1e-9 of the mass leaves past it.
    """
    if abs(m - n) > k:
        return 0.0  # unreachable: at most one level per step
    lam0 = model.A / model.B
    c = _chebyshev_power_coefficients(k, lam0)
    R = len(c) // 2
    lo, hi = min(m, n), max(m, n)
    cap = hi + k  # the exact reach
    if k * (cap + 1) > 4 * R * (2 * R + 1):
        p = _chebyshev_entry(m, n, c, lam0, *_jacobi_rows(model, hi + R))
        if p >= 1e6 * len(c) * _EPS:
            if m == n:
                return p
            up, _, down = transition_arrays(model, hi)
            log_ratio = float(np.sum(np.log(up[lo:hi] / down[lo + 1:hi + 1])))
            return p * math.exp(0.5 * (log_ratio if m < n else -log_ratio))  # sqrt(pi_n / pi_m)
        diffusive = hi + int(8.0 * math.sqrt(k / (1.0 + model.sigma))) + 64
        if cap > 2 * diffusive:
            cap = diffusive
    return float(_kstep(Distribution.point_mass(m), k, model, cap)[n])


def kstep_transition_integral(m: int, n: int, k: int, model: QModelParams) -> float:
    """P(X_k = n | X_0 = m) = (pi_n / pi_m) int (x/B)^k p_m ptilde_n nu(dx),
    the moment integral :func:`motzkinq.ascpoly._moment_integral` of the unit
    vectors e_m and e_n; cross-validates the tridiagonal route.

    The factor x^k concentrates near the right endpoint, so node doubling is
    capped (a :class:`ConvergenceError` is preferable to a silently
    inaccurate value).
    """
    nmax = max(m, n)
    e_m, e_n = np.zeros((2, nmax + 1))
    e_m[m] = e_n[n] = 1.0
    pis = pi_values(nmax, model)
    return pis[n] / pis[m] * _moment_integral(e_m, e_n, k, model)


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

def _positive_rows(table: np.ndarray, p: np.ndarray) -> dict[tuple[int, ...], float]:
    keep = p > 0.0
    return dict(zip(map(tuple, table[keep].tolist()), p[keep].tolist()))


def finite_path_head_law(wm: WeightModel, L: int, K: int) -> dict[tuple[int, ...], float]:
    """Exact joint law of (g_0, ..., g_K) under the length-L path measure:
    alpha_m w(head) u_K[g_K] / (alpha . u_0) over the :func:`altitude_table`
    heads from m <= T, T the boundary cutoff, whose total is 1 - lost; u_K
    comes from ``motzkin._backward_table``.  CapacityError if the share
    lost of the mass alpha_m u_0[m] past T exceeds 10 TAIL_TOL, so the law
    misses at most that.  Needs the q-model weights.  Guarded at
    K <= ENUMERATION_CAP."""
    if K < 0:
        raise ValueError(f"K must be nonnegative, got {K}")
    if K >= L:
        raise ValueError("need K < L")
    T, (a, b, c, av, _), uK, lost = _backward_table(wm, L, (K,))
    table = np.concatenate([altitude_table(K, m, None) for m in range(T + 1)])
    p = av[table[:, 0]] * _table_product(table, a, b, c) * uK[0, table[:, -1]]
    return _positive_rows(table, p * ((1.0 - lost) / p.sum()))


def chain_head_law(model: QModelParams, which: str, K: int) -> dict[tuple[int, ...], float]:
    """Joint law of the first K+1 chain states (X_0..X_K or Y_0..Y_K): the
    :func:`altitude_table` heads from each start of :func:`initial_law`,
    priced by the (up, flat, down) rows.  Guarded at
    K <= ENUMERATION_CAP."""
    if K < 0:
        raise ValueError(f"K must be nonnegative, got {K}")
    init = initial_law(which, model)
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

    (beta, beta n, beta n^2) pulled back L steps in one stack by
    ``motzkin._backward_table`` and paired with (alpha, alpha m, alpha m^2)
    over m <= T give F[i, j] = C E[g_0^i g_L^j] up to one factor, T the
    boundary cutoff.  CapacityError if more than 10 TAIL_TOL of the
    initial mass lies past T, so the law behind the moments misses at most
    that share of its total.  Needs the q-model weights; ValueError where
    rho0 = 0 or rho1 = 0 pins g_0 or g_L at 0, so the correlation is
    undefined.
    """
    for name in ("rho0", "rho1"):
        if getattr(_require_qmodel(wm), name) == 0.0:
            raise ValueError(f"{name} = 0 pins an end at 0: corr(g_0, g_L) is undefined")
    T, (*_, av, _), u, _ = _backward_table(wm, L, (0,), moments=3)
    heads = av[:T + 1, None] * np.arange(T + 1)[:, None] ** np.arange(3)
    F = heads.T @ np.ascontiguousarray(u[0].T)[:T + 1]
    F /= F[0, 0]  # F[i, j] = E[g_0^i g_L^j]
    vm, vn = F[2, 0] - F[1, 0] ** 2, F[0, 2] - F[0, 1] ** 2
    return float((F[1, 1] - F[1, 0] * F[0, 1]) / math.sqrt(vm * vn))
