"""Brute-force oracles shared by the test modules.

The path oracles enumerate paths directly (vectorized over all step
sequences) and never touch the transfer-operator code they are used to
check.  The composite Gauss-Legendre rule is an integrator independent of
the package's nested trapezoidal rule.  The allocating tridiagonal step and
the scaled power and backward table built on it are frozen copies of the
loops that ``motzkin._power`` and ``motzkin._backward_vectors`` ran before
their step wrote in place; the oracles below step with them.  The leaking
stepper is the chain's old k-step loop, which summed the flux past the
cap step by step; ``kernels._exact_point`` now reads that leak from an
absorbing state of ``_power``.  The tiled power is the old form of the
stacked ``_power`` in ``chains._pulled_back_ends``: several end columns as
one vector, kept apart by zero weights at the block edges.  The sampler and
chain oracles are the straightforward per-state forms of ``sample_paths`` and
``simulate_chain``: the package's table-driven loops must reproduce them bit
for bit.  The per-cell writer is the plain form of the CLI's integer-table
writer ``cli._int_lines``.  The recursive walk and the nested-loop
expectation are the path-by-path forms of ``altitude_table`` and verify's
enumeration check.
The scalar recurrence is the per-point form of ``motzkin_poly_table``.
The two prefix walks and the per-start correlation are the earlier forms of
the exact finite-L laws in ``chains``: a recursive walk over head prefixes
and one L-step transfer pass per initial altitude.  The shares of g_0 and
g_L past a truncation are a backward and a forward pass of their own,
400 levels above it.

The last block holds references that the package itself never calls: the
untruncated fixed-end path sum ``partition_weight`` with its all-ones
``unit_model``, the vector form ``_chebyshev_power`` of the Chebyshev
expansion of P^k on all of [-1, 1] (checks the bilinear pass
``chains._chebyshev_entry``, which expands on the chain's spectrum),
the flat-step count and path-line parser, the convolution
form ``asc_at_one`` of Q_n(1) / (q; q)_n (checks ``s_values``) and the
scalar q-product orthogonality density ``asc_density`` (checks the theta
quotient ``log_density_times_sine``).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from motzkinq.ascpoly import AscParams, _check_order, q_number
from motzkinq.chains import _chebyshev_power_coefficients, initial_law, transition_arrays
from motzkinq.errors import CapacityError, ConvergenceError
from motzkinq.motzkin import (ENUMERATION_CAP, MotzkinPath, WeightModel, _boundary_cutoff,
                              _power, _transposed, _weight_tables, path_weight)
from motzkinq.qspecial import qpoch_infinite

_EPS = float(np.finfo(float).eps)

_seq_cache: dict[int, np.ndarray] = {}


def step_sequences(L: int) -> np.ndarray:
    """All 3^L step sequences with entries in {-1, 0, 1}, shape (3^L, L)."""
    got = _seq_cache.get(L)
    if got is None:
        if L == 0:
            got = np.zeros((1, 0), dtype=np.int64)
        else:
            grids = np.meshgrid(*([np.array([-1, 0, 1])] * L), indexing="ij")
            got = np.stack([g.ravel() for g in grids], axis=1)
        _seq_cache[L] = got
    return got


def tridiagonal_step_allocating(v: np.ndarray, up: np.ndarray, flat: np.ndarray,
                                down: np.ndarray) -> np.ndarray:
    """One step v -> v M of the tridiagonal operator in its allocating form,
    the form before ``motzkin._tridiagonal_step`` wrote in place: new = flat v,
    then new[1:] += up[:-1] v[:-1], then new[:-1] += down[1:] v[1:]."""
    new = flat * v
    new[1:] += up[:-1] * v[:-1]
    new[:-1] += down[1:] * v[1:]
    return new


def power_allocating(v: np.ndarray, up: np.ndarray, flat: np.ndarray, down: np.ndarray,
                     ts) -> tuple[np.ndarray, float]:
    """``motzkin._power`` as the loop of allocating steps it was before the
    in-place step; the package must match it bit for bit."""
    log_scale = 0.0
    prev = None
    for t in ts:
        if t != prev:
            tu, dt, prev = t * up, down / t, t
        v = tridiagonal_step_allocating(v, tu, flat, dt)
        peak = float(v.max())
        if peak == 0.0:
            return v, -math.inf
        if peak > 1e200 or peak < 1e-200:
            v = v / peak
            log_scale += math.log(peak)
    return v, log_scale


def backward_vectors_allocating(tables: tuple[np.ndarray, ...], L: int) -> np.ndarray:
    """``motzkin._backward_vectors`` as the loop of allocating steps it was
    before the in-place step; the package must match it bit for bit."""
    a, b, c, _, bv = tables
    up_T, down_T = _transposed(a, c)
    u = np.empty((L + 1, len(a)))
    u[L] = bv / np.max(bv)
    for k in range(L - 1, -1, -1):
        v = tridiagonal_step_allocating(u[k + 1], up_T, b, down_T)
        u[k] = v / v.max()
    return u


def iterate_tridiagonal(vec: np.ndarray, k: int, up: np.ndarray, flat: np.ndarray,
                        down: np.ndarray) -> tuple[np.ndarray, float]:
    """k unscaled tridiagonal steps; returns (vector, mass lost past the
    cap), the loss summed before each step as up[-1] v[-1]."""
    v = np.array(vec, dtype=float)
    lost = 0.0
    for _ in range(k):
        lost += up[-1] * v[-1]
        v = tridiagonal_step_allocating(v, up, flat, down)
    return v, lost


def tiled_power(ends: np.ndarray, up: np.ndarray, flat: np.ndarray, down: np.ndarray,
                ts) -> tuple[np.ndarray, float]:
    """The stack ``ends`` (columns, S) stepped by ``motzkin._power`` as one
    vector of columns * S entries: up[-1] and down[0] must be 0, so the
    tiled weights keep the blocks apart.  Returns (stack, log_scale)."""
    cols, S = ends.shape
    up_t, flat_t, down_t = (np.tile(w, cols) for w in (up, flat, down))
    v, log_scale = _power(ends.ravel(), up_t, flat_t, down_t, ts)
    return v.reshape(cols, S), log_scale


def path_matrix(m: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """(altitude matrix, validity mask) for all step sequences started at m."""
    seqs = step_sequences(L)
    alts = np.empty((seqs.shape[0], L + 1), dtype=np.int64)
    alts[:, 0] = m
    np.cumsum(seqs, axis=1, out=alts[:, 1:])
    alts[:, 1:] += m
    valid = alts.min(axis=1) >= 0
    return alts, valid


def edge_weights_of_paths(alts: np.ndarray, up: np.ndarray, flat: np.ndarray,
                          down: np.ndarray) -> np.ndarray:
    """Vector of path weights for an altitude matrix, given weight tables
    indexed by altitude (tables must cover every altitude present)."""
    L = alts.shape[1] - 1
    w = np.ones(alts.shape[0])
    for j in range(L):
        left = alts[:, j]
        step = alts[:, j + 1] - left
        w *= np.where(step == 1, up[left], np.where(step == 0, flat[left], down[np.maximum(left, 0)]))
    return w


def brute_expectation(model, z0: float, z1: float, t: list[float], s: list[float],
                      L: int, mmax: int) -> float:
    """Generating functional by full path enumeration with boundaries
    truncated at mmax (both endpoints)."""
    K = len(t)
    size = mmax + L + 2
    up = np.array([model.up(n) for n in range(size)])
    flat = np.array([model.flat(n) for n in range(size)])
    down = np.array([model.down(n) for n in range(size)])
    alpha = np.array([model.alpha(n) for n in range(size)])
    beta = np.array([model.beta(n) for n in range(size)])
    num = 0.0
    den = 0.0
    for m in range(mmax + 1):
        alts, valid = path_matrix(m, L)
        alts = alts[valid]
        w = edge_weights_of_paths(alts, up, flat, down)
        ends = alts[:, -1]
        base = alpha[m] * w * beta[ends]
        den += float(np.sum(base))
        gen = base * z0**m * np.power(float(z1), ends)
        for j in range(1, K + 1):
            dj = (alts[:, j] - alts[:, j - 1]).astype(float)
            gen = gen * np.power(float(t[j - 1]), dj)
            dj_rev = (alts[:, L - j + 1] - alts[:, L - j]).astype(float)
            gen = gen * np.power(float(s[j - 1]), -dj_rev)
        num += float(np.sum(gen))
    return num / den


def brute_partition_sum(model, z0: float, z1: float, L: int, mmax: int) -> float:
    """Plain normalizing constant by enumeration, boundaries <= mmax."""
    size = mmax + L + 2
    up = np.array([model.up(n) for n in range(size)])
    flat = np.array([model.flat(n) for n in range(size)])
    down = np.array([model.down(n) for n in range(size)])
    alpha = np.array([model.alpha(n) for n in range(size)])
    beta = np.array([model.beta(n) for n in range(size)])
    total = 0.0
    for m in range(mmax + 1):
        alts, valid = path_matrix(m, L)
        alts = alts[valid]
        w = edge_weights_of_paths(alts, up, flat, down)
        total += float(np.sum(alpha[m] * z0**m * w * beta[alts[:, -1]]
                              * np.power(float(z1), alts[:, -1])))
    return total


# composite rule: a fixed Gauss-Legendre base rule applied per panel, with
# panel doubling.  Keeps node generation O(total nodes) instead of the
# O(n^2) eigenproblem a single huge rule would require.
_BASE_RULE = 32
_base_nodes, _base_weights = np.polynomial.legendre.leggauss(_BASE_RULE)


def panel_rule(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [a, b]."""
    h = (b - a) / panels
    centers = a + h * (np.arange(panels) + 0.5)
    nodes = (centers[:, None] + (0.5 * h) * _base_nodes[None, :]).ravel()
    weights = np.tile((0.5 * h) * _base_weights, panels)
    return nodes, weights


def gauss_legendre(f, a: float, b: float, rel_tol: float = 1e-12, min_nodes: int = 32,
                   max_nodes: int = 2**15) -> float:
    """Integrate a vectorized callable ``f`` over ``[a, b]``.

    ``f`` must accept an ndarray of abscissas and return an ndarray of the
    same shape.  Panels double until two successive estimates agree to
    ``rel_tol`` relative, with an absolute floor at the rounding
    level of the integrand's L1 mass (cancellation-heavy integrals cannot be
    resolved below that).  Raises :class:`ConvergenceError` when
    ``max_nodes`` is exhausted first.
    """
    if b <= a:
        if b == a:
            return 0.0
        raise ValueError(f"empty integration range [{a}, {b}]")
    prev = None
    panels = max(1, min_nodes // _BASE_RULE)
    while panels * _BASE_RULE <= max_nodes:
        nodes, weights = panel_rule(a, b, panels)
        fv = np.asarray(f(nodes), dtype=float)
        val = float(np.dot(weights, fv))
        l1 = float(np.dot(weights, np.abs(fv)))
        if prev is not None:
            scale = max(abs(val), abs(prev))
            if abs(val - prev) <= rel_tol * scale + 64.0 * _EPS * l1 + 1e-300:
                return val
        prev = val
        panels *= 2
    raise ConvergenceError(
        f"quadrature on [{a}, {b}] did not converge within {max_nodes} nodes"
    )


def sample_paths_per_state(L: int, model, count: int, seed: int,
                           tail_tol: float = 1e-12) -> np.ndarray:
    """``motzkin.sample_paths`` with every path gathering its own edge
    weights and backward-vector entries at each step."""
    if count < 1:
        raise ValueError("count must be positive")
    T = _boundary_cutoff(model, tail_tol, L)
    S = T + L + 2
    u = backward_vectors_allocating(_weight_tables(model, S), L)
    a, b, c = model.weight_arrays(S)
    av, _ = model.boundary_arrays(S)
    p0 = av * u[0]
    top = S - L - 1
    lost = float(np.sum(p0[top:])) / float(np.sum(p0))
    if lost > tail_tol * 10:
        raise CapacityError(f"initial-altitude cap discards mass {lost:.2e} > tail_tol")
    p0 = p0[:top]
    p0 = p0 / np.sum(p0)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(p0)
    states = np.searchsorted(cdf, rng.random(count), side="right").astype(np.int64)
    paths = np.empty((count, L + 1), dtype=np.int64)
    paths[:, 0] = states
    for k in range(L):
        nxt = u[k + 1]
        pu = a[states] * nxt[states + 1]
        pf = b[states] * nxt[states]
        pd = np.where(states > 0, c[states] * nxt[np.maximum(states - 1, 0)], 0.0)
        total = pu + pf + pd
        r = rng.random(count) * total
        step = np.where(r < pu, 1, np.where(r < pu + pf, 0, -1))
        states = states + step
        paths[:, k + 1] = states
    return paths


def simulate_chain_numpy_loop(model, steps: int, seed: int,
                              start: int | None = None) -> np.ndarray:
    """``chains.simulate_chain`` indexing numpy arrays state by state."""
    rng = np.random.default_rng(seed)
    if start is None:
        law = initial_law("X", model)
        cdf = np.cumsum(law.probs)
        state = int(law.offset + np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    else:
        state = int(start)
    cap = state + 4 * int(math.sqrt(steps + 1)) + 64
    up, flat, down = transition_arrays(model, cap)
    out = np.empty(steps + 1, dtype=np.int64)
    out[0] = state
    draws = rng.random(steps)
    for i in range(steps):
        if state + 1 >= cap:
            cap = 2 * cap + 16
            up, flat, down = transition_arrays(model, cap)
        r = draws[i]
        if r < up[state]:
            state += 1
        elif r < up[state] + flat[state]:
            pass
        else:
            state -= 1 if state > 0 else 0
        out[i + 1] = state
    return out


def int_lines_per_cell(table: np.ndarray, sep: str, numbered: bool = False) -> str:
    """``cli._int_lines`` with one ``str`` per cell and one line per row."""
    lines = []
    for i, row in enumerate(table.tolist()):
        cells = sep.join(str(v) for v in row)
        lines.append(f"{i},{cells}\n" if numbered else f"{cells}\n")
    return "".join(lines)


def enumerate_paths_recursive(L: int, m: int, n: int) -> list[MotzkinPath]:
    """All Motzkin paths of length L from altitude m to altitude n.

    Exhaustive with pruning; guarded at L <= 14.
    """
    if L < 0 or m < 0 or n < 0:
        raise ValueError("L, m, n must be nonnegative")
    if L > ENUMERATION_CAP:
        raise CapacityError(f"enumeration guard: L={L} exceeds {ENUMERATION_CAP}")
    out: list[MotzkinPath] = []
    prefix = [m]

    def walk(h: int, remaining: int) -> None:
        if abs(h - n) > remaining:
            return
        if remaining == 0:
            out.append(MotzkinPath(tuple(prefix)))
            return
        for step in (1, 0, -1):
            nh = h + step
            if nh < 0:
                continue
            prefix.append(nh)
            walk(nh, remaining - 1)
            prefix.pop()

    walk(m, L)
    return out


def enumeration_expectation_nested(wm, z0: float, z1: float,
                                   t: list[float], s: list[float], L: int, mmax: int) -> float:
    """Generating functional by direct path enumeration (no transfer code)."""
    K = len(t)
    num = 0.0
    den = 0.0
    for m in range(mmax + 1):
        for end in range(0, m + L + 1):
            for p in enumerate_paths_recursive(L, m, end):
                w = wm.alpha(m) * path_weight(p, wm) * wm.beta(end)
                den += w
                gen = w * z0**m * z1**end
                alts = p.altitudes
                for j in range(1, K + 1):
                    gen *= t[j - 1] ** (alts[j] - alts[j - 1])
                    gen *= s[j - 1] ** (-(alts[L - j + 1] - alts[L - j]))
                num += gen
    return num / den


def finite_path_head_law_walk(wm, L: int, K: int,
                              tail_tol: float = 1e-10) -> dict[tuple[int, ...], float]:
    """``chains.finite_path_head_law`` as a recursive walk over the head
    prefixes of every initial altitude up to the boundary cutoff."""
    if K >= L:
        raise ValueError("need K < L")
    T = _boundary_cutoff(wm, tail_tol, L)
    S = T + L + 2
    a, b, c = wm.weight_arrays(S)
    av, bv = wm.boundary_arrays(S)
    up_T, down_T = _transposed(a, c)
    u = bv.astype(float)
    scale = 0.0
    for j in range(L - K):
        u = tridiagonal_step_allocating(u, up_T, b, down_T)
        peak = float(np.max(u))
        u /= peak
        scale += math.log(peak)
    # u ~ M_1^{L-K} W_beta up to exp(scale); same factor cancels in C below
    uk = u
    u0 = uk.copy()
    for j in range(K):
        u0 = tridiagonal_step_allocating(u0, up_T, b, down_T)
    C = float(np.dot(av, u0))
    law: dict[tuple[int, ...], float] = {}

    def walk(prefix: list[int], weight: float) -> None:
        h = prefix[-1]
        if len(prefix) == K + 1:
            p = weight * uk[h] / C
            if p > 0.0:
                law[tuple(prefix)] = p
            return
        for step in (1, 0, -1):
            nh = h + step
            if nh < 0 or nh >= S - 1:
                continue
            w = a[h] if step == 1 else (b[h] if step == 0 else c[h])
            if w == 0.0:
                continue
            prefix.append(nh)
            walk(prefix, weight * w)
            prefix.pop()

    for m in range(T + 1):
        if av[m] > 0.0:
            walk([m], float(av[m]))
    return law


def chain_head_law_walk(model, which: str, K: int,
                        tail_tol: float = 1e-10) -> dict[tuple[int, ...], float]:
    """``chains.chain_head_law`` as a recursive walk over chain prefixes."""
    init = initial_law(which, model, tail_tol)
    up, flat, down = transition_arrays(model, len(init.probs) + K)
    law: dict[tuple[int, ...], float] = {}

    def walk(prefix: list[int], p: float) -> None:
        if p <= 0.0:
            return
        if len(prefix) == K + 1:
            law[tuple(prefix)] = p
            return
        h = prefix[-1]
        for nh, pr in ((h - 1, down[h]), (h, flat[h]), (h + 1, up[h])):
            prefix.append(nh)
            walk(prefix, p * pr)
            prefix.pop()

    for n, p in init.rows():
        walk([n], p)
    return law


def endpoint_pair_correlation_per_start(wm, L: int, tail_tol: float = 1e-10) -> float:
    """``chains.endpoint_pair_correlation`` with one L-step transfer pass per
    initial altitude, each rescaled by its own peak, filling the joint law
    of (g_0, g_L)."""
    T = _boundary_cutoff(wm, tail_tol, L)
    S = T + L + 2
    a, b, c = wm.weight_arrays(S)
    av, bv = wm.boundary_arrays(S)
    joint = np.zeros((T + 1, S))
    for m in range(T + 1):
        if av[m] == 0.0:
            continue
        v = np.zeros(S)
        v[m] = 1.0
        scale = 0.0
        for _ in range(L):
            v = tridiagonal_step_allocating(v, a, b, c)
            peak = float(np.max(v))
            if peak > 1e250:
                v /= peak
                scale += math.log(peak)
        joint[m] = av[m] * v * bv * math.exp(scale)
    joint /= joint.sum()
    ms = np.arange(T + 1)
    ns = np.arange(S)
    pm = joint.sum(axis=1)
    pn = joint.sum(axis=0)
    em, en = float(np.dot(ms, pm)), float(np.dot(ns, pn))
    vm = float(np.dot(ms**2, pm)) - em**2
    vn = float(np.dot(ns**2, pn)) - en**2
    cov = float(ms @ joint @ ns) - em * en
    return cov / math.sqrt(vm * vn)


def motzkin_poly_eval_scalar(n: int, x: float, m) -> float:
    """p_n(x) of the Motzkin model by the forward recurrence on Python floats,
    with coefficients up [n+2]_q, flat 2 sigma [n+1]_q, down [n]_q."""
    prev, cur = 0.0, 1.0
    for k in range(n):
        up = q_number(k + 2, m.q)
        flat = 2.0 * m.sigma * q_number(k + 1, m.q)
        down = q_number(k, m.q)
        prev, cur = cur, ((x - flat) * cur - down * prev) / up
    return cur


def end_laws(wm, L: int, S: int) -> tuple[np.ndarray, np.ndarray]:
    """Laws of g_0 and of g_L under the length-L path measure on altitudes
    0..S-1: alpha_m (M^L beta)_m and (alpha M^L)_n beta_n, each divided by
    its sum, by a backward and a forward pass whose weights are read from
    the model one level at a time and whose vector is divided by its sum
    after every step."""
    ns = range(S)
    up, flat, down, alpha, beta = (np.array([f(n) for n in ns], dtype=float)
                                   for f in (wm.up, wm.flat, wm.down, wm.alpha, wm.beta))
    u, v = beta, alpha
    for _ in range(L):
        back = flat * u
        back[:-1] += up[:-1] * u[1:]
        back[1:] += down[1:] * u[:-1]
        fwd = flat * v
        fwd[1:] += up[:-1] * v[:-1]
        fwd[:-1] += down[1:] * v[1:]
        u, v = back / back.sum(), fwd / fwd.sum()
    p0, pL = alpha * u, v * beta
    return p0 / p0.sum(), pL / pL.sum()


def end_mass_shares_past(wm, L: int, T: int, extra: int = 400) -> tuple[float, float]:
    """Shares of the length-L path measure with g_0 > T and with g_L > T,
    from :func:`end_laws` on T + L + extra levels."""
    p0, pL = end_laws(wm, L, T + L + extra)
    return float(p0[T + 1:].sum()), float(pL[T + 1:].sum())


def transfer_expectation_plain(wm, z0: float, z1: float, t, s, L: int, S: int) -> float:
    """``motzkin.matrix_ansatz_expectation`` on a fixed number S of levels,
    by two forward passes without rescaling whose weights are read from the
    model one level at a time (short paths only: nothing guards overflow)."""
    ns = range(S)
    up, flat, down, alpha, beta = (np.array([f(n) for n in ns], dtype=float)
                                   for f in (wm.up, wm.flat, wm.down, wm.alpha, wm.beta))
    K = len(t)
    tlist = list(t) + [1.0] * (L - 2 * K) + [1.0 / sj for sj in reversed(s)]
    h = np.arange(S)

    def forward(v, ts):
        for tj in ts:
            new = flat * v
            new[1:] += tj * up[:-1] * v[:-1]
            new[:-1] += down[1:] / tj * v[1:]
            v = new
        return v

    num = forward(alpha * z0 ** h, tlist) @ (beta * z1 ** h)
    den = forward(alpha, [1.0] * L) @ beta
    return float(num / den)


# ------------------------------------------- references the package never calls

def unit_model() -> WeightModel:
    """All edge and boundary weights 1 (counting measure; boundary sums
    diverge, so only enumeration-style operations apply)."""
    one = lambda n: 1.0
    return WeightModel(up=one, flat=one, down=one, alpha=one, beta=one)


def horizontal_count(path: MotzkinPath) -> int:
    """Number of flat steps H(path)."""
    alts = path.altitudes
    return sum(1 for a, b in zip(alts, alts[1:]) if a == b)


def parse_path_line(line: str) -> MotzkinPath:
    """Inverse of ``motzkin.path_line``."""
    return MotzkinPath(tuple(int(tok) for tok in line.strip().split(",")))


def partition_weight(L: int, m: int, n: int, model: WeightModel) -> float:
    """Total weight of all paths of length L from m to n.

    Exact (no truncation): the operator runs on max(m, n) + L + 2 levels,
    and a path cannot climb more than one level per step.
    """
    if L < 0 or m < 0 or n < 0:
        raise ValueError("L, m, n must be nonnegative")
    S = max(m, n) + L + 2
    a, b, c = model.weight_arrays(S)
    v = np.zeros(S)
    v[m] = 1.0
    for _ in range(L):
        v = tridiagonal_step_allocating(v, a, b, c)
    return float(v[n])


def _chebyshev_power(vec: np.ndarray, k: int, up: np.ndarray, flat: np.ndarray,
                     down: np.ndarray) -> tuple[np.ndarray, int]:
    """vec P^k as sum_j c_j T_j(P) vec by the Chebyshev three-term recurrence
    T_(j+1)(P) v = 2 T_j(P) v P - T_(j-1)(P) v; returns (vector, degree d).

    The capped chain is reversible and substochastic, so P is similar to a
    symmetric matrix with spectrum in [-1, 1], where the truncated series
    of x^k on all of [-1, 1] (``_chebyshev_power_coefficients(k, -1.0)``)
    is within eps of x^k: d ~ sqrt(2 k ln(4/eps)) products instead of k.
    The error is absolute in the pi-symmetrized entries
    out[n] sqrt(pi_m / pi_n), so tiny values need a guard by the caller.
    """
    c = _chebyshev_power_coefficients(k, -1.0)
    d = len(c) - 1
    prev = vec.astype(float)
    out = c[0] * prev
    if d == 0:
        return out, d
    cur = tridiagonal_step_allocating(prev, up, flat, down)
    out += c[1] * cur
    up2, flat2, down2 = 2.0 * up, 2.0 * flat, 2.0 * down
    for j in range(2, d + 1):
        nxt = tridiagonal_step_allocating(cur, up2, flat2, down2)
        nxt -= prev
        prev, cur = cur, nxt
        if c[j]:
            out += c[j] * cur
    return out, d


_IMAG_GUARD = 1e-9


def asc_coeff_ratio_array(c: complex, q: float, nmax: int) -> np.ndarray:
    """Array of (c; q)_k / (q; q)_k for k = 0..nmax."""
    ks = np.arange(nmax, dtype=float)
    qk = np.power(q, ks)  # q^0 .. q^(nmax-1)
    num = np.cumprod(1.0 - c * qk.astype(complex))
    den = np.cumprod(1.0 - q * qk)
    out = np.empty(nmax + 1, dtype=complex)
    out[0] = 1.0
    out[1:] = num / den
    return out


def asc_at_one(n: int, p: AscParams) -> float:
    """Q_n(1; a, b | q) / (q; q)_n as the convolution sum
    sum_k (a;q)_k (b;q)_{n-k} / ((q;q)_k (q;q)_{n-k})."""
    _check_order(n)
    A = asc_coeff_ratio_array(complex(p.a), p.q, n)
    B = asc_coeff_ratio_array(complex(p.b), p.q, n)
    val = complex(np.dot(A, B[::-1]))
    if abs(val.imag) > _IMAG_GUARD * max(1.0, abs(val.real)):
        raise ValueError(f"imaginary residue {val.imag} in Q_{n}(1) convolution")
    return val.real


def asc_density(x: float, p: AscParams) -> float:
    """Orthogonality density g(x) of the Al-Salam-Chihara family on (-1, 1).

    Requires |a| < 1 and |b| < 1.
    """
    if abs(complex(p.a)) >= 1.0 or abs(complex(p.b)) >= 1.0:
        raise ValueError("density requires |a| < 1 and |b| < 1")
    if not -1.0 < x < 1.0:
        raise ValueError(f"density is supported on (-1, 1), got x={x}")
    q = p.q
    theta = math.acos(x)
    e2 = cmath.exp(2j * theta)
    e1 = cmath.exp(1j * theta)
    num = qpoch_infinite(q, q) * qpoch_infinite(p.prod_ab, q) * abs(qpoch_infinite(e2, q)) ** 2
    den = abs(qpoch_infinite(complex(p.a) * e1, q) * qpoch_infinite(complex(p.b) * e1, q)) ** 2
    return num / (2.0 * math.pi * math.sqrt(1.0 - x * x) * den)
