"""Al-Salam-Chihara polynomials and their Motzkin-model specialization.

The polynomial family ``Q_n(x; a, b | q)`` on [-1, 1] is defined by

    2 x Q_n = Q_{n+1} + (a+b) q^n Q_n + (1 - q^n)(1 - a b q^{n-1}) Q_{n-1},

with ``Q_{-1} = 0``, ``Q_0 = 1`` and parameters ``a, b`` either both real or
a complex-conjugate pair.  The Motzkin specialization uses conjugate
parameters built from ``(q, sigma)`` and renormalized polynomials ``p_n``
supported on an interval ``[A, B]``; their values ``pi_n = p_n(B)`` at the
right endpoint drive the boundary chains.

One three-term loop, :func:`_three_term`, gives every polynomial value,
on three row sets over the real pair ``(a+b, ab)``, so every value is
real: ``Q_n`` itself (:func:`asc_eval`), the Motzkin polynomials ``p_n``
on a grid (:func:`motzkin_poly_table`), and ``Q_n / (q; q)_n`` with its
rows scaled by the chain's own ratios ``s_(n+1)/s_n``, so that it stays in
range at q -> 1 (:func:`asc_endpoint_limit_q_to_1`).  Those ratios, and so the
endpoint values, come from the ratio recurrence of :func:`s_ratios`.  The
orthogonality density exists once, in log form, as a quotient of Jacobi
theta functions (:func:`log_density_times_sine`) whose series need at most
three terms at every q < 1.  The moment integrals
int (x/B)^k p_m ptilde_n nu(dx) of the integral route, the k-step chain
probabilities and the path-sum check all go through one function,
:func:`_moment_integral`, and :func:`nu_integrate` raises ``OverflowError``
where an integral's L1 mass is too small for the quadrature to resolve.
The lattice index J_x of the q -> 1 scaling, :func:`index_map`, serves the
endpoint limit and the kernels' local-limit drivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import _nested_trapezoid
from .qspecial import q_number, qpoch_log_abs

__all__ = [
    "AscParams",
    "QModelParams",
    "asc_eval",
    "log_density_times_sine",
    "nu_integrate",
    "s_ratios",
    "log_s_values",
    "s_values",
    "pi_values",
    "motzkin_poly_table",
    "asc_endpoint_limit_fixed_q",
    "asc_endpoint_limit_q_to_1",
    "index_map",
]

RECURRENCE_CAP = 100_000
_PI_LO = math.sin(math.pi)  # pi - math.pi, to double precision


@dataclass(frozen=True)
class AscParams:
    """Parameter triple (a, b, q); a, b real or complex conjugates, |ab| < 1."""

    a: complex
    b: complex
    q: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.q < 1.0):
            raise ValueError(f"q must lie in [0, 1), got {self.q}")
        a, b = complex(self.a), complex(self.b)
        both_real = abs(a.imag) <= 1e-14 * (1 + abs(a)) and abs(b.imag) <= 1e-14 * (1 + abs(b))
        conjugate = abs(a - b.conjugate()) <= 1e-12 * (1 + abs(a))
        if not (both_real or conjugate):
            raise ValueError("a, b must be both real or complex conjugates")
        if abs(a * b) >= 1.0:
            raise ValueError(f"|ab| must be < 1, got {abs(a * b)}")

    @property
    def sum_ab(self) -> float:
        return (complex(self.a) + complex(self.b)).real

    @property
    def prod_ab(self) -> float:
        return (complex(self.a) * complex(self.b)).real


@dataclass(frozen=True)
class QModelParams:
    """Parameters of the q-weighted Motzkin model."""

    q: float
    sigma: float
    rho0: float = 0.0
    rho1: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.q < 1.0):
            raise ValueError(f"q must lie in [0, 1), got {self.q}")
        if not (0.0 < self.sigma <= 1.0):
            raise ValueError(f"sigma must lie in (0, 1], got {self.sigma}")
        for name, rho in (("rho0", self.rho0), ("rho1", self.rho1)):
            if not (0.0 <= rho < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {rho}")

    @property
    def asc_a(self) -> complex:
        return -self.q * complex(self.sigma, math.sqrt(max(0.0, 1.0 - self.sigma**2)))

    @property
    def asc_b(self) -> complex:
        return self.asc_a.conjugate()

    def asc_params(self) -> AscParams:
        return AscParams(self.asc_a, self.asc_b, self.q)

    @property
    def A(self) -> float:
        """Left end of the orthogonality interval [A, B]."""
        return -2.0 * (1.0 - self.sigma) / (1.0 - self.q)

    @property
    def B(self) -> float:
        """Right end of the orthogonality interval [A, B]."""
        return 2.0 * (1.0 + self.sigma) / (1.0 - self.q)


def _check_order(n: int) -> None:
    if n < 0:
        raise ValueError(f"polynomial order must be nonnegative, got {n}")
    if n > RECURRENCE_CAP:
        raise OverflowError(f"recurrence order {n} exceeds cap {RECURRENCE_CAP}")


def _three_term(y, up, flat, down) -> list:
    """[P_0, ..., P_n] of P_(k+1) = ((y - flat_k) P_k - down_k P_(k-1)) / up_k
    for k < n = len(up), from P_(-1) = 0 and P_0 = 1, over a float or an
    array y; a value that leaves double range is left as inf or nan."""
    prev, cur = 0.0, 1.0
    out = [cur]
    for u, f, d in zip(up, flat, down):
        prev, cur = cur, ((y - f) * cur - d * prev) / u
        out.append(cur)
    return out


def asc_eval(n: int, x: float, p: AscParams) -> float:
    """Q_n(x; a, b | q) by the three-term loop at y = 2x on the rows
    (1, (a+b) q^k, (1 - q^k)(1 - ab q^(k-1))); OverflowError where it
    leaves double range."""
    _check_order(n)
    s1, s2, q = p.sum_ab, p.prod_ab, p.q
    flat, down = [], []
    qk, qk1 = 1.0, 0.0  # q^k and q^(k-1), the latter unused at k = 0
    for _ in range(n):
        flat.append(s1 * qk)
        down.append((1.0 - qk) * (1.0 - s2 * qk1))
        qk, qk1 = qk * q, qk
    cur = _three_term(2.0 * x, [1.0] * n, flat, down)[-1]
    if not math.isfinite(cur):
        raise OverflowError(f"Q_{n}({x}) overflowed double precision")
    return cur


def log_density_times_sine(theta: np.ndarray, m: QModelParams) -> np.ndarray:
    """log(g(cos theta) sin theta) for theta in [0, pi], g the orthogonality
    density of the model's family (a = -q e^{i phi}, b = conj(a),
    cos phi = sigma); -inf at theta = 0 and pi.

    By the Jacobi triple product (DLMF 20.5.2-3) the q-product form
    (2/pi) sin^2(theta) (q, ab; q)_inf |(q e^{2 i theta}; q)_inf|^2
    / |(a e^{i theta}, b e^{i theta}; q)_inf|^2 equals

        (2/pi) sin^2(theta) R(0) R(theta) / ((1 - q) R(v+) R(v-)),

    v+- = pi/2 - (theta +- phi)/2, with R(v) = theta_1(v) / sin(v) on the
    nome q^(1/2), prod_{n>=1} (1 - q^n)(1 - 2 q^n cos 2v + q^(2n)) up to a
    constant.  R is even, pi-periodic and positive, so each v reduces to
    [0, pi/2] and nothing cancels at theta = pi - phi, where theta_2 and the
    cosine beside it vanish together.  For q <= e^(-2 pi), R is the series
    sum_n (-1)^n w^(n(n+1)) D_n on the nome w = q^(1/2), with
    D_n = sin((2n+1) v) / sin(v) = 1 + 2 sum_{j<=n} cos(2 j v).  Above,
    with q = e^(-eps), the imaginary transformation (DLMF 20.7.30) gives the
    same series on the nome e^(-2 pi^2 / eps) with cosh(2 j y),
    y = 2 pi v / eps, in D_n, times e^(2 v (pi - v) / eps) sinh(y) /
    (e^y sin v); the four exponentials combine into one closed form.  Each
    series stops where nome^(n^2) < e^(-40), after at most three terms.
    """
    theta = np.asarray(theta, dtype=float)
    phi = math.acos(m.sigma)
    v = np.abs([np.zeros_like(theta), theta, 0.5 * (math.pi - theta - phi),
                0.5 * (math.pi - theta + phi)])
    # sinh(y) / sin(v) at v = 1e-300 is its v -> 0 limit in floating point
    v = np.maximum(np.minimum(v, math.pi - v), 1e-300)
    eps = -math.log(m.q) if m.q > 0.0 else math.inf
    if eps >= 2.0 * math.pi:
        log_nome, arg, harmonic, log_edge, shift = 0.5 * eps, 2.0 * v, np.cos, 0.0, 0.0
    else:
        log_nome, y = 2.0 * math.pi**2 / eps, 2.0 * math.pi / eps * v
        arg, harmonic = 2.0 * y, np.cosh
        log_edge = np.log(-np.expm1(-2.0 * y) / (2.0 * np.sin(v)))
        # the exponents 2 v (pi - v) / eps of R(0) R(theta) / (R(v+) R(v-))
        # in closed form, of size pi^2 / eps, so pi's rounding is put back
        a = (math.pi - theta) - phi + _PI_LO
        shift = -np.abs(a) * ((math.pi + _PI_LO) - np.sign(a) * (theta - phi)) / eps
    series = np.ones_like(v)
    d_n = np.ones_like(v)
    for n in range(1, int(math.sqrt(40.0 / log_nome)) + 1):
        d_n += 2.0 * harmonic(n * arg)
        series += (-1) ** n * math.exp(-n * (n + 1) * log_nome) * d_n
    log_r = np.log(series) + log_edge
    with np.errstate(divide="ignore"):
        log_sin = np.log(np.where(theta < math.pi, np.sin(theta), 0.0))
    return (math.log(2.0 / math.pi) - math.log1p(-m.q) + log_r[0] + log_r[1]
            - log_r[2] - log_r[3] + 2.0 * log_sin) + shift


def nu_integrate(f, m: QModelParams) -> float:
    """Integral of a vectorized function against the Motzkin orthogonality
    measure, via the substitution x = 2 (cos theta + sigma)/(1 - q).

    The substituted integrand g(cos theta) sin(theta) f(x(theta)) is even,
    2 pi-periodic and analytic in theta, so the nested trapezoidal rule on
    [0, pi] converges geometrically; floor 64 eps times the L1 mass.  Each
    node's value is sign(f) exp(log density + log|f|), so a density below
    double range loses nothing.  OverflowError when the L1 mass is below
    1e-300 / REL_TOL: only there can the quadrature's absolute 1e-300 floor,
    or node values lost to underflow, cost more than REL_TOL.
    """
    scale = 2.0 / (1.0 - m.q)

    def integrand(theta):
        x = scale * (np.cos(theta) + m.sigma)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fx = np.asarray(f(x), dtype=float)
            out = np.sign(fx) * np.exp(log_density_times_sine(theta, m) + np.log(np.abs(fx)))
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            raise OverflowError(f"orthogonality-measure integrand left double range "
                                f"at x={float(np.ravel(x)[bad[0]]):.6g}")
        return out

    total, l1 = _nested_trapezoid(integrand, math.pi, 64.0, "orthogonality-measure quadrature")
    if l1 < 1e-300 / numerics.REL_TOL:
        raise OverflowError(f"orthogonality-measure quadrature at q={m.q:g} has L1 mass "
                            f"{float(l1):.3g} < 1e-300 / REL_TOL, where its 1e-300 floor and "
                            "underflowed node values can cost more than REL_TOL")
    return float(total)


# ------------------------------------------------------- Motzkin specialization

def _decay(nmax: int, q: float) -> np.ndarray:
    """1 - q^(n+1) for n = 0..nmax, by expm1 so it keeps its relative
    accuracy as q -> 1."""
    if q == 0.0:
        return np.ones(nmax + 1)
    return -np.expm1(np.arange(1, nmax + 2) * math.log(q))


def s_ratios(nmax: int, m: QModelParams) -> np.ndarray:
    """Ratios r_n = s_(n+1) / s_n of the boundary values for n = 0..nmax.

    At x = 1 the three-term recurrence, with a + b = -2 sigma q and ab = q^2,
    gives them in real arithmetic:

        (1 - q^(n+1)) r_n = 2 + 2 sigma q^(n+1) - (1 - q^(n+1)) / r_(n-1),

    with 1 / r_(-1) = 0.  s_n is the dominant solution, so the forward
    recurrence is stable.
    """
    _check_order(nmax)
    decay = _decay(nmax, m.q)
    num = 2.0 + 2.0 * m.sigma * (1.0 - decay)
    out = []
    r = math.inf
    for nu, de in zip(num.tolist(), decay.tolist()):
        r = (nu - de / r) / de
        out.append(r)
    return np.array(out)


def log_s_values(nmax: int, m: QModelParams) -> np.ndarray:
    """log s_0..log s_nmax as cumulative log-ratios; finite at levels where
    s_n itself leaves double range."""
    return np.concatenate(([0.0], np.cumsum(np.log(s_ratios(nmax, m)[:nmax]))))


def initial_log_normalizer(model: QModelParams, rho: float) -> float:
    """log C of the initial-law normalizer C = sum_n rho^n s_n
    = (a rho, b rho; q)_inf / (rho; q)_inf^2, taken in log space because C
    leaves double range as q and rho approach 1."""
    q = model.q
    return qpoch_log_abs(model.asc_a * rho, q) + qpoch_log_abs(model.asc_b * rho, q) \
        - 2.0 * qpoch_log_abs(rho, q)


def _initial_probs(model: QModelParams, rho: float, nmax: int) -> np.ndarray:
    """rho^n s_n / C for n = 0..nmax (rho > 0), combined in log space so the
    levels where s_n or C overflow stay finite."""
    ns = np.arange(nmax + 1)
    return np.exp(ns * math.log(rho) + log_s_values(nmax, model)
                  - initial_log_normalizer(model, rho))


def _initial_law_probs(model: QModelParams, rho: float) -> np.ndarray:
    """rho^n s_n / C cut at the first n > 10 whose term is below
    ``numerics.TAIL_TOL`` (1 - rho) / 2 of the mass so far; [1.0] at
    rho = 0.  This cut is the boundary truncation of every finite-length
    route."""
    if rho == 0.0:
        return np.array([1.0])
    nmax = 64
    while True:
        probs = _initial_probs(model, rho, nmax)
        small = probs < numerics.TAIL_TOL * np.cumsum(probs) * (1.0 - rho) / 2.0
        cut = np.flatnonzero(small[11:])
        if cut.size:
            return probs[:cut[0] + 12]
        if nmax == RECURRENCE_CAP:
            raise OverflowError(f"initial law at rho={rho}, q={model.q} needs more than "
                                f"RECURRENCE_CAP={RECURRENCE_CAP} levels")
        nmax = min(2 * nmax, RECURRENCE_CAP)


def s_values(nmax: int, m: QModelParams) -> np.ndarray:
    """Boundary values s_0..s_nmax, s_n = Q_n(1; a, b | q) / (q; q)_n, as exp
    of the cumulative log-ratios of :func:`s_ratios`.  Raises
    ``OverflowError`` naming the first level whose value leaves double
    range."""
    with np.errstate(over="ignore"):
        s = np.exp(log_s_values(nmax, m))
    bad = np.flatnonzero(np.isinf(s))
    if bad.size:
        raise OverflowError(f"s-values overflowed at n={bad[0]}")
    return s


def pi_values(nmax: int, m: QModelParams) -> np.ndarray:
    """pi_n = s_n / [n+1]_q for n = 0..nmax (right-endpoint polynomial values)."""
    return s_values(nmax, m) * (1.0 - m.q) / _decay(nmax, m.q)


def motzkin_poly_table(nmax: int, xs: np.ndarray, m: QModelParams) -> np.ndarray:
    """Matrix of p_n(x) values, shape (nmax+1, len(xs)), by the three-term
    loop on the rows (up [n+2]_q, flat 2 sigma [n+1]_q, down [n]_q);
    OverflowError names the first order n and the first x where p_n leaves
    double range."""
    _check_order(nmax)
    xs = np.asarray(xs, dtype=float)
    qn = [q_number(k, m.q) for k in range(nmax + 2)]
    two_sigma = 2.0 * m.sigma
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _three_term(xs, qn[2:], [two_sigma * v for v in qn[1:-1]], qn[:-2])
    table = np.empty((nmax + 1, xs.size))
    for k, row in enumerate(rows):
        table[k] = row
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        n, j = bad[0]
        raise OverflowError(f"p_{n}({xs.reshape(-1)[j]}) overflowed double precision")
    return table


def _moment_integral(v: np.ndarray, w: np.ndarray, power: int, m: QModelParams) -> float:
    """int (x/B)^power (v . P(x)) (w . Ptilde(x)) nu(dx), P(x) the
    polynomials p_0..p_{S-1} at x, Ptilde_n = [n+1]_q p_n and S = len(v)."""
    B = m.B
    wtilde = w * np.array([q_number(i + 1, m.q) for i in range(len(v))])

    def integrand(x):
        table = motzkin_poly_table(len(v) - 1, x, m)
        return (x / B) ** power * (v @ table) * (wtilde @ table)

    return nu_integrate(integrand, m)


def asc_endpoint_limit_fixed_q(M: int, u: float, p: AscParams) -> float:
    """Scaled polynomial value (1/M) Q_M(1 - u^2 / (2 M^2)) whose large-M
    limit is (sin u / u) (a, b; q)_inf / (q; q)_inf."""
    if M < 1:
        raise ValueError(f"M must be positive, got {M}")
    if u < 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    return asc_eval(M, 1.0 - u * u / (2.0 * M * M), p) / M


def _root(N: int) -> float:
    """sqrt(N), the space scale of index_map and of the limit drivers in
    :mod:`motzkinq.kernels`; ValueError unless N >= 1."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    return math.sqrt(N)


def index_map(z: float, N: int, sigma: float) -> int:
    """Lattice index floor(z sqrt(N)) + floor(sqrt(N) log sqrt(2 N (1+sigma)))
    centering heights at the logarithmically growing bulk location."""
    rn = _root(N)
    if not (0.0 < sigma <= 1.0):
        raise ValueError(f"sigma must lie in (0, 1], got {sigma}")
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    return math.floor(z * rn) + math.floor(rn * math.log(math.sqrt(2.0 * N * (1.0 + sigma))))


def asc_endpoint_limit_q_to_1(M: int, u: float, x: float, sigma: float) -> float:
    """Endpoint scaling with q = exp(-2/M) and the Motzkin parameters a, b of
    (q, sigma); converges to K_{i|u|}(exp(-x)) as M grows.

    Evaluates
        (q;q)_inf^2 / (M (a, b; q)_inf) * S_m(cos(u/M)),  S_m = Q_m / (q;q)_m,
    with m = index_map(x, M^2, sigma), in log space: the factors overflow
    double precision for M in the hundreds.  S_m runs on the three-term loop
    with the rows (1 - q^(k+1), -2 sigma q^(k+1), 1 - q^(k+1)) at
    y = 2 cos(u/M), its up row times r_k and its down row over r_(k-1), the
    ratios s_(k+1)/s_k of :func:`s_ratios`.  The loop then carries
    S_k / s_k, which stays near 1, and log s_m is the sum of the log-ratios.
    """
    if M < 1:
        raise ValueError(f"M must be positive, got {M}")
    midx = index_map(x, M * M, sigma)
    if midx < 0:
        raise ValueError(f"index {midx} < 0: x={x} too negative for M={M}")
    model = QModelParams(math.exp(-2.0 / M), sigma)
    q = model.q
    r = s_ratios(midx, model)[:midx]
    decay = _decay(midx - 1, q)
    down = decay.copy()
    down[1:] /= r[:-1]
    scaled = _three_term(2.0 * math.cos(u / M), (decay * r).tolist(),
                         (-2.0 * sigma * (1.0 - decay)).tolist(), down.tolist())[-1]
    if scaled == 0.0:
        return 0.0
    lqq_inf = qpoch_log_abs(q, q)
    lab_inf = qpoch_log_abs(model.asc_a, q) + qpoch_log_abs(model.asc_b, q)
    log_s_m = float(np.log(r).sum())
    return math.copysign(math.exp(2.0 * lqq_inf - math.log(M) - lab_inf + log_s_m
                                  + math.log(abs(scaled))), scaled)
