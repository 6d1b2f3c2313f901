"""Cross-identity verification suite.

Runs the redundant-route checks that tie the package together: transfer
operators against exhaustive enumeration, the integral representation
against the transfer route, the moment identity behind the chain
construction, row stochasticity, chain duality, theta identities, and the
q-Gamma limit.  Each check reports its observed deviation against a fixed
tolerance, so a single corrupted ingredient surfaces as a failed row.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .ascpoly import QModelParams, _initial_law_probs, _moment_integral, pi_values, s_values
from .chains import transition_arrays
from .motzkin import (
    WeightModel,
    altitude_table,
    enumerate_paths,
    integral_expectation,
    integral_normalizing_constant,
    matrix_ansatz_expectation,
    normalizing_constant,
    path_weight,
    table_weights,
)
from .qspecial import q_gamma, qpoch_infinite, theta1, theta4

__all__ = ["CheckResult", "run_checks"]

MOTZKIN_NUMBERS = [1, 1, 2, 4, 9, 21, 51, 127]


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "deviation", float(self.deviation))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return bool(self.deviation <= self.tolerance)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def run_checks(model: QModelParams, inject_fault: bool = False) -> list[CheckResult]:
    """Run the full cross-identity suite.

    Enumeration-backed cross-route checks (1-5) run on a fixed reference
    model so their exhaustive side stays feasible for any caller
    parameters; the parameter-sensitive identity checks (rows, duality,
    normalizer) use the supplied model.  ``inject_fault`` perturbs sigma on
    one side of the transfer-vs-enumeration check (a self-test that a
    broken ingredient is caught).
    """
    out: list[CheckResult] = []
    ref = QModelParams(q=0.4, sigma=0.7, rho0=0.3, rho1=0.25)
    ref_wm = WeightModel.from_qmodel(ref)

    # 1. enumeration counts
    dev = max(abs(len(enumerate_paths(L, 0, 0)) - MOTZKIN_NUMBERS[L]) for L in range(8))
    out.append(CheckResult("motzkin-counts", float(dev), 0.0))

    # 2. matrix ansatz vs enumeration (joint generating functional)
    enum_model = ref if not inject_fault else QModelParams(
        q=ref.q, sigma=min(1.0, ref.sigma + 0.05), rho0=ref.rho0, rho1=ref.rho1)
    enum_wm = WeightModel.from_qmodel(enum_model)
    L, t, s = 6, [0.8, 1.2], [1.1, 0.9]
    via_transfer = matrix_ansatz_expectation(0.9, 0.8, t, s, L, ref_wm)
    brute = _enumeration_expectation(enum_wm, 0.9, 0.8, t, s, L, mmax=40)
    out.append(CheckResult("matrix-ansatz-vs-enumeration", _rel(via_transfer, brute), 1e-10))

    # 3. integral representation vs matrix ansatz
    via_int = integral_expectation(0.9, 0.8, [0.8], [1.1], 8, ref_wm)
    via_tr = matrix_ansatz_expectation(0.9, 0.8, [0.8], [1.1], 8, ref_wm)
    out.append(CheckResult("integral-vs-matrix-ansatz", _rel(via_int, via_tr), 1e-7))

    # 4. normalizing constant: moment integral vs transfer product
    out.append(CheckResult(
        "normalizer-integral-vs-transfer",
        _rel(integral_normalizing_constant(8, ref_wm), normalizing_constant(8, ref_wm)), 1e-7))

    # 5. moment identity of path sums (orthogonality route vs enumeration)
    worst = 0.0
    for (mm, nn, LL) in [(0, 0, 4), (1, 2, 5), (3, 1, 6)]:
        brute_w = sum(path_weight(p, ref_wm) for p in enumerate_paths(LL, mm, nn))
        e_m, e_n = np.zeros((2, max(mm, nn) + 1))
        e_m[mm] = e_n[nn] = 1.0
        got = ref.B**LL * _moment_integral(e_m, e_n, LL, ref)
        worst = max(worst, _rel(got, brute_w))
    out.append(CheckResult("path-sum-moment-identity", worst, 1e-7))

    # 6. row stochasticity of the boundary chain
    wm = WeightModel.from_qmodel(model)
    B = model.B
    up, flat, down = transition_arrays(model, 500)
    out.append(CheckResult("row-stochasticity",
                           float(np.max(np.abs(up + flat + down - 1.0))), 1e-10))

    # 7. head/tail chain duality
    s_arr = s_values(40, model)
    pis = pi_values(40, model)
    worst = 0.0
    for n in range(30):
        upX = wm.up(n) * pis[n + 1] / (B * pis[n])
        upY = wm.down(n + 1) * s_arr[n + 1] / (B * s_arr[n])
        worst = max(worst, abs(upX - upY))
    out.append(CheckResult("chain-duality", worst, 1e-12))

    # 8-10. theta identities
    v, tau = 0.3, 1j
    w_nome = cmath.exp(1j * math.pi * tau)
    shift = abs(theta1(v, tau) - 1j * w_nome**0.25 * cmath.exp(-1j * math.pi * v)
                * theta4(v - tau / 2, tau))
    out.append(CheckResult("theta-shift-identity", shift, 1e-10))
    tau_m = 1j * math.pi * 5
    modular = abs(theta1(v, tau_m) - 1j * cmath.sqrt(1j / tau_m)
                  * cmath.exp(-1j * math.pi * v * v / tau_m) * theta1(v / tau_m, -1 / tau_m))
    out.append(CheckResult("theta-modular-identity", modular, 1e-8))
    w2 = w_nome * w_nome
    triple = abs(theta1(v, tau) - 2 * w_nome**0.25 * cmath.sin(math.pi * v)
                 * qpoch_infinite(w2, abs(w2)) * qpoch_infinite(w2 * cmath.exp(2j * math.pi * v), abs(w2))
                 * qpoch_infinite(w2 * cmath.exp(-2j * math.pi * v), abs(w2)))
    out.append(CheckResult("theta-triple-product", triple, 1e-10))

    # 11. q-Gamma limit sanity
    out.append(CheckResult("q-gamma-limit",
                           abs(q_gamma(0.5, math.exp(-2.0 / 200)) - math.sqrt(math.pi)), 1e-2))

    # 12. initial-law normalizer: the direct sum of rho^n s_n / C, taken in
    # log space and cut where every finite-length route cuts it
    rho = min(max(model.rho0, 0.3), 0.9)
    out.append(CheckResult("initial-law-normalizer",
                           abs(math.fsum(_initial_law_probs(model, rho)) - 1.0), 1e-9))

    return out


def _enumeration_expectation(wm: WeightModel, z0: float, z1: float,
                             t: list[float], s: list[float], L: int, mmax: int) -> float:
    """Generating functional by brute-force enumeration (no transfer code):
    one free-end altitude table per start m <= mmax, priced on arrays.  Each
    path's factors multiply in the order alpha_m, weight, beta_end, z0^m,
    z1^end, then t_j and s_j for j = 1..K."""
    alts = np.concatenate([altitude_table(L, m, None) for m in range(mmax + 1)])
    starts, ends = alts[:, 0], alts[:, -1]
    av, bv = wm.boundary_arrays(mmax + L + 1)
    w = av[starts] * table_weights(alts, wm) * bv[ends]
    gen = w * np.power(z0, starts.astype(float)) * np.power(z1, ends.astype(float))
    for j in range(1, len(t) + 1):
        gen *= np.power(t[j - 1], (alts[:, j] - alts[:, j - 1]).astype(float))
        gen *= np.power(s[j - 1], -(alts[:, L - j + 1] - alts[:, L - j]).astype(float))
    return float(gen.sum() / w.sum())
