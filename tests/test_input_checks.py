"""Every input check of the package raises its typed error with its message.

One case per check that no other test reaches: the argument ranges of the
polynomial, chain, kernel, path and q-series layers, a negative L on the
finite-L routes that no other check of theirs stops, the positive-mass
guards of the normalizer and the sampler on a model without initial mass,
and the theta series' term cap, the one ConvergenceError case, run with
``numerics.MAX_TERMS`` lowered to 5.
"""

import dataclasses
import math

import numpy as np
import pytest

from motzkinq import numerics
from motzkinq.ascpoly import (AscParams, QModelParams, _check_order, asc_endpoint_limit_fixed_q,
                              asc_endpoint_limit_q_to_1, index_map)
from motzkinq.chains import (Distribution, chain_head_law, endpoint_pair_correlation,
                             finite_path_head_law, initial_law, kstep_distribution, transition_row)
from motzkinq.errors import ConvergenceError
from motzkinq.kernels import (KernelQuery, bessel3d_transition, initial_limit_fixed_q,
                              initial_limit_q_to_1, killed_bm_kernel, local_limit_error_fixed_q,
                              local_limit_error_q_to_1, xi0_density, yakubovich_kernel,
                              zeta0_density, zeta_transition)
from motzkinq.motzkin import (MotzkinPath, WeightModel, altitude_table, integral_expectation,
                              integral_normalizing_constant, log_normalizing_constant,
                              matrix_ansatz_expectation, normalizing_constant, sample_paths)
from motzkinq.qspecial import (bessel_k_imag, bessel_k_imag_grid, qpoch_finite, qpoch_log_abs,
                               ramanujan_ratio, theta1)

MODEL = QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25)
NAN, INF = math.nan, math.inf
WM = WeightModel.from_qmodel(MODEL)
ASC = AscParams(0.1, 0.2, 0.5)
# the q-model's tag with every initial weight 0, so no path has mass
MASSLESS = dataclasses.replace(WM, alpha=lambda n: 0.0)


def _weights(flat=1.0, alpha=1.0):
    """A weight model with every up and down weight 1."""
    one = lambda n: 1.0  # noqa: E731
    return WeightModel(up=one, flat=lambda n: flat, down=one, alpha=lambda n: alpha, beta=one)


CASES = [
    ("AscParams-q", lambda: AscParams(0.1, 0.2, 1.0), ValueError,
     r"q must lie in \[0, 1\), got 1.0"),
    ("check_order", lambda: _check_order(-1), ValueError,
     "polynomial order must be nonnegative, got -1"),
    ("endpoint-fixed-q-M", lambda: asc_endpoint_limit_fixed_q(0, 1.0, ASC), ValueError,
     "M must be positive, got 0"),
    ("endpoint-fixed-q-u", lambda: asc_endpoint_limit_fixed_q(5, -1.0, ASC), ValueError,
     "u must be nonnegative, got -1.0"),
    ("endpoint-q-to-1-M", lambda: asc_endpoint_limit_q_to_1(0, 1.0, 0.0, 0.5), ValueError,
     "M must be positive, got 0"),
    ("index_map-sigma-0", lambda: index_map(0.0, 100, 0.0), ValueError,
     r"sigma must lie in \(0, 1\], got 0.0"),
    ("index_map-sigma-1.5", lambda: index_map(0.0, 100, 1.5), ValueError,
     r"sigma must lie in \(0, 1\], got 1.5"),
    ("index_map-z-nan", lambda: index_map(NAN, 400, 1.0), ValueError, "z must be finite, got nan"),
    ("Distribution-offset", lambda: Distribution(offset=-1, probs=np.ones(1)), ValueError,
     "offset must be nonnegative"),
    ("Distribution-probs", lambda: Distribution(offset=0, probs=np.array([0.5, -0.5])),
     ValueError, "probabilities must be nonnegative"),
    ("Distribution-probs-nan", lambda: Distribution(offset=0, probs=np.array([NAN])),
     ValueError, "probabilities must be nonnegative"),
    ("transition_row", lambda: transition_row(-1, MODEL), ValueError,
     "altitude must be nonnegative"),
    ("initial_law", lambda: initial_law("Z", MODEL), ValueError, "which must be 'X' or 'Y'"),
    ("kstep_distribution", lambda: kstep_distribution(Distribution.point_mass(0), -1, MODEL),
     ValueError, "k must be nonnegative"),
    ("finite_path_head_law", lambda: finite_path_head_law(WM, 3, 3), ValueError, "need K < L"),
    ("finite_path_head_law-K", lambda: finite_path_head_law(WM, 5, -2), ValueError,
     "K must be nonnegative, got -2"),
    ("chain_head_law-K", lambda: chain_head_law(MODEL, "X", -1), ValueError,
     "K must be nonnegative, got -1"),
    # every finite-L route takes L through the boundary cutoff
    ("endpoint_pair_correlation-L-1", lambda: endpoint_pair_correlation(WM, -1), ValueError,
     "L must be nonnegative, got -1"),
    ("endpoint_pair_correlation-L-2", lambda: endpoint_pair_correlation(WM, -2), ValueError,
     "L must be nonnegative, got -2"),
    ("normalizing_constant-L", lambda: normalizing_constant(-2, WM), ValueError,
     "L must be nonnegative, got -2"),
    ("integral_normalizing_constant-L", lambda: integral_normalizing_constant(-2, WM), ValueError,
     "L must be nonnegative, got -2"),
    ("xi0_density", lambda: xi0_density(1.0, 0.0), ValueError, "c must be positive, got 0.0"),
    ("xi0_density-x-nan", lambda: xi0_density(NAN, 1.0), ValueError, "x must be finite, got nan"),
    # a non-finite t, x or y stops at the kernel query
    ("bessel3d_transition-x-nan", lambda: bessel3d_transition(KernelQuery(1.0, NAN, 1.0)),
     ValueError, "x must be finite, got nan"),
    ("yakubovich_kernel-t-nan", lambda: yakubovich_kernel(KernelQuery(NAN, 1.0, 1.0)),
     ValueError, "t must be finite, got nan"),
    ("zeta_transition-y-inf", lambda: zeta_transition(KernelQuery(1.0, 1.0, INF)), ValueError,
     "y must be finite, got inf"),
    ("zeta0_density", lambda: zeta0_density(1.0, -1.0), ValueError,
     "c must be positive, got -1.0"),
    ("fixed-q-x", lambda: local_limit_error_fixed_q(100, 1.0, 0.0, 1.0, MODEL), ValueError,
     r"need x, y, t > 0"),
    ("fixed-q-y", lambda: local_limit_error_fixed_q(100, 1.0, 1.0, -1.0, MODEL), ValueError,
     r"need x, y, t > 0"),
    ("fixed-q-t-nan", lambda: local_limit_error_fixed_q(400, NAN, 1.0, 1.0, MODEL), ValueError,
     "t must be finite, got nan"),
    ("fixed-q-initial-x", lambda: initial_limit_fixed_q(100, 0.0, 1.0, MODEL), ValueError,
     r"need x > 0"),
    # c <= 0 would put rho0 = exp(-c / sqrt N) at 1 or past it
    ("fixed-q-initial-c", lambda: initial_limit_fixed_q(400, 1.0, 0.0, MODEL), ValueError,
     "c must be positive, got 0.0"),
    ("q-to-1-t", lambda: local_limit_error_q_to_1(100, 0.0, 1.0, 1.0, 0.8), ValueError,
     r"need t > 0"),
    ("q-to-1-y-inf", lambda: local_limit_error_q_to_1(400, 1.0, 1.0, INF, 1.0), ValueError,
     "y must be finite, got inf"),
    ("q-to-1-initial-c", lambda: initial_limit_q_to_1(400, 1.0, -1.0, 1.0), ValueError,
     "c must be positive, got -1.0"),
    # a non-finite tilt is an input error on both finite-L routes
    ("matrix_ansatz-t-nan", lambda: matrix_ansatz_expectation(0.9, 0.8, [NAN], [1.0], 50, WM),
     ValueError, "t_1 must be positive and finite, got nan"),
    ("matrix_ansatz-t-inf", lambda: matrix_ansatz_expectation(0.9, 0.8, [INF], [1.0], 50, WM),
     ValueError, "t_1 must be positive and finite, got inf"),
    ("matrix_ansatz-s-nan", lambda: matrix_ansatz_expectation(0.9, 0.8, [1.0], [NAN], 50, WM),
     ValueError, "s_1 must be positive and finite, got nan"),
    ("integral-t-inf", lambda: integral_expectation(0.9, 0.8, [INF], [1.0], 50, WM), ValueError,
     "t_1 must be positive and finite, got inf"),
    ("integral-s-inf", lambda: integral_expectation(0.9, 0.8, [1.0, 1.0], [1.0, INF], 50, WM),
     ValueError, "s_2 must be positive and finite, got inf"),
    ("log_normalizing_constant", lambda: log_normalizing_constant(5, MASSLESS), ValueError,
     "normalizing constant must be positive"),
    ("initial_mass_past", lambda: sample_paths(5, MASSLESS, 10, 0), ValueError,
     r"initial-altitude mass alpha_m u_0\[m\] is not positive"),
    ("MotzkinPath", lambda: MotzkinPath(()), ValueError, "a path needs at least one altitude"),
    ("weight_arrays", lambda: _weights(flat=-1.0).weight_arrays(4), ValueError,
     r"need up > 0, flat >= 0, down > 0 \(down at 0 may be 0\)"),
    ("boundary_arrays", lambda: _weights(alpha=-1.0).boundary_arrays(4), ValueError,
     "boundary weights must be nonnegative"),
    ("altitude_table-L", lambda: altitude_table(-1, 0, 0), ValueError,
     "L, m, n must be nonnegative"),
    ("altitude_table-n", lambda: altitude_table(3, 0, -1), ValueError,
     "L, m, n must be nonnegative"),
    ("qpoch_finite", lambda: qpoch_finite(0.5, 0.5, -1), ValueError,
     "n must be nonnegative, got -1"),
    ("qpoch_log_abs", lambda: qpoch_log_abs(0.5, 0.5, -2), ValueError,
     "n must be nonnegative, got -2"),
    # NaN fails every x > 0 test, so it stops at the domain check
    ("bessel_k_imag-x-nan", lambda: bessel_k_imag(1.0, NAN), ValueError,
     "argument must be positive, got x=nan"),
    ("bessel_k_imag_grid-u-nan", lambda: bessel_k_imag_grid(np.array([0.5, NAN]), 1.0),
     ValueError, "orders must be finite, got u=nan"),
    ("bessel_k_imag_grid-u-inf", lambda: bessel_k_imag_grid(np.array([-INF]), 1.0),
     ValueError, "orders must be finite, got u=inf"),
    ("killed_bm_kernel-x-nan", lambda: killed_bm_kernel(1.0, NAN, 1.0), ValueError,
     "killed kernel needs x > 0, got x=nan"),
    # z q^lam = 0.25 * 4 = 1: the first factor of (z q^lam; q)_inf is 0
    ("ramanujan_ratio", lambda: ramanujan_ratio(0.25, -2, 0.5), ValueError,
     "vanishing factor in Ramanujan ratio"),
    # run with MAX_TERMS = 5; the nome e^(-0.05 pi) = 0.855 needs more terms
    ("theta-max-terms", lambda: theta1(0.3, 0.05j), ConvergenceError,
     "theta series exceeded MAX_TERMS=5"),
]


@pytest.mark.parametrize("call, error, message", [pytest.param(*case[1:], id=case[0])
                                                  for case in CASES])
def test_input_check_raises_its_typed_error(call, error, message, monkeypatch):
    if error is ConvergenceError:
        monkeypatch.setattr(numerics, "MAX_TERMS", 5)
    with pytest.raises(error, match=message):
        call()
