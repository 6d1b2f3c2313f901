#!/usr/bin/env python3
"""Three routes to one expectation.

The joint generating functional of a random weighted Motzkin path can be
computed (a) by brute-force enumeration, (b) as a product of tridiagonal
transfer operators sandwiched between boundary vectors, and (c) as a
moment integral against the orthogonality measure of the polynomials
attached to the edge weights.  All three must agree; the transfer route is
the fast one, and the growth rate of the normalizing constant is governed
by the right endpoint B of the orthogonality interval.
"""

import math

import numpy as np

from motzkinq import QModelParams, WeightModel
from motzkinq.motzkin import (
    altitude_table,
    integral_expectation,
    log_normalizing_constant,
    matrix_ansatz_expectation,
    table_weights,
)

model = QModelParams(q=0.4, sigma=0.6, rho0=0.3, rho1=0.3)
wm = WeightModel.from_qmodel(model)
L, z0, z1, t, s = 6, 0.9, 0.85, [0.8], [1.2]

# (a) enumeration: sum over every path from a start level below a cutoff,
# one row of altitudes per path
alts = np.concatenate([altitude_table(L, m, None) for m in range(40)])
starts, ends = alts[:, 0], alts[:, -1]
alpha, beta = wm.boundary_arrays(40 + L)
w = alpha[starts] * table_weights(alts, wm) * beta[ends]
num = (w * z0**starts * z1**ends
       * t[0] ** (alts[:, 1] - alts[:, 0]) * s[0] ** -(alts[:, L] - alts[:, L - 1]))
brute = num.sum() / w.sum()

transfer = matrix_ansatz_expectation(z0, z1, t, s, L, wm)
integral = integral_expectation(z0, z1, t, s, L, wm)

print(f"enumeration route : {brute:.15f}")
print(f"transfer route    : {transfer:.15f}   (rel dev {abs(transfer-brute)/brute:.1e})")
print(f"integral route    : {integral:.15f}   (rel dev {abs(integral-brute)/brute:.1e})")
print()

B = model.B
print(f"normalizing-constant growth vs log(B) = {math.log(B):.6f}:")
for L in (20, 40, 80, 160):
    inc = log_normalizing_constant(L + 1, wm) - log_normalizing_constant(L, wm)
    print(f"  L={L:4d}: log C_(L+1) - log C_L = {inc:.6f}")
