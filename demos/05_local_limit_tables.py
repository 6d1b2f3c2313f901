#!/usr/bin/env python3
"""Local limit theorems at desk scale.

The boundary chain, diffusively rescaled, converges to the 3d Bessel
process for fixed q and, when q also climbs to 1, to a Markov process
built from Bessel K of imaginary order.  The lattice probabilities are
computed without sampling: the k-step entries by the Chebyshev expansion
of P^k on the chain's spectrum, to about (d+1) eps (by exact tridiagonal
stepping where that costs no more or the entry is a far tail), and the
initial laws from rho^n s_n / C, so the tables below show pure
convergence error (no sampling noise).  Each produces the CSV that the
`motzkinq locallimit` subcommand also emits.
"""

from motzkinq import QModelParams
from motzkinq.kernels import (
    error_table,
    initial_limit_fixed_q,
    initial_limit_q_to_1,
)

model = QModelParams(q=0.5, sigma=1.0)

print("fixed q = 0.5, t = 1, x = y = 1  (target: Bessel transition density)")
print("N,t,x,y,lhs,rhs,rel_err")
for r in error_table("fixed-q", [400, 2500, 10_000], 1.0, 1.0, 1.0, model=model):
    print(f"{r['N']},{r['t']},{r['x']},{r['y']},{r['lhs']:.8f},{r['rhs']:.8f},{r['rel_err']:.6f}")
print()

print("q = exp(-2/sqrt(N)) -> 1, t = 1, x = y = 0  (target: Bessel-K kernel)")
print("N,t,x,y,lhs,rhs,rel_err")
for r in error_table("q-to-1", [400, 2500, 4900], 1.0, 0.0, 0.0, model=model):
    print(f"{r['N']},{r['t']},{r['x']},{r['y']},{r['lhs']:.8f},{r['rhs']:.8f},{r['rel_err']:.6f}")
print()

print("initial-law limits (N = 10^4, c = 1):")
a = initial_limit_fixed_q(10_000, 1.0, 1.0, model)
b = initial_limit_q_to_1(10_000, 0.0, 1.0, 1.0)
print(f"  fixed q : lhs={a.lhs:.6f} rhs={a.rhs:.6f} rel_err={a.rel_err:.5f}")
print(f"  q -> 1  : lhs={b.lhs:.6f} rhs={b.rhs:.6f} rel_err={b.rel_err:.5f}")
