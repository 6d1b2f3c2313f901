#!/usr/bin/env python3
"""The boundary chain of a long random path.

Viewed from either endpoint, a long weighted Motzkin path looks like a
birth-death Markov chain whose transition probabilities involve the
right-endpoint values of the attached orthogonal polynomials.  This demo
prints some transition rows, shows the total-variation distance between
the exact finite-length head law and the chain law shrinking with the path
length, and cross-checks a multi-step probability through the moment
integral.
"""

from motzkinq import Distribution, QModelParams, WeightModel
from motzkinq.chains import (
    chain_head_law,
    finite_path_head_law,
    kstep_distribution,
    kstep_transition_integral,
    simulate_chain,
    transition_row,
    tv_distance,
)

model = QModelParams(q=0.2, sigma=0.6, rho0=0.2, rho1=0.2)

print("one-step transition rows:")
for n in (0, 1, 2, 5, 10):
    row = transition_row(n, model)
    decorated = {k: round(v, 6) for k, v in row.rows()}
    print(f"  from {n:2d}: {decorated}")
print()

chain = chain_head_law(model, "X", 3)
wm = WeightModel.from_qmodel(model)
print("TV distance between the length-L head law (g_0..g_3) and the chain law:")
for L in (25, 50, 100, 200):
    tv = tv_distance(finite_path_head_law(wm, L, 3), chain)
    print(f"  L={L:4d}: TV = {tv:.5f}")
print()

k, start, target = 7, 1, 3
via_iteration = kstep_distribution(Distribution.point_mass(start), k, model).prob(target)
via_integral = kstep_transition_integral(start, target, k, model)
print(f"P(X_{k} = {target} | X_0 = {start}):")
print(f"  tridiagonal iteration : {via_iteration:.12f}")
print(f"  moment integral       : {via_integral:.12f}")
print()

traj = simulate_chain(model, 30, seed=5)
print("a short simulated trajectory:", ",".join(str(int(v)) for v in traj))
