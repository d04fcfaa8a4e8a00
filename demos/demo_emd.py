"""Minimal-flux transport between two mass distributions on a grid.

The flux formulation minimizes the summed Euclidean magnitude of a
two-component flux field subject to a discrete divergence constraint.  The
dual solve per iteration runs one symmetric Gauss-Seidel sweep over the
red-black node coloring, which is an exact solve with the implied metric
Q + U D^{-1} U^T; the inexact variant, two plain Gauss-Seidel epochs over
the same coloring, is also shown.
"""

import numpy as np

import prepdhg as pd

M = N = 16
h = (N - 1) / 4.0
rho0, rho1 = pd.random_balanced_grids(M, N, seed=1)
print(f"grid {M}x{N}, h = {h}, total mass {rho0.sum():.3f}")
print()

tau = 0.05
for gamma in (1.0, 0.9, 0.85, 0.75):
    inst = pd.emd(rho0, rho1, h, tau=tau, gamma=gamma, theta=1e-6,
                  method="sgs", tol=5e-5, record_every=2000)
    rep = inst.solve()
    print(f"sGS sweep, gamma = {gamma:4.2f}: {rep.iters:6d} iterations "
          f"({rep.status}), flux objective {inst.objective(rep.x_final):.6f}")

inst = pd.emd(rho0, rho1, h, tau=tau, gamma=0.77, theta=1e-6,
              method="iebalm", tol=5e-5, record_every=2000)
rep = inst.solve()
print(f"inexact 2-epoch GS, gamma = 0.77: {rep.iters:6d} iterations "
      f"({rep.status}, no convergence guarantee)")

print()
print("Tiny grid against the LP oracle:")
r0, r1 = pd.random_balanced_grids(3, 3, seed=4)
inst = pd.emd(r0, r1, 0.5, tau=1.0, gamma=0.8, tol=1e-7, record_every=1000)
rep = inst.solve()
print(f"  solver objective {inst.objective(rep.x_final):.8f}")
print(f"  LP oracle        {pd.oracle_solve(inst).objective:.8f}")
