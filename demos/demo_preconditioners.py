"""Metric selection: diagonal preconditioners and the condition checker.

The checker estimates s = ||M2^{-1/2} K (M1 + Sigma_f/2)^{-1/2}||^2 by Lanczos
on the equivalent generalized eigenproblem (for a scalar pair, from the
operator's estimate of ||K||^2) and compares it against the 4/3 threshold.
Row/column-sum diagonal preconditioners guarantee
s <= 1/(gamma1*gamma2), so the product gamma1*gamma2 = 3/4 is exactly the
edge of the admissible region.
"""

import numpy as np

import prepdhg as pd

rng = np.random.default_rng(3)
K = pd.DenseOperator(rng.random((40, 30)))

print("condition check for scalar metrics at several stepsize products")
norm_sq = pd.spectral_norm_sq(K).value
for product in (1.0, 1.3, 4.0 / 3.0, 1.4):
    tau = np.sqrt(product / norm_sq)
    M1 = pd.ScalarMetric(1.0 / tau, K.cols)
    M2 = pd.ScalarMetric(1.0 / tau, K.rows)
    rep = pd.check_condition(M1, None, M2, K)
    print(f"  tau*sigma*||K||^2 = {product:.4f}: s_hat = {rep.s_hat:.6f}, "
          f"verdict {rep.verdict}")

print()
print("row/column-sum diagonal preconditioners, alpha = 1")
for g1g2 in (1.0, 0.76, 0.74):
    g = np.sqrt(g1g2)
    M1, M2 = pd.build_diag_preconditioner(K, alpha=1.0, delta=0.0,
                                          gamma1=g, gamma2=g)
    rep = pd.check_condition(M1, None, M2, K)
    print(f"  gamma1*gamma2 = {g1g2:4.2f}: s_hat = {rep.s_hat:.6f} "
          f"(bound {1 / g1g2:.4f}), verdict {rep.verdict}")

print()
print("one symmetric Gauss-Seidel sweep is an exact solve with Q + U D^-1 U^T")
n = 8
A = rng.standard_normal((n, n))
Q = A @ A.T + n * np.eye(n)
blocks = [np.arange(0, 3), np.arange(3, 6), np.arange(6, 8)]
M = pd.SGSMetric(Q, blocks)
z = rng.standard_normal(n)
print(f"  solve(apply(z)) - z  ->  {np.max(np.abs(M.solve(M.apply(z)) - z)):.2e}")
