"""The primal-dual iteration and the splitting method generate one sequence.

Running the proximal splitting form on min f(x) + g(u) s.t. the scaled
constraint M2^{-1/2}(Kx - u) = 0, then mapping its states through
y_k = M2^{-1}(M2^{1/2} lam_k + K x_k - u_{k+1}), lands exactly on the
trajectory of the primal-dual recursion started at the induced point.
"""

import numpy as np

import prepdhg as pd
from prepdhg.ipadmm import AdmmDriver
from prepdhg.solver import SolverConfig, prepdhg_step

rng = np.random.default_rng(5)
K = pd.DenseOperator(0.4 * rng.standard_normal((6, 5)))
p = pd.SaddleProblem(f=pd.L1Norm(5, 0.4),
                     gstar=pd.Linear(rng.standard_normal(6)), K=K)
M1 = pd.DiagonalMetric(3.0 + rng.random(5))
M2 = pd.DiagonalMetric(3.0 + rng.random(6))

res = pd.equivalence_harness(p, M1, M2, iters=200, tol=1e-10,
                             x0=rng.standard_normal(5),
                             lam0=rng.standard_normal(6))
print(f"certificate over 200 iterations: passed = {res.passed}, "
      f"max deviation = {res.max_deviation:.2e}")

drv = AdmmDriver(p, M1, M2)
states = drv.run(4, x0=np.zeros(5))
pairs = drv.recover(states)
x, y = pairs[0]
print("\nside-by-side first iterates (splitting -> primal-dual):")
for k in range(1, 4):
    x, y = prepdhg_step(p, SolverConfig(M1=M1, M2=M2, override=True), x, y)
    xa, ya = pairs[k]
    print(f"  k={k}: max|dx| = {np.max(np.abs(x - xa)):.2e}, "
          f"max|dy| = {np.max(np.abs(y - ya)):.2e}")

res_bad = pd.equivalence_harness(p, M1, M2, iters=50, tol=1e-10,
                                 transform_perturbation=1e-6)
print(f"\nperturbing the transform by 1e-6 breaks the certificate: "
      f"passed = {res_bad.passed} (deviation {res_bad.max_deviation:.2e})")
