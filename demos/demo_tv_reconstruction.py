"""Total-variation regularized least squares, fully dualized.

With f = 0 everything happens in the dual: the data block has a closed-form
update, and the gradient block solves a box-constrained quadratic by two
coordinate-descent epochs.  The primal metric (2*gamma/tau) I admits any
gamma >= 3/4; smaller gamma means a longer primal step.
"""

import numpy as np

import prepdhg as pd

M = N = 16
n = M * N
R = pd.random_sparse_system(n // 2, n, density=0.05, seed=0)
rng = np.random.default_rng(7919)
x_true = rng.random(n)
b = R.apply(x_true)
print(f"pixels {M}x{N}, measurements {n // 2}, ||R||^2 ~= "
      f"{pd.spectral_norm_sq(R).value:.2f}")
print()

for tau in (0.01, 0.056, 0.316):
    line = [f"tau = {tau:5.3f}:"]
    for gamma in (1.0, 5.0 / 6.0, 0.75):
        inst = pd.tv_least_squares(R, b, lam=1.0, grid=(M, N), tau=tau,
                                   gamma=gamma, theta=1e-3, tol=5e-6,
                                   record_every=10 ** 9)
        rep = inst.solve()
        line.append(f"gamma={gamma:.3f} -> {rep.iters:5d} it")
    print("  ".join(line))

print()
inst = pd.tv_least_squares(R, b, lam=1.0, grid=(M, N), tau=0.056, gamma=0.75,
                           theta=1e-3, tol=5e-6, record_every=100)
rep = inst.solve()
x, y, K = rep.x_final, rep.y_final, inst.saddle.K
res = inst.meta["kkt_residual"](x, y, K.apply(x), K.apply_adjoint(y))
print(f"final objective {inst.objective(x):.6f}, "
      f"exact KKT residual {res:.2e}")
