"""Dense reference constructions and probes shared across test modules."""

import numpy as np

from prepdhg.operators import DenseOperator


class CountingOperator(DenseOperator):
    """A dense operator that counts its products with K and K^T."""

    calls = 0

    def apply(self, x):
        self.calls += 1
        return super().apply(x)

    def apply_adjoint(self, y):
        self.calls += 1
        return super().apply_adjoint(y)


def sgs_dense_oracle(Q, blocks):
    """Assemble Q + U D^{-1} U^T for a block partition, densely."""
    Q = np.asarray(Q, dtype=float)
    perm = np.concatenate(blocks)
    Qp = Q[np.ix_(perm, perm)]
    sizes = [len(b) for b in blocks]
    off = np.cumsum([0] + sizes)
    U = np.zeros_like(Qp)
    D = np.zeros_like(Qp)
    for i in range(len(blocks)):
        si = slice(off[i], off[i + 1])
        D[si, si] = Qp[si, si]
        for j in range(i + 1, len(blocks)):
            sj = slice(off[j], off[j + 1])
            U[si, sj] = Qp[si, sj]
    Mp = Qp + U @ np.linalg.solve(D, U.T)
    M = np.empty_like(Q)
    M[np.ix_(perm, perm)] = Mp
    return M


def random_partition(rng, n, nblocks):
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=nblocks - 1, replace=False))
    return np.split(perm, cuts)
