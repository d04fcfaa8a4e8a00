"""Dense reference constructions and probes shared across test modules."""

import numpy as np

from prepdhg.metrics import GramShiftMetric, spd_solver
from prepdhg.operators import POWER_SEED, DenseOperator, SpectralEstimate


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


def generalized_power(K, M2, a_apply, a_solve, tol, max_iter, seed):
    """(s, converged, iterations) of the generalized power iteration
    z <- A^{-1} K^T M2^{-1} K z with Rayleigh quotients in the A inner
    product: the condition check's estimator before Lanczos replaced it,
    kept as the reference the Lanczos estimate must not fall below."""
    def big_c(z):
        return K.apply_adjoint(M2.solve(K.apply(z)))

    rng = np.random.default_rng(seed)
    z = rng.standard_normal(K.cols)
    z /= np.linalg.norm(z)
    s = 0.0
    for it in range(1, max_iter + 1):
        cz = big_c(z)
        num = float(np.dot(z, cz))
        den = float(np.dot(z, a_apply(z)))
        s_new = num / den
        if num <= 0:
            return s, True, it
        if it > 1 and abs(s_new - s) <= tol * max(abs(s_new), 1e-300):
            return s_new, True, it
        s = s_new
        z = a_solve(cz)
        nz = np.linalg.norm(z)
        if nz == 0:
            return 0.0, True, it
        z /= nz
    return s, False, max_iter


def power_iteration_reference(op, tol, max_iter):
    """``operators._power_iteration`` with its norms by ``np.linalg.norm``,
    as before they became ``math.sqrt(v.dot(v))``: the reference its
    estimates must equal bitwise."""
    rng = np.random.default_rng(POWER_SEED)
    v = rng.standard_normal(op.cols)
    nv = np.linalg.norm(v)
    if nv == 0 or op.cols == 0:
        return SpectralEstimate(0.0, True, 0)
    v /= nv
    u = op.apply(v)
    lam = float(np.dot(u, u))
    for it in range(1, max_iter + 1):
        w = op.apply_adjoint(u)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return SpectralEstimate(0.0, True, it)
        u = op.apply(w / nw)
        lam_new = float(np.dot(u, u))
        if abs(lam_new - lam) <= tol * max(lam_new, 1e-300):
            return SpectralEstimate(lam_new, True, it)
        lam = lam_new
    return SpectralEstimate(lam, False, max_iter)


class FactorizedGramShift(GramShiftMetric):
    """A ``GramShiftMetric`` that solves by a sparse LU of its assembled
    matrix (``spd_solver``) even where its operator has a closed form: the
    solve of a grid Gram shift before the closed forms replaced it."""

    def __init__(self, gamma, tau, op, theta):
        super().__init__(gamma, tau, op, theta)
        self._solve = spd_solver(self.to_sparse(), "gram-shift metric")
