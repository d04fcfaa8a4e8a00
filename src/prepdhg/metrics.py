"""Symmetric positive-definite preconditioner metrics.

A ``Metric`` supplies ``apply`` (Mz) and ``solve`` (M^{-1}r); realizations
cover scalar and diagonal matrices, dense matrices, Gram shifts
gamma*tau*K*K^T + theta*I (with the operator's closed-form inverse when it
offers one), symmetric Gauss-Seidel implied metrics, and block-diagonal
combinations.  Every positive-definite matrix a metric has to invert is
factorized once, when the metric is built, by ``spd_solver``; every Gram
shift matrix is assembled by ``gram_shift_matrix``.

``check_condition`` estimates the squared norm that governs convergence of
the preconditioned primal-dual iteration,

    s = || M2^{-1/2} K (M1 + Sigma_f/2)^{-1/2} ||^2,

by power iteration on the equivalent generalized eigenproblem
K^T M2^{-1} K z = s (M1 + Sigma_f/2) z, and compares it against the 4/3
threshold below which the iteration provably converges.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import ConfigurationError
from .operators import LinearOperator

#: strictness margin subtracted from the 4/3 threshold; the boundary itself
#: is exactly where non-convergent instances exist, and power iteration only
#: gives approximate values
CHECKER_SLACK = 1e-9

CONDITION_THRESHOLD = 4.0 / 3.0

_FACTOR_CAP = 4096
SQRT_CAP = 64  # largest metric dimension ``dense_sqrt`` takes a root of


def gram_shift_matrix(K: LinearOperator, scale: float, shift: float):
    """scale * K K^T + shift * I in CSR form, from ``K.to_sparse()``."""
    A = K.to_sparse()
    G = scale * (A @ A.T)
    G.sort_indices()
    return G + shift * sp.identity(A.shape[0], format="csr")


def spd_solver(A, name: str = "matrix"):
    """Factorize a symmetric positive-definite A once; return r -> A^{-1} r.

    A may be dense or sparse.  A diagonal A is inverted entrywise.  Any other
    A gets one sparse LU in symmetric mode with diagonal pivots only, which
    is its LDL^T factorization: A is positive definite exactly when no row
    was interchanged and every pivot is positive.  Raises
    ``ConfigurationError`` otherwise.
    """
    A = sp.csc_matrix(A, dtype=float)
    d = A.diagonal()
    if not (A - sp.diags(d)).count_nonzero():
        if not np.all(d > 0):
            raise ConfigurationError(f"{name} not positive definite")
        return lambda r: r / d
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # an exactly zero pivot
        raise ConfigurationError(f"{name} not positive definite") from None
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0)):
        raise ConfigurationError(f"{name} not positive definite")
    return lu.solve


class Metric:
    """Base class for SPD preconditioners."""

    dim: int

    def apply(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def solve(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def diagonal(self):
        """The diagonal of M when M is diagonal, else None."""
        return None

    def _check(self, z):
        z = np.asarray(z, dtype=float).ravel()
        if z.size != self.dim:
            raise ValueError(f"expected length {self.dim}, got {z.size}")
        return z

    def to_dense(self) -> np.ndarray:
        if self.dim > _FACTOR_CAP:
            raise ConfigurationError("metric too large to materialize")
        eye = np.eye(self.dim)
        return np.column_stack([self.apply(eye[:, j]) for j in range(self.dim)])

    def to_sparse(self) -> sp.csr_matrix:
        """M in CSR form, assembled densely unless a subclass knows better."""
        return sp.csr_matrix(self.to_dense())


class DiagonalMetric(Metric):
    """M = diag(d) with d > 0 entrywise."""

    def __init__(self, d):
        d = np.asarray(d, dtype=float).ravel()
        if not np.all((d > 0) & (d < np.inf)):
            raise ConfigurationError("metric must be positive and finite")
        self.d = d
        self.dim = d.size

    def apply(self, z):
        return self.d * self._check(z)

    def solve(self, r):
        return self._check(r) / self.d

    def diagonal(self):
        return self.d

    def to_sparse(self) -> sp.csr_matrix:
        return sp.diags(self.d, format="csr")


class ScalarMetric(DiagonalMetric):
    """M = s * I with s > 0."""

    def __init__(self, s: float, dim: int):
        self.s = float(s)
        super().__init__(np.full(int(dim), self.s))


class DenseMetric(Metric):
    """Dense SPD matrix, factorized once at construction."""

    def __init__(self, A):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise ConfigurationError("dense metric must be square")
        if not np.allclose(A, A.T, atol=1e-12 * (1 + np.abs(A).max())):
            raise ConfigurationError("dense metric must be symmetric")
        self.A = 0.5 * (A + A.T)
        self.dim = A.shape[0]
        self._solve = spd_solver(self.A, "dense metric")

    def apply(self, z):
        return self.A @ self._check(z)

    def solve(self, r):
        return self._solve(self._check(r))


class GramShiftMetric(Metric):
    """M = gamma * tau * K K^T + theta * I.

    The solve is the operator's closed-form inverse when it offers one
    (``gram_shift_solver``), else a factorization of ``gram_shift_matrix``;
    either is set up at construction.
    """

    def __init__(self, gamma: float, tau: float, op: LinearOperator,
                 theta: float):
        if gamma < 0 or tau <= 0:
            raise ConfigurationError("need gamma >= 0 and tau > 0")
        if theta < 0:
            raise ConfigurationError("theta must be nonnegative")
        self.gamma, self.tau, self.op = float(gamma), float(tau), op
        self.theta = float(theta)
        self.dim = op.rows
        gt = self._gt = self.gamma * self.tau
        # M^{-1} = (gamma*tau)^{-1} (K K^T + theta' I)^{-1}, theta' = theta/(gamma*tau)
        inner = op.gram_shift_solver(self.theta / gt) if gt > 0 else None
        if inner is None:
            self._solve = spd_solver(self.to_sparse(), "gram-shift metric")
        else:
            self._solve = lambda r: inner(r) / gt

    def apply(self, z):
        z = self._check(z)
        out = self._gt * self.op.apply(self.op.apply_adjoint(z))
        out += self.theta * z
        return out

    def solve(self, r):
        return self._solve(self._check(r))

    def to_sparse(self) -> sp.csr_matrix:
        """M in CSR form, by ``gram_shift_matrix``."""
        return gram_shift_matrix(self.op, self._gt, self.theta)


class SGSMetric(Metric):
    """Metric implied by one backward+forward block Gauss-Seidel sweep.

    Given a symmetric matrix Q with block partition Q = U^T + D + U (D the
    SPD diagonal blocks, U strictly block upper), represents

        M = (D + U) D^{-1} (D + U^T) = Q + U D^{-1} U^T

    without forming it: ``apply`` runs two triangular block products around
    one block-diagonal solve, and ``solve`` runs the backward sweep, the
    block-diagonal scaling, and the forward sweep.  Each diagonal block is
    factorized once at construction (``spd_solver``); U keeps the nonzero
    entries of the permuted Q whose row block precedes their column block.

    The per-block CSR row slices of U and U^T that the sweeps multiply by
    are built once at construction, so ``solve`` does no sparse indexing;
    they cost one more copy of the off-diagonal nonzeros.  The last block's
    rows of U and the first block's rows of U^T are empty and not kept.
    """

    def __init__(self, Q, blocks):
        Q = sp.csr_matrix(Q)
        if Q.shape[0] != Q.shape[1]:
            raise ConfigurationError("Q must be square")
        self.dim = Q.shape[0]
        blocks = [np.asarray(b, dtype=int).ravel() for b in blocks]
        if len(blocks) < 1:
            raise ConfigurationError("need at least one block")
        perm = np.concatenate(blocks)
        if perm.size != self.dim or np.unique(perm).size != self.dim:
            raise ConfigurationError("blocks must partition the index range")
        self.perm = perm
        self.inv_perm = np.argsort(perm)
        sizes = [b.size for b in blocks]
        self.offsets = np.cumsum([0] + sizes)
        self.nblocks = len(blocks)
        Qp = Q[perm][:, perm].tocsr()
        self._slices = [slice(self.offsets[i], self.offsets[i + 1])
                        for i in range(self.nblocks)]
        diag = [Qp[si, si] for si in self._slices]
        self._dsolve = [spd_solver(Dii, f"diagonal block {i}")
                        for i, Dii in enumerate(diag)]
        self.D = sp.block_diag(diag, format="csr")
        block_of = np.repeat(np.arange(self.nblocks), sizes)
        Qc = Qp.tocoo()
        up = (block_of[Qc.row] < block_of[Qc.col]) & (Qc.data != 0)
        self.U = sp.csr_matrix((Qc.data[up], (Qc.row[up], Qc.col[up])),
                               shape=Qp.shape)
        self.UT = self.U.T.tocsr()
        self._U_rows = [self.U[si, :] for si in self._slices[:-1]]
        self._UT_rows = [self.UT[si, :] for si in self._slices[1:]]

    def apply(self, z):
        z = self._check(z)[self.perm]
        t = self.D @ z + self.UT @ z
        u = np.concatenate([ds(t[si]) for ds, si in zip(self._dsolve, self._slices)])
        out = self.D @ u + self.U @ u
        return out[self.inv_perm]

    def solve(self, r):
        r = self._check(r)[self.perm]
        sl = self._slices
        last = self.nblocks - 1
        # backward: (D + U) w = r; the last block has no U rows
        w = np.zeros_like(r)
        ds = self._dsolve
        w[sl[last]] = ds[last](r[sl[last]])
        for i in range(last - 1, -1, -1):
            w[sl[i]] = ds[i](r[sl[i]] - self._U_rows[i] @ w)
        # forward: (D + U^T) x = D w; the first block has no U^T rows
        x = np.zeros_like(r)
        x[sl[0]] = w[sl[0]]
        for i in range(1, self.nblocks):
            x[sl[i]] = w[sl[i]] - ds[i](self._UT_rows[i - 1] @ x)
        return x[self.inv_perm]


class BoxQuadBCD:
    """Cyclic exact coordinate descent for a box-constrained quadratic.

    Minimizes 1/2 ||y - y0||_M^2 - <r, y> over ||y||_inf <= radius, running a
    fixed number of epochs over a greedy coloring of the sparsity graph of M
    so that each color block updates in one vectorized pass.

    The CSC column slice of M for each color is built once at construction,
    so ``solve`` does no sparse indexing; the slices cost one more copy of
    the nonzeros of M.
    """

    def __init__(self, M, radius: float, epochs: int = 2):
        M = sp.csr_matrix(M)
        self.M = M
        self.diag = M.diagonal()
        if np.any(self.diag <= 0):
            raise ConfigurationError("BCD needs positive diagonal entries")
        self.radius = float(radius)
        self.epochs = int(epochs)
        if self.epochs < 1:
            raise ConfigurationError("BCD needs at least one epoch")
        n = M.shape[0]
        colors = -np.ones(n, dtype=int)
        indptr, indices = M.indptr, M.indices
        for j in range(n):
            used = {colors[i] for i in indices[indptr[j]:indptr[j + 1]]
                    if i != j and colors[i] >= 0}
            c = 0
            while c in used:
                c += 1
            colors[j] = c
        self.groups = [np.nonzero(colors == c)[0] for c in range(colors.max() + 1)]
        Mc = M.tocsc()
        self._sweep = [(grp, self.diag[grp], Mc[:, grp]) for grp in self.groups]

    def solve(self, y0: np.ndarray, r: np.ndarray) -> np.ndarray:
        delta = np.zeros_like(y0)
        g = np.zeros_like(y0)  # g = M @ delta, maintained incrementally
        lo, hi = -self.radius, self.radius
        for _ in range(self.epochs):
            for grp, dg, cols in self._sweep:
                y0g = y0[grp]
                step = delta[grp] + (r[grp] - g[grp]) / dg
                new = np.clip(y0g + step, lo, hi) - y0g
                change = new - delta[grp]
                if np.any(change):
                    delta[grp] = new
                    g += cols @ change
        # y0 + delta can round an ulp past the box the sweep clipped it to
        return np.clip(y0 + delta, lo, hi)


class BlockDiagMetric(Metric):
    """Direct sum of metrics acting on stacked blocks."""

    def __init__(self, metrics):
        self.metrics = list(metrics)
        self.dim = sum(m.dim for m in self.metrics)
        self._offsets = np.cumsum([0] + [m.dim for m in self.metrics])

    def _blocks(self, z):
        return [z[lo:hi] for lo, hi in zip(self._offsets[:-1], self._offsets[1:])]

    def apply(self, z):
        z = self._check(z)
        return np.concatenate([m.apply(b) for m, b in zip(self.metrics, self._blocks(z))])

    def solve(self, r):
        r = self._check(r)
        return np.concatenate([m.solve(b) for m, b in zip(self.metrics, self._blocks(r))])


@dataclass
class ConditionReport:
    """Outcome of the convergence-condition check."""

    s_hat: float
    threshold: float
    margin: float
    verdict: str  # "pass-strict" | "pass-unit" | "fail"
    converged: bool
    iterations: int

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"

    @property
    def unit(self) -> bool:
        """True when the stronger s_hat < 1 bound (non-ergodic rates) holds."""
        return self.verdict == "pass-unit"


def _shifted_solver(M1: Metric, sigma):
    """Return functions applying and solving with A = M1 + diag(sigma)/2."""
    if sigma is None or not np.any(sigma):
        return M1.apply, M1.solve
    sigma = np.asarray(sigma, dtype=float).ravel()
    if sigma.size != M1.dim:
        raise ValueError("sigma length mismatch")
    if np.any(sigma < 0):
        raise ConfigurationError("sigma must be nonnegative")
    A = M1.to_sparse() + sp.diags(0.5 * sigma)
    return (lambda z: A @ z), spd_solver(A, "primal metric")


def check_condition(M1: Metric, sigma_f, M2: Metric, K: LinearOperator,
                    tol: float = 1e-12, max_iter: int = 2000,
                    seed: int = 0) -> ConditionReport:
    """Estimate s = ||M2^{-1/2} K (M1 + Sigma_f/2)^{-1/2}||^2 and judge it.

    Runs power iteration on z <- A^{-1} K^T M2^{-1} K z with A = M1 +
    diag(sigma_f)/2, taking Rayleigh quotients in the A-inner product; this
    avoids any matrix square roots.  The verdict is "fail" when the
    estimate reaches 4/3 (minus a small slack), "pass-unit" when it is
    below 1 (the regime with per-iterate rate guarantees), and
    "pass-strict" in between.
    """
    if max_iter < 1 or not tol > 0:
        raise ConfigurationError("condition check needs max_iter >= 1 and tol > 0")
    a_apply, a_solve = _shifted_solver(M1, sigma_f)

    def big_c(z):
        return K.apply_adjoint(M2.solve(K.apply(z)))

    rng = np.random.default_rng(seed)
    z = rng.standard_normal(K.cols)
    z /= np.linalg.norm(z)
    s = 0.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        cz = big_c(z)
        num = float(np.dot(z, cz))
        den = float(np.dot(z, a_apply(z)))
        s_new = num / den
        if num <= 0:
            s_new = 0.0
            converged = True
            break
        if it > 1 and abs(s_new - s) <= tol * max(abs(s_new), 1e-300):
            s = s_new
            converged = True
            break
        s = s_new
        z = a_solve(cz)
        nz = np.linalg.norm(z)
        if nz == 0:
            converged = True
            s = 0.0
            break
        z /= nz
    if not s < CONDITION_THRESHOLD - CHECKER_SLACK:  # a NaN estimate fails
        verdict = "fail"
    elif s < 1.0 - CHECKER_SLACK:
        verdict = "pass-unit"
    else:
        verdict = "pass-strict"
    return ConditionReport(s_hat=s, threshold=CONDITION_THRESHOLD,
                           margin=CONDITION_THRESHOLD - s, verdict=verdict,
                           converged=converged, iterations=it)


def build_diag_preconditioner(K: LinearOperator, alpha: float, delta: float,
                              gamma1: float, gamma2: float):
    """Row/column-sum diagonal preconditioners.

    M1 = gamma1 * diag(tau_j) with tau_j = delta + sum_i |K_ij|^(2-alpha) and
    M2 = gamma2 * diag(sigma_i) with sigma_i = delta + sum_j |K_ij|^alpha,
    summing over the nonzero entries of ``K.to_sparse()`` only.  The
    resulting condition estimate satisfies s_hat <= 1/(gamma1*gamma2).
    """
    if not 0.0 <= alpha <= 2.0:
        raise ConfigurationError("alpha must lie in [0, 2]")
    if delta < 0:
        raise ConfigurationError("delta must be nonnegative")
    if gamma1 <= 0 or gamma2 <= 0:
        raise ConfigurationError("gamma factors must be positive")
    A = abs(sp.csr_matrix(K.to_sparse(), dtype=float))
    A.eliminate_zeros()  # a power 0 must not count a stored zero
    P = A.copy()
    P.data = A.data ** (2.0 - alpha)
    tau = delta + P.sum(axis=0).A1
    P.data = A.data ** alpha
    sig = delta + P.sum(axis=1).A1
    if np.any(tau <= 0) or np.any(sig <= 0):
        raise ConfigurationError(
            "zero row or column encountered; use delta > 0")
    return DiagonalMetric(gamma1 * tau), DiagonalMetric(gamma2 * sig)


def dense_sqrt(M: Metric):
    """(M^{1/2}, M^{-1/2}) by symmetric eigendecomposition, small dims only."""
    if M.dim > SQRT_CAP:
        raise ConfigurationError(f"matrix square root restricted to dim <= {SQRT_CAP}")
    A = M.to_dense()
    w, V = sla.eigh(0.5 * (A + A.T))
    if w[0] <= 0:
        raise ConfigurationError("metric not positive definite")
    S = (V * np.sqrt(w)) @ V.T
    Sinv = (V / np.sqrt(w)) @ V.T
    return S, Sinv
