"""Symmetric positive-definite preconditioner metrics.

A ``Metric`` supplies ``apply`` (Mz) and ``solve`` (M^{-1}r); realizations
cover scalar and diagonal matrices, dense matrices, Gram shifts
gamma*tau*K*K^T + theta*I (with the operator's closed-form inverse when it
offers one, or an inexact solve by a fixed number of Gauss-Seidel sweeps),
symmetric Gauss-Seidel implied metrics, and block-diagonal combinations.
Every positive-definite matrix a metric inverts exactly is factorized once,
when the metric is built, by ``spd_solver``; every Gram shift matrix is
assembled by ``gram_shift_matrix``.  ``BoxQuadBCD`` is the one block
Gauss-Seidel kernel: its colored sweep clipped to a box is the coordinate
descent of the box update, unclipped the inexact Gram-shift solve, and one
backward and one forward pass over a given partition the symmetric
Gauss-Seidel metric's solve.  It lays its blocks end to end and folds
each diagonal block's inverse into that block's off-block rows, so that a
block's update is one call of scipy's CSR kernel and a clip.

``check_condition`` estimates the squared norm that governs convergence of
the preconditioned primal-dual iteration,

    s = || M2^{-1/2} K (M1 + Sigma_f/2)^{-1/2} ||^2,

as the largest eigenvalue of the equivalent generalized eigenproblem
K^T M2^{-1} K z = s (M1 + Sigma_f/2) z, by Lanczos in the M1 + Sigma_f/2
inner product, and compares it against the 4/3 threshold below which the
iteration provably converges.  For a scalar pair
(M1 + Sigma_f/2 = a I, M2 = b I) the eigenproblem collapses to
s = ||K||^2 / (a b), which it reads off the operator's memoized
``spectral_norm_sq``.  Where a metric bounds ||M2^{-1/2} K||^2 in closed
form (``Metric.norm_bound``, for a Gram shift over an operator with a
``gram_bound`` and the sGS metric of one), the check also reports a
certified upper bound s_bar, and with s_bar below the threshold it reads
the estimate once.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import ConfigurationError, require
from .operators import (LinearOperator, _csr_matvec_kernel, csr_matvec,
                        spectral_norm_sq)

#: strictness margin subtracted from the 4/3 threshold; the boundary itself
#: is exactly where non-convergent instances exist, and the estimate is only
#: approximate
CHECKER_SLACK = 1e-9

CONDITION_THRESHOLD = 4.0 / 3.0

#: steps between two readings of the condition check's Lanczos estimate
RITZ_EVERY = 25

#: relative pad on the certified bound s_bar, for the rounding of its
#: closed form: a few dozen operations, each within eps/2 relative
BOUND_PAD = 64 * 2.0 ** -52  # 64 eps

_FACTOR_CAP = 4096
SQRT_CAP = 64  # largest metric dimension ``dense_sqrt`` takes a root of


def as_vector(z, dim: int) -> np.ndarray:
    """z raveled as a float vector of length dim, else ValueError."""
    z = np.asarray(z, dtype=float).ravel()
    if z.size != dim:
        raise ValueError(f"expected length {dim}, got {z.size}")
    return z


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
    was interchanged and every pivot is positive; a pivot at most n * eps
    times the largest (A of order n) counts as zero, since rounding alone
    decides its sign.  Raises ``ConfigurationError`` otherwise.
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
    pivots = lu.U.diagonal()
    floor = A.shape[0] * np.finfo(float).eps * pivots.max()
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(pivots > floor)):
        raise ConfigurationError(f"{name} not positive definite")
    return lu.solve


def _gram_shift_bound(K, op, scale, shift):
    """An upper bound on ||(scale op op^T + shift I)^{-1/2} K||^2 from op's
    ``gram_bound`` when K is op, or an operator of op's class with the same
    sparse form; else None.  The value is the largest of lambda / (scale
    lambda + shift) over the eigenvalues lambda of K K^T, which grows with
    lambda, so at an upper bound on lambda_max it bounds the value."""
    lam = op.gram_bound()
    if lam is None or not (K is op or _same_matrix(K, op)):
        return None
    return lam / (scale * lam + shift) if lam > 0 else 0.0


def _same_matrix(K, op) -> bool:
    """Whether K is of op's class and stores op's CSR arrays, entry for
    entry: so each cell of a sweep, built over an operator of its own,
    keeps its certificate in a block solved over the first cell's K."""
    if type(K) is not type(op) or K.shape != op.shape:
        return False
    A, B = K.to_sparse(), op.to_sparse()
    return all(np.array_equal(getattr(A, a), getattr(B, a))
               for a in ("indptr", "indices", "data"))


def _symmetric(A) -> bool:
    """Whether every |A - A^T| entry is at most 1e-12 * (1 + max |A|), for a
    dense or a sparse A; a NaN entry fails."""
    return abs(A - A.T).max() <= 1e-12 * (1 + abs(A).max())


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

    def norm_bound(self, K):
        """An upper bound on ||M^{-1/2} K||^2 in closed form, for the K the
        metric was built over (``_same_matrix``), else None."""
        return None

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
        return self.d * as_vector(z, self.dim)

    def solve(self, r):
        return as_vector(r, self.dim) / self.d

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
        if not _symmetric(A):
            raise ConfigurationError("dense metric must be symmetric")
        self.A = 0.5 * (A + A.T)
        self.dim = A.shape[0]
        self._solve = spd_solver(self.A, "dense metric")

    def apply(self, z):
        return self.A @ as_vector(z, self.dim)

    def solve(self, r):
        return self._solve(as_vector(r, self.dim))


class GramShiftMetric(Metric):
    """M = gamma * tau * K K^T + theta * I.

    The solve is the operator's closed-form inverse when it offers one
    (``gram_shift_solver`` at the shift theta / (gamma * tau) > 0: the
    row/column-sum operator, the grid divergence and the transpose of
    either, such as the TV gradient), else a factorization of
    ``gram_shift_matrix`` by ``spd_solver`` (always at theta = 0); either is
    set up at construction, and a closed form assembles and factorizes
    nothing.  Given ``epochs``, the solve is instead that many Gauss-Seidel
    sweeps from zero (``BoxQuadBCD.sweep`` without a box): an inexact solve
    that factorizes nothing, so it also builds where K K^T is singular and
    theta = 0.  Without ``epochs``, ``norm_bound(op)`` is the closed form
    of ``_gram_shift_bound`` when op has a ``gram_bound``; with them there
    is none, since the solve is not M^{-1}.
    """

    def __init__(self, gamma: float, tau: float, op: LinearOperator,
                 theta: float, epochs: int = None):
        require("need finite gamma >= 0, tau > 0 and theta >= 0",
                gamma=(gamma, 0 <= gamma < math.inf),
                tau=(tau, 0 < tau < math.inf),
                theta=(theta, 0 <= theta < math.inf))
        self.gamma, self.tau, self.op = float(gamma), float(tau), op
        self.theta = float(theta)
        self.dim = op.rows
        gt = self._gt = self.gamma * self.tau
        self.epochs = epochs
        if epochs is not None:
            gs = BoxQuadBCD(self.to_sparse(), np.inf, epochs)
            self._solve = lambda r: gs.sweep(r, np.zeros_like(r))
            return
        # M^{-1} = (gamma*tau)^{-1} (K K^T + theta' I)^{-1}, theta' = theta/(gamma*tau)
        inner = op.gram_shift_solver(self.theta / gt) if gt > 0 else None
        if inner is None:
            self._solve = spd_solver(self.to_sparse(), "gram-shift metric")
        else:
            self._solve = lambda r: inner(r) / gt

    def apply(self, z):
        z = as_vector(z, self.dim)
        out = self._gt * self.op.apply(self.op.apply_adjoint(z))
        out += self.theta * z
        return out

    def solve(self, r):
        return self._solve(as_vector(r, self.dim))

    def norm_bound(self, K):
        if self.epochs is not None:
            return None
        return _gram_shift_bound(K, self.op, self._gt, self.theta)

    def to_sparse(self) -> sp.csr_matrix:
        """M in CSR form, by ``gram_shift_matrix``."""
        return gram_shift_matrix(self.op, self._gt, self.theta)


class SGSMetric(Metric):
    """Metric implied by one backward+forward block Gauss-Seidel sweep.

    Given a symmetric matrix Q with block partition Q = U^T + D + U (D the
    SPD diagonal blocks, U strictly block upper: the entries whose row lies
    in an earlier block than their column), represents

        M = (D + U) D^{-1} (D + U^T) = Q + U D^{-1} U^T

    without forming it.  ``solve`` is the symmetric sweep of its block
    Gauss-Seidel kernel (``kernel``, a ``BoxQuadBCD`` over the partition,
    without a box) on Q y = r from y = 0: one backward pass, which leaves w
    with (D + U) w = r, so r - U w = D w, then one forward pass, which
    solves (D + U^T) y = D w.  ``apply`` runs two block products around the
    kernel's block solves.  A Q that is not symmetric, by the dense
    metric's rule (``_symmetric``), is refused: its sweep would not be this
    metric.

    Built by ``gram_shift`` over Q = scale K K^T + shift I, it records
    (K, scale, shift), and ``norm_bound(K)`` is Q's: M >= Q gives
    ||M^{-1/2} K||^2 <= ||Q^{-1/2} K||^2.
    """

    _gram = None  # (K, scale, shift) of a Q built by ``gram_shift``

    def __init__(self, Q, blocks):
        Q = sp.csr_matrix(Q)
        if Q.shape[0] != Q.shape[1]:
            raise ConfigurationError("Q must be square")
        if not _symmetric(Q):
            raise ConfigurationError("Q must be symmetric")
        self.dim = Q.shape[0]
        self.kernel = BoxQuadBCD(Q, np.inf, 1, blocks)
        self.D, self.U = self.kernel.D, self.kernel.upper()

    @classmethod
    def gram_shift(cls, K: LinearOperator, scale: float, shift: float,
                   blocks):
        """The metric over Q = ``gram_shift_matrix(K, scale, shift)``."""
        metric = cls(gram_shift_matrix(K, scale, shift), blocks)
        metric._gram = (K, scale, shift)
        return metric

    def norm_bound(self, K):
        return None if self._gram is None else _gram_shift_bound(K, *self._gram)

    def apply(self, z):
        z = as_vector(z, self.dim)
        t = self.kernel.solve_blocks(self.D @ z + self.U.T @ z)
        return self.D @ t + self.U @ t

    def solve(self, r):
        return self.kernel.symmetric_sweep(as_vector(r, self.dim))


def _greedy_coloring(M):
    """First-fit coloring of the sparsity graph of the square CSR ``M``, in
    row order: row j takes the least color no earlier neighbour has.  Runs
    on Python lists, which index far faster than numpy arrays one entry at
    a time."""
    indptr, indices = M.indptr.tolist(), M.indices.tolist()
    color = [-1] * M.shape[0]
    for j in range(len(color)):
        used = {color[i] for i in indices[indptr[j]:indptr[j + 1]]
                if i != j and color[i] >= 0}
        c = 0
        while c in used:
            c += 1
        color[j] = c
    return color


class BoxQuadBCD:
    """Block Gauss-Seidel sweeps over M, optionally clipped to a box.

    ``solve`` minimizes 1/2 ||y - y0||_M^2 - <r, y> over ||y||_inf <= radius
    by cyclic exact coordinate descent; with radius = inf, ``sweep`` is plain
    block Gauss-Seidel on M y = c, and ``symmetric_sweep`` one backward and
    one forward pass from y = 0.  The blocks are ``blocks`` when given (a
    partition of the index range, each block's indices in the order given),
    else a greedy coloring of the sparsity graph of M, whose blocks are
    diagonal in M.  A clipped update is exact coordinate descent only on
    diagonal blocks, so a box takes the coloring.

    The kernel works in the blocks' order, perm = concatenate(blocks), so
    that every block is a contiguous slice y[lo:hi].  At construction it
    stores the off-block part M - D once as float64 CSR, rows permuted and
    column indices relabeled, each row's nonzeros in M's stored order.  The
    rows of a diagonal block D_b (every color of the coloring) are scaled
    by -D_b^{-1}; any other block's rows are negated, and the block is
    factorized once by ``spd_solver``.  A block's update sets y_b to
    D_b^{-1} c_b (to c_b when factorized), then makes one call of scipy's
    CSR kernel, which adds the block's rows times y onto y_b in stored
    order:

        y_b <- clip(c_b / d_b + sum_j (-M_bj / d_b) y_j)

    on a diagonal block, y_b <- D_b^{-1} (c_b + sum_j (-M_bj) y_j) on a
    factorized one.  The kernel's output y_b is a slice of the y it reads,
    which is safe because a block's off-block rows never read the block.
    Each call gathers its vectors into the blocks' order once and scatters
    its result once; no call writes its inputs, except that ``sweep``
    updates y as documented.  M must be finite: a product of its finite
    entries with y = 0 is a signed zero, which ``symmetric_sweep`` relies
    on.  ``epochs`` must be a positive integer.
    """

    def __init__(self, M, radius: float, epochs: int = 2, blocks=None):
        M = sp.csr_matrix(M, dtype=float)
        self.M = M
        if not np.all(np.isfinite(M.data)):
            raise ConfigurationError("BCD needs a finite matrix")
        self.diag = M.diagonal()
        if np.any(self.diag <= 0):
            raise ConfigurationError("BCD needs positive diagonal entries")
        self.radius = float(radius)
        if not self.radius > 0:
            raise ConfigurationError("BCD needs a positive radius")
        if not isinstance(epochs, (int, np.integer)) or epochs < 1:
            raise ConfigurationError("epochs must be a positive integer")
        self.epochs = int(epochs)
        n = M.shape[0]
        if blocks is None:
            block_of = np.array(_greedy_coloring(M), dtype=int)
            blocks = [np.nonzero(block_of == c)[0]
                      for c in range(block_of.max() + 1)]
        else:
            block_of = -np.ones(n, dtype=int)
            blocks = [np.asarray(b, dtype=int).ravel() for b in blocks]
            if not (blocks and np.array_equal(np.sort(np.concatenate(blocks)),
                                              np.arange(n))):
                raise ConfigurationError("blocks must partition the index range")
            for c, b in enumerate(blocks):
                block_of[b] = c
        self.groups, self._block_of = blocks, block_of
        Mc = M.tocoo()
        inb = block_of[Mc.row] == block_of[Mc.col]
        self.D = sp.csr_matrix((Mc.data[inb], (Mc.row[inb], Mc.col[inb])),
                               shape=M.shape)
        # a block without a nonzero off-diagonal entry of its own is diagonal
        coupled = np.bincount(
            block_of[Mc.row[inb & (Mc.row != Mc.col) & (Mc.data != 0)]],
            minlength=len(blocks)) > 0
        perm = self._perm = np.concatenate(blocks)
        ends = np.cumsum([0] + [b.size for b in blocks])
        at_block = block_of[perm]  # the block of each position
        # the scale of each position's row: d_i in a diagonal block, else 1
        self._dp = np.where(coupled[at_block], 1.0, self.diag[perm])
        P = self._rows = M[perm]  # rows in the blocks' order, as stored
        pos = np.empty(n, dtype=P.indices.dtype)
        pos[perm] = np.arange(n)
        P.indices = pos[P.indices]
        row = np.repeat(np.arange(n), np.diff(P.indptr))
        P.data = -P.data / self._dp[row]
        P.data[at_block[row] == at_block[P.indices]] = 0.0
        P.eliminate_zeros()  # keeps each row's order
        # the box's bounds as arrays: a ufunc takes them faster than floats
        low, high = np.full(n, -self.radius), np.full(n, self.radius)
        steps = self._steps = [
            (lo, hi, P.indptr[lo:hi + 1],
             spd_solver(self.D[b][:, b], f"diagonal block {c}")
             if coupled[c] else None,
             (low[lo:hi], high[lo:hi]) if self.radius < np.inf else None)
            for c, (b, lo, hi) in enumerate(zip(blocks, ends, ends[1:]))]
        # the symmetric sweep's blocks, backward then forward (see there);
        # its first block adds the sum of its off-block terms on y = 0, each
        # a signed zero, accumulated from -0.0 as the kernel would from c_b
        (lo, hi, rows, *rule), *rest = steps[::-1]
        self._zero = np.full(hi - lo, -0.0)
        _csr_matvec_kernel(hi - lo, n, rows, P.indices, P.data, np.zeros(n),
                           self._zero)
        self._symmetric = [(lo, hi, None, *rule)] + rest + steps[1:]

    def _run(self, c, y, steps, times, out):
        """``times`` passes of y_b <- clip(D_b^{-1} (c - (M - D) y)_b) over
        ``steps``, the blocks' (start, end, CSR row pointers, factorized
        solve or None, box bounds or None), on c in the original order and
        y in the blocks' order, which they update in place; then y in the
        original order, written to ``out`` and returned.  A block given
        None for its rows is the symmetric sweep's first, on y = 0."""
        cd = c[self._perm]
        cd /= self._dp
        n, cols, vals = y.size, self._rows.indices, self._rows.data
        for _ in range(times):
            for lo, hi, rows, lu, box in steps:
                yb = y[lo:hi]
                if rows is None:
                    np.add(cd[lo:hi], self._zero, out=yb)
                else:
                    yb[:] = cd[lo:hi]
                    _csr_matvec_kernel(hi - lo, n, rows, cols, vals, y, yb)
                if lu is not None:
                    yb[:] = lu(yb)
                if box is not None:  # np.clip bit for bit, NaN, -0.0 too
                    np.minimum(np.maximum(yb, box[0], out=yb), box[1], out=yb)
        out[self._perm] = y
        return out

    def sweep(self, c: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``epochs`` passes over the blocks in order.

        Updates y in place and returns it; with radius = inf there is no clip.
        """
        return self._run(c, y[self._perm], self._steps, self.epochs, y)

    def symmetric_sweep(self, c: np.ndarray) -> np.ndarray:
        """One backward pass over the blocks from y = 0, then one forward
        pass; ``epochs`` plays no part.  Bitwise that of both full passes:
        the first block takes no off-block product, whose terms on y = 0
        are signed zeros, and adds to D_b^{-1} c_b their sum found at
        construction, which can change only the sign of a zero; the forward
        pass skips the first block, whose update would repeat the backward
        pass's last one.
        """
        return self._run(c, np.zeros(c.shape), self._symmetric, 1,
                         np.empty(c.shape))

    def solve(self, y0: np.ndarray, r: np.ndarray) -> np.ndarray:
        return self._run(r + csr_matvec(self.M, y0), y0[self._perm],
                         self._steps, self.epochs, np.empty(y0.shape))

    def solve_blocks(self, t: np.ndarray) -> np.ndarray:
        """D^{-1} t, block by block, by the passes' block solves; updates t
        in place and returns it."""
        tp = t[self._perm]
        tp /= self._dp
        for lo, hi, _, lu, _ in self._steps:
            if lu is not None:
                tp[lo:hi] = lu(tp[lo:hi])
        t[self._perm] = tp
        return t

    def upper(self) -> sp.csr_matrix:
        """U, the nonzero entries of M whose row lies in an earlier block
        than their column."""
        Mc, block_of = self.M.tocoo(), self._block_of
        up = (block_of[Mc.row] < block_of[Mc.col]) & (Mc.data != 0)
        return sp.csr_matrix((Mc.data[up], (Mc.row[up], Mc.col[up])),
                             shape=self.M.shape)


class BlockDiagMetric(Metric):
    """Direct sum of metrics acting on stacked blocks."""

    def __init__(self, metrics):
        self.metrics = list(metrics)
        self.dim = sum(m.dim for m in self.metrics)
        self._offsets = np.cumsum([0] + [m.dim for m in self.metrics])

    def _blocks(self, z):
        return [z[lo:hi] for lo, hi in zip(self._offsets[:-1], self._offsets[1:])]

    def apply(self, z):
        z = as_vector(z, self.dim)
        return np.concatenate([m.apply(b) for m, b in zip(self.metrics, self._blocks(z))])

    def solve(self, r):
        r = as_vector(r, self.dim)
        return np.concatenate([m.solve(b) for m, b in zip(self.metrics, self._blocks(r))])


@dataclass
class ConditionReport:
    """Outcome of the convergence-condition check."""

    s_hat: float
    threshold: float
    margin: float
    #: "pass-strict" | "pass-unit" | "inconclusive" | "fail"
    verdict: str
    converged: bool
    iterations: int
    #: the certified upper bound on s, +inf when there is none
    s_bar: float = math.inf

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass-strict", "pass-unit")

    @property
    def unit(self) -> bool:
        """True when the stronger s_hat < 1 bound (non-ergodic rates) holds."""
        return self.verdict == "pass-unit"


def _sigma(M1: Metric, sigma):
    """sigma as a checked float vector of M1's dimension; None when zero."""
    if sigma is None:
        return None
    sigma = np.asarray(sigma, dtype=float).ravel()
    if sigma.size != M1.dim:
        raise ConfigurationError(f"sigma_f has length {sigma.size}, not {M1.dim}")
    if not np.any(sigma):
        return None
    if not np.all((sigma >= 0) & (sigma < np.inf)):  # NaN fails both
        raise ConfigurationError("sigma must be nonnegative and finite")
    return sigma


def _shifted_solver(M1: Metric, sigma):
    """Apply and solve with A = M1 + diag(sigma)/2, sigma from ``_sigma``."""
    if sigma is None:
        return M1.apply, M1.solve
    A = M1.to_sparse() + sp.diags(0.5 * sigma)
    return (lambda z: A @ z), spd_solver(A, "primal metric")


def _scalar_pair(dA, M2: Metric):
    """a * b when A = diag(dA) = a I and M2 = b I, else None; dA is None
    when A is not diagonal."""
    d2 = M2.diagonal()
    if dA is None or d2 is None or not (dA.size and d2.size):
        return None
    if np.any(dA != dA[0]) or np.any(d2 != d2[0]):
        return None
    return dA[0] * d2[0]


def check_condition(M1: Metric, sigma_f, M2: Metric, K: LinearOperator,
                    tol: float = 1e-12, max_iter: int = 2000,
                    seed: int = 0) -> ConditionReport:
    """Estimate s = ||M2^{-1/2} K (M1 + Sigma_f/2)^{-1/2}||^2 and judge it.

    s is the largest eigenvalue of A^{-1} K^T M2^{-1} K with A = M1 +
    diag(sigma_f)/2, estimated by Lanczos in the A inner product
    (``_generalized_lanczos``), which avoids any matrix square root.  The
    estimate is a Ritz value, so in exact arithmetic it lies below s, grows
    from one reading to the next, and lies above the power iteration's
    Rayleigh quotient after as many products.  ``converged`` means it
    stalled or the Krylov space ran out; it is not certified.  It assumes
    a symmetric M2 solve: the Gauss-Seidel solve of a ``GramShiftMetric``
    built with ``epochs`` is not symmetric, and a check of it says little
    (emd's iebalm overrides its check).  Mismatched dimensions raise
    ConfigurationError.

    The certified bound ``s_bar``: when A is diagonal and M2 knows an upper
    bound on ||M2^{-1/2} K||^2 in closed form (``Metric.norm_bound``: a
    Gram shift gamma*tau*K K^T + theta*I over an operator with a
    ``gram_bound``, or the sGS metric of one), s <= that bound / min(diag
    A), and ``s_bar`` is this quotient times 1 + ``BOUND_PAD``; otherwise
    it is +inf.  It certifies s of the metrics as stated, in exact
    arithmetic: A's stored diagonal, M2 built from K's stored entries and
    the stored gamma, tau and theta.  The pad (64 eps relative) covers the
    rounding of the closed form, a few dozen floating-point operations;
    the rounding of the products the iteration runs, and of the entries of
    an assembled Q that a sGS metric sweeps, is not covered.

    The verdict is "fail" when the estimate reaches 4/3 (minus the slack
    ``CHECKER_SLACK``; a NaN estimate fails), "inconclusive" when it lies
    below that but neither converged nor is certified there (s_bar below
    4/3 - slack), else "pass-unit" when it is below 1 - slack (the regime
    with per-iterate rate guarantees) and "pass-strict" in between.  Only
    the two passes count as ``passed``.  With s_bar below 4/3 - slack,
    Lanczos stops at its first reading (``RITZ_EVERY`` products) when that
    reading settles the unit question: it reads at least 1 - slack, which
    later readings only raise, or s_bar is below 1 - slack.  The verdict
    is then the one the full run would give, and ``converged`` is False;
    otherwise the estimate runs on as without a certificate.

    A scalar pair, whose diagonals A = a I and M2 = b I are constant and
    nonempty, takes no iteration of its own: s is
    ``spectral_norm_sq(K, tol=tol).value / (a * b)``, and ``converged`` and
    ``iterations`` are that estimate's.  ``tol`` applies to it; ``max_iter``
    and ``seed`` apply only to the generalized estimate, where
    ``iterations`` counts the products with K^T M2^{-1} K.  The estimate is
    the one memoized on K, so where the stepsizes were chosen from
    ``spectral_norm_sq`` (as a matrix game's are), the check certifies no
    more than the estimate that chose them; an estimate of the pair's own
    would certify no more either.  Certifying ||K||^2 would certify both.
    """
    if max_iter < 1 or not tol > 0:
        raise ConfigurationError("condition check needs max_iter >= 1 and tol > 0")
    if (M1.dim, M2.dim) != (K.cols, K.rows):
        raise ConfigurationError(f"metric dimensions {M1.dim}, {M2.dim} do not "
                                 f"match K's {K.cols}, {K.rows}")
    sigma = _sigma(M1, sigma_f)
    dA = M1.diagonal()  # A's diagonal, when A is diagonal
    if dA is not None and sigma is not None:
        dA = dA + 0.5 * sigma
    bound = M2.norm_bound(K) if dA is not None and dA.size else None
    s_bar = math.inf if bound is None else \
        float(bound / dA.min()) * (1 + BOUND_PAD)
    strict, unit = CONDITION_THRESHOLD - CHECKER_SLACK, 1.0 - CHECKER_SLACK
    ab = _scalar_pair(dA, M2)
    if ab is not None:
        est = spectral_norm_sq(K, tol=tol)
        s, converged, it = est.value / ab, est.converged, est.iterations
    else:
        settled = (lambda s: s >= unit or s_bar < unit) \
            if s_bar < strict else None
        a_apply, a_solve = _shifted_solver(M1, sigma)
        s, converged, it = _generalized_lanczos(K, M2, a_apply, a_solve, tol,
                                                max_iter, seed, settled)
    if not s < strict:  # a NaN estimate fails
        verdict = "fail"
    elif not (converged or s_bar < strict):
        verdict = "inconclusive"
    elif s < unit:
        verdict = "pass-unit"
    else:
        verdict = "pass-strict"
    return ConditionReport(s_hat=s, threshold=CONDITION_THRESHOLD,
                           margin=CONDITION_THRESHOLD - s, verdict=verdict,
                           converged=converged, iterations=it, s_bar=s_bar)


def _generalized_lanczos(K, M2, a_apply, a_solve, tol, max_iter, seed,
                         settled=None):
    """(s, converged, iterations) of Lanczos on A^{-1} C, C = K^T M2^{-1} K.

    A three-term recurrence in the A inner product from the seeded start
    vector, without reorthogonalization.  It carries u_k = A v_k beside the
    A-orthonormal v_k, so a step applies C once and solves with A once:

        w_k = C v_k - alpha_k u_k - beta_{k-1} u_{k-1},  alpha_k = v_k^T C v_k,
        p_k = A^{-1} w_k,  beta_k = sqrt(p_k^T w_k),
        v_{k+1} = p_k / beta_k,  u_{k+1} = w_k / beta_k,

    with w_k kept unscaled (the next coefficients divide by beta_k).  The
    estimate, the top eigenvalue of the tridiagonal of the alphas and
    betas (``_top_eigenvalue``), is read every ``RITZ_EVERY`` = 25 steps
    (a reading costs O(k); a stall must hold over 25 steps, which a
    plateau passes less often), at breakdown (beta_k = 0), at k = dim and
    at ``max_iter``.  It is
    converged when two readings differ by at most ``tol`` relative, or
    when the Krylov space runs out.  Given ``settled``, a first reading
    for which it holds ends the run, unconverged.  ``iterations`` counts
    the products with C; a non-finite coefficient returns NaN, unconverged.
    """
    n = K.cols
    size = min(max_iter, max(n, 1))  # k = dim ends it; an empty K takes one
    alpha, beta = np.empty(size), np.empty(size)
    v = np.random.default_rng(seed).standard_normal(n)
    w = a_apply(v)
    a_norm = math.sqrt(v.dot(w))
    v /= a_norm
    w /= a_norm
    w_prev, term = np.zeros(n), np.empty(n)  # term: the updates' products
    b, b_prev, s = 1.0, 1.0, None  # w = b u_k, w_prev = b_prev u_{k-1}
    for k in range(1, size + 1):
        cv = K.apply_adjoint(M2.solve(K.apply(v)))
        a = float(v.dot(cv))
        cv -= np.multiply(a / b, w, out=term)
        cv -= np.multiply(b / b_prev, w_prev, out=term)
        p = a_solve(cv)
        bb = float(p.dot(cv))
        if not math.isfinite(a + bb):
            return math.nan, False, k
        alpha[k - 1] = a
        exhausted = bb <= 0.0 or k == n
        if exhausted or k % RITZ_EVERY == 0 or k == size:
            s_new = a if k == 1 else _top_eigenvalue(alpha[:k], beta[:k - 1])
            if exhausted or (s is not None and abs(s_new - s)
                             <= tol * max(abs(s_new), 1e-300)):
                return s_new, True, k
            if s is None and settled is not None and settled(s_new):
                return s_new, False, k
            s = s_new
        b_prev, b = b, math.sqrt(bb)
        beta[k - 1] = b
        w_prev, w, v = w, cv, p
        v *= 1.0 / b
    return s, False, size


def _top_eigenvalue(d, e):
    """The largest eigenvalue of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e (len(d) >= 2), by the LAPACK bisection
    ``scipy.linalg.eigvalsh_tridiagonal(select="i")`` runs, called directly:
    inside the Lanczos loop that function's argument checks cost a third of
    a reading."""
    k = d.size  # range 2: the k-th of k eigenvalues by index
    _, w, _, _, info = sla.lapack.dstebz(d, e, 2, 0.0, 0.0, k, k, 0.0, "E")
    if info:
        raise np.linalg.LinAlgError(f"tridiagonal bisection failed ({info})")
    return float(w[0])


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
