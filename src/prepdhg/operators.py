"""Linear operators used by the saddle-point solvers.

Every operator represents a matrix K acting between flat numpy vectors and
exposes ``apply`` (Kx) and ``apply_adjoint`` (K^T y).  Both also take a
row block X of shape (B, n) and return the block of the rows' products,
each row computed by the same arithmetic as the product of that row alone
(one BLAS matrix-vector or CSR row product per row, never a matrix-matrix
product, which rounds differently).  Dense and sparse wrappers are
provided; a sparse operator stores its matrix as float64 CSR and multiplies
one vector by scipy's CSR kernel directly (``csr_matvec``).  The 2D grid
divergence, vertical stacking and the transpose are sparse operators: each
assembles its CSR matrix once and applies it.  The
doubly-stochastic (row-sum/column-sum) constraint operator stays
matrix-free.  Three operators solve with their Gram shift K K^T + s I in
closed form (``gram_shift_solver``), so that no Gram shift over them is
factorized: the row/column-sum operator by two rank-one corrections, the
grid divergence by the 2D discrete cosine transform that diagonalizes its
Gram matrix, and the transpose of either through its child's solve.
The same three know an upper bound on lambda_max(K K^T) in closed form
(``gram_bound``), which certifies the condition value of a Gram shift.
"""

import math
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec_kernel

from .exceptions import ConfigurationError

POWER_SEED = 0  # seed of the start vector of ``spectral_norm_sq``


class LinearOperator:
    """Base class: an immutable m-by-n linear map with an explicit adjoint."""

    rows: int
    cols: int

    @property
    def shape(self):
        return (self.rows, self.cols)

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_in(self, x, n, name):
        """x as a float vector, or as a (B, n) float row block."""
        if type(x) is not np.ndarray or x.ndim not in (1, 2) \
                or x.dtype != np.float64:
            x = np.asarray(x, dtype=float)
            if x.ndim != 2:
                x = x.ravel()
        if x.shape[-1] != n:
            raise ValueError(f"{name}: expected length {n}, got {x.shape[-1]}")
        return x

    def to_dense(self) -> np.ndarray:
        """Materialize the matrix column by column (small operators only)."""
        if self.rows * self.cols > 1 << 22:
            raise ValueError("operator too large to materialize")
        cols = np.eye(self.cols)
        return np.column_stack([self.apply(cols[:, j]) for j in range(self.cols)])

    def to_sparse(self) -> sp.csr_matrix:
        """K in CSR form, from ``to_dense`` unless a subclass knows better."""
        return sp.csr_matrix(self.to_dense())

    def gram_shift_solver(self, shift: float):
        """``r -> (K K^T + shift*I)^{-1} r`` in closed form, or None.

        None when K has no closed form or when shift <= 0 (K K^T may be
        singular; ``GramShiftMetric`` then factorizes the Gram shift, which
        refuses it when its LU is not positive definite).
        ``BirkhoffConstraint``, whose K K^T is always singular, raises
        ``ConfigurationError`` for shift <= 0 instead.
        """
        return None

    def gram_bound(self):
        """An upper bound on lambda_max(K K^T) in closed form, or None."""
        return None


def csr_matvec(A, x):
    """A @ x for a float64 CSR matrix A and a float64 vector x.

    Calls the C kernel behind ``A @ x`` (the private
    ``scipy.sparse._sparsetools.csr_matvec``, present at the scipy>=1.13
    floor) on the same zero-filled float64 output, so the result is bitwise
    that of ``A @ x``; it skips only scipy's operator dispatch, which costs
    more than the product itself on the small matrices of a Gauss-Seidel
    pass.  The kernel does not check dtypes: A must hold float64 data, as
    every ``SparseOperator`` and ``BoxQuadBCD`` matrix does.  The tests pin
    the equality on empty rows, strided x, int64 indices and empty shapes.
    """
    m, n = A.shape
    y = np.zeros(m)
    _csr_matvec_kernel(m, n, A.indptr, A.indices, A.data, x, y)
    return y


def _dense_rows(A, X):
    """The rows of X times A^T, each by the gemv of ``A @ X[i]``."""
    if len(X) == 1:
        return (A @ X[0])[None]
    # a stack of row-times-matrix products: one gemv per row, where X @ A.T
    # (one gemm) rounds differently
    return np.matmul(X[:, None, :], A.T)[:, 0]


def _csr_rows(A, X):
    """The rows of X times A^T for a CSR A, each as ``A @ X[i]``."""
    if len(X) == 1:
        return csr_matvec(A, X[0])[None]
    # CSR times a dense block accumulates each output entry in the order of
    # the CSR matrix-vector product
    return np.ascontiguousarray((A @ X.T).T)


class DenseOperator(LinearOperator):
    """K given as a dense 2D array, stored as a read-only copy of its own, so
    that no caller can change K under a memoized ``spectral_norm_sq``."""

    def __init__(self, A):
        self.A = np.array(A, dtype=float, ndmin=2)
        self.A.flags.writeable = False
        self.rows, self.cols = self.A.shape

    def apply(self, x):
        x = self._check_in(x, self.cols, "apply")
        return self.A @ x if x.ndim == 1 else _dense_rows(self.A, x)

    def apply_adjoint(self, y):
        y = self._check_in(y, self.rows, "apply_adjoint")
        return self.A.T @ y if y.ndim == 1 else _dense_rows(self.A.T, y)

    def to_dense(self):
        return self.A.copy()


class SparseOperator(LinearOperator):
    """K given as a scipy CSR matrix, stored as a float64 copy of its own
    (the kernel of ``csr_matvec`` takes no other data type, and no caller
    can change K under a memoized ``spectral_norm_sq``); ``to_sparse``
    returns it, not a copy."""

    def __init__(self, A):
        self.A = sp.csr_matrix(A, dtype=float, copy=True)
        self.rows, self.cols = self.A.shape
        self._AT = sp.csr_matrix(self.A.T)

    def apply(self, x):
        x = self._check_in(x, self.cols, "apply")
        return csr_matvec(self.A, x) if x.ndim == 1 else _csr_rows(self.A, x)

    def apply_adjoint(self, y):
        y = self._check_in(y, self.rows, "apply_adjoint")
        return csr_matvec(self._AT, y) if y.ndim == 1 \
            else _csr_rows(self._AT, y)

    def to_dense(self):
        return self.A.toarray()

    def to_sparse(self):
        return self.A


class GridDivergence(SparseOperator):
    """Discrete divergence of a two-component flux on an M-by-N grid.

    The flux vector stacks the row-major flattenings of the components m1
    (vertical) and m2 (horizontal), each of shape (M, N).  The stencil is

        div(m)[i, j] = h * (m1[i,j] - m1[i-1,j] + m2[i,j] - m2[i,j-1])

    with zero outside the grid.  The structural zeros m1[M-1, :] and
    m2[:, N-1] are empty columns of the assembled matrix, so they are ignored
    on input and the adjoint (the negative discrete gradient) produces zeros
    in those slots.  The step h must be positive and finite: at h = 0 the
    operator is zero.

    K K^T = h^2 (L_M x I_N + I_M x L_N), with L_n the n-node path
    Laplacian, L_n = C_n^T diag(lambda) C_n for the orthonormal DCT-II
    matrix C_n and lambda_k = 4 sin^2(pi k / 2n) (2 - 2 cos(pi k / n)
    without its cancellation at small k).  So, R the row-major (M, N)
    reshape of r, ``gram_shift_solver`` computes in four small products

        (K K^T + s I)^{-1} r = C_M^T [(C_M R C_N^T) / (h^2 (lambda_i +
                               lambda_j) + s)] C_N.
    """

    def __init__(self, M: int, N: int, h: float = 1.0):
        if M < 1 or N < 1:
            raise ValueError("grid dimensions must be positive")
        if not 0.0 < h < math.inf:  # NaN fails too
            raise ConfigurationError(
                f"grid step h must be positive and finite, got {h}")
        self.M, self.N, self.h = int(M), int(N), float(h)
        M, N, h = self.M, self.N, self.h
        idx = np.arange(M * N).reshape(M, N)
        rows, cols, vals = [], [], []

        def add(r, c, v):
            rows.append(r.ravel())
            cols.append(c.ravel())
            vals.append(np.full(r.size, v))

        # m1 contributes +h at (i,j) for i < M-1 and -h at (i+1,j)
        free1 = idx[: M - 1, :]
        add(free1, free1, h)
        add(idx[1:, :], free1, -h)
        # m2 contributes +h at (i,j) for j < N-1 and -h at (i,j+1)
        free2 = idx[:, : N - 1]
        add(free2, M * N + free2, h)
        add(idx[:, 1:], M * N + free2, -h)
        super().__init__(sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(M * N, 2 * M * N)))

    def boundary_mask(self) -> np.ndarray:
        """Boolean mask of the structurally-zero flux entries."""
        M, N = self.M, self.N
        m1 = np.zeros((M, N), dtype=bool)
        m2 = np.zeros((M, N), dtype=bool)
        m1[M - 1, :] = True
        m2[:, N - 1] = True
        return np.concatenate([m1.ravel(), m2.ravel()])

    def gram_shift_solver(self, shift):
        """(K K^T + shift*I)^{-1} by the 2D DCT; None for shift <= 0."""
        if not shift > 0:
            return None
        M, N = self.M, self.N
        (CM, lm), (CN, ln) = _dct(M), _dct(N)
        denom = self.h * self.h * np.add.outer(lm, ln) + shift

        def solve(r):
            Y = CM @ r.reshape(M, N) @ CN.T
            Y /= denom
            return (CM.T @ Y @ CN).ravel()
        return solve

    def gram_bound(self):
        """h^2 (lambda_M,max + lambda_N,max), lambda_n,max = 4 sin^2(pi (n-1)
        / 2n), the top eigenvalue of K K^T itself, in O(1)."""
        top = (4.0 * math.sin(math.pi * (n - 1) / (2 * n)) ** 2
               for n in (self.M, self.N))
        return self.h * self.h * sum(top)


def _dct(n):
    """The orthonormal DCT-II matrix of order n, C[k, j] = c_k cos(pi k
    (2j+1) / 2n), whose rows are eigenvectors of the n-node path Laplacian,
    and their eigenvalues."""
    C = np.cos(np.outer(np.arange(n), np.arange(0.5, n)) * (math.pi / n))
    C *= math.sqrt(2.0 / n)
    C[0] *= math.sqrt(0.5)
    return C, 4.0 * np.sin(np.arange(n) * (math.pi / (2 * n))) ** 2


class BirkhoffConstraint(LinearOperator):
    """Row-sum and column-sum operator for n-by-n matrices, matrix-free.

    Acting on the row-major flattening of X, returns the 2n-vector of row
    sums followed by column sums.  Its products never materialize it; its
    sparse form holds the row-sum rows over the column-sum rows.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = int(n)
        self.rows = 2 * self.n
        self.cols = self.n * self.n

    def apply(self, x):
        x = self._check_in(x, self.cols, "apply")
        X = x.reshape(*x.shape[:-1], self.n, self.n)
        return np.concatenate([X.sum(axis=-1), X.sum(axis=-2)], axis=-1)

    def apply_adjoint(self, y):
        y = self._check_in(y, self.rows, "apply_adjoint")
        y1, y2 = y[..., : self.n], y[..., self.n :]
        return (y1[..., :, None] + y2[..., None, :]).reshape(*y.shape[:-1], -1)

    def to_sparse(self):
        """K in CSR form: row i sums X[i, :], row n + j sums X[:, j]."""
        n = self.n
        idx = np.arange(n * n).reshape(n, n)
        return sp.csr_matrix((np.ones(2 * n * n),
                              np.concatenate([idx.ravel(), idx.T.ravel()]),
                              np.arange(0, 2 * n * n + 1, n)), shape=self.shape)

    def gram_shift_solver(self, shift):
        """Closed-form inverse of K K^T + shift*I; K K^T has the null vector
        (e; -e), so the shift must be positive."""
        if not shift > 0:
            raise ConfigurationError(
                "gram-shift over the row/column-sum operator needs theta > 0")
        n = self.n
        c = 1.0 / (2.0 * n * shift + shift * shift)
        f = n / (n + shift)

        def solve(r):
            r1, r2 = r[:n], r[n:]
            s1, s2 = r1.sum(), r2.sum()
            out = np.empty_like(r)
            out[:n] = r1 / (n + shift) + c * (f * s1 - s2)
            out[n:] = r2 / (n + shift) + c * (f * s2 - s1)
            return out
        return solve

    def gram_bound(self):
        """2n: K K^T = [[n I, E], [E, n I]] with E the all-ones matrix has
        the top eigenvector (e; e)."""
        return 2.0 * self.n


class VStack(SparseOperator):
    """Vertical stack [K1; K2; ...] of the children's sparse forms."""

    def __init__(self, children: Sequence[LinearOperator]):
        if not children:
            raise ValueError("need at least one child operator")
        cols = children[0].cols
        if any(c.cols != cols for c in children):
            raise ValueError("children must share the domain dimension")
        self.children = list(children)
        super().__init__(sp.vstack([c.to_sparse() for c in self.children],
                                   format="csr"))


class Transpose(SparseOperator):
    """Adjoint of another operator in sparse form (used for the 2D gradient)."""

    def __init__(self, op: LinearOperator):
        self.op = op
        super().__init__(op.to_sparse().T)

    def gram_shift_solver(self, shift):
        """With A = K^T, (A A^T + s I)^{-1} r = (r - A (K K^T + s I)^{-1}
        A^T r) / s through K's closed form; None for s <= 0 or when K has
        none."""
        if not shift > 0:
            return None
        inner = self.op.gram_shift_solver(shift)
        if inner is None:
            return None
        A, AT = self.A, self._AT

        def solve(r):
            out = r - csr_matvec(A, inner(csr_matvec(AT, r)))
            out /= shift
            return out
        return solve

    def gram_bound(self):
        """K's: A A^T = K^T K and K K^T share their nonzero eigenvalues."""
        return self.op.gram_bound()


class SpectralEstimate(NamedTuple):
    value: float
    converged: bool
    iterations: int


def spectral_norm_sq(op: LinearOperator, tol: float = 1e-10,
                     max_iter: int = 2000) -> SpectralEstimate:
    """Estimate ||K||^2 by power iteration on K^T K.

    Starts from a seeded random vector so repeated runs agree bitwise.  Stops
    when the relative change of successive Rayleigh quotients drops below
    ``tol``; the returned value is a lower bound of ||K||^2 up to that
    tolerance.  Non-convergence is flagged, not raised.

    The estimate is memoized on the operator, one entry per ``(tol,
    max_iter)``: the start vector is always the one of ``POWER_SEED`` and
    an operator's matrix never changes (the dense and sparse wrappers keep
    copies of their own), so a memoized estimate is bitwise the one a fresh
    iteration would return.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    memo = op.__dict__.setdefault("_spectral_memo", {})
    key = (tol, max_iter)
    if key not in memo:
        memo[key] = _power_iteration(op, tol, max_iter)
    return memo[key]


def _power_iteration(op, tol, max_iter):
    rng = np.random.default_rng(POWER_SEED)
    v = rng.standard_normal(op.cols)
    # each norm is sqrt(v . v), numpy's own formula for a real vector's norm
    nv = math.sqrt(v.dot(v))
    if nv == 0 or op.cols == 0:
        return SpectralEstimate(0.0, True, 0)
    v /= nv
    u = op.apply(v)
    lam = float(np.dot(u, u))
    for it in range(1, max_iter + 1):
        w = op.apply_adjoint(u)
        nw = math.sqrt(w.dot(w))
        if nw == 0.0:
            return SpectralEstimate(0.0, True, it)
        u = op.apply(w / nw)
        lam_new = float(np.dot(u, u))
        if abs(lam_new - lam) <= tol * max(lam_new, 1e-300):
            return SpectralEstimate(lam_new, True, it)
        lam = lam_new
    return SpectralEstimate(lam, False, max_iter)


def load_dense(path) -> DenseOperator:
    """Read a dense operator from whitespace-separated text."""
    return DenseOperator(np.loadtxt(path, ndmin=2))


def load_sparse(path) -> SparseOperator:
    """Read a sparse operator from a Matrix Market coordinate file."""
    return SparseOperator(sp.csr_matrix(mmread(path)))
