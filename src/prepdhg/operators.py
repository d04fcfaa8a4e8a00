"""Linear operators used by the saddle-point solvers.

Every operator represents a matrix K acting between flat numpy vectors and
exposes ``apply`` (Kx) and ``apply_adjoint`` (K^T y).  Dense and sparse
wrappers are provided.  The 2D grid divergence, vertical stacking and the
transpose are sparse operators: each assembles its CSR matrix once and
applies it.  The doubly-stochastic (row-sum/column-sum) constraint operator
stays matrix-free, with a closed-form Gram-shift inverse.
"""

from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread

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
        if type(x) is not np.ndarray or x.ndim != 1 or x.dtype != np.float64:
            x = np.asarray(x, dtype=float).ravel()
        if x.size != n:
            raise ValueError(f"{name}: expected length {n}, got {x.size}")
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
        """``r -> (K K^T + shift*I)^{-1} r`` in closed form, or None."""
        return None


class DenseOperator(LinearOperator):
    """K given as a dense 2D array."""

    def __init__(self, A):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.rows, self.cols = self.A.shape

    def apply(self, x):
        return self.A @ self._check_in(x, self.cols, "apply")

    def apply_adjoint(self, y):
        return self.A.T @ self._check_in(y, self.rows, "apply_adjoint")

    def to_dense(self):
        return self.A.copy()


class SparseOperator(LinearOperator):
    """K given as a scipy CSR matrix; ``to_sparse`` returns it, not a copy."""

    def __init__(self, A):
        self.A = sp.csr_matrix(A)
        self.rows, self.cols = self.A.shape
        self._AT = sp.csr_matrix(self.A.T)

    def apply(self, x):
        return self.A @ self._check_in(x, self.cols, "apply")

    def apply_adjoint(self, y):
        return self._AT @ self._check_in(y, self.rows, "apply_adjoint")

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
    in those slots.
    """

    def __init__(self, M: int, N: int, h: float = 1.0):
        if M < 1 or N < 1:
            raise ValueError("grid dimensions must be positive")
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


class BirkhoffConstraint(LinearOperator):
    """Row-sum and column-sum operator for n-by-n matrices, matrix-free.

    Acting on the row-major flattening of X, returns the 2n-vector of row
    sums followed by column sums.  Never materialized: it is rank-deficient
    and only apply/adjoint are needed.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = int(n)
        self.rows = 2 * self.n
        self.cols = self.n * self.n

    def apply(self, x):
        x = self._check_in(x, self.cols, "apply")
        X = x.reshape(self.n, self.n)
        return np.concatenate([X.sum(axis=1), X.sum(axis=0)])

    def apply_adjoint(self, y):
        y = self._check_in(y, self.rows, "apply_adjoint")
        y1, y2 = y[: self.n], y[self.n :]
        return (y1[:, None] + y2[None, :]).ravel()

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
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
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


def load_dense(path) -> DenseOperator:
    """Read a dense operator from whitespace-separated text."""
    return DenseOperator(np.loadtxt(path, ndmin=2))


def load_sparse(path) -> SparseOperator:
    """Read a sparse operator from a Matrix Market coordinate file."""
    return SparseOperator(sp.csr_matrix(mmread(path)))
