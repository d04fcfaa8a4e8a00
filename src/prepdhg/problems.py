"""Builders for the four desk-scale benchmark problems and their oracles.

Each builder assembles a saddle problem, a recommended solver configuration
whose parameters are validated against the convergence condition, and (at
small sizes) an independent reference procedure: support enumeration for the
matrix game, Dykstra projection for the doubly-stochastic projection, and a
polyhedral LP relaxation for the flux/transport problem.
"""

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Optional

import numpy as np
import scipy.optimize as sopt
import scipy.sparse as sp

from .exceptions import ConfigurationError
from .metrics import (BlockDiagMetric, GramShiftMetric, Metric, ScalarMetric,
                      SGSMetric, gram_shift_matrix)
from .operators import (BirkhoffConstraint, DenseOperator, GridDivergence,
                        LinearOperator, SparseOperator, Transpose, VStack,
                        spectral_norm_sq)
from .prox import (GroupL12, IndicatorLinfBall, IndicatorSimplex, Linear,
                   QuadraticShift, QuadraticShiftNonneg, SeparableSum, Zero)
from .solver import (GAMMA_MIN, SaddleProblem, SolverConfig,
                     duality_gap_matrix_game, solve)

LP_DIRECTIONS = 2000  # polygon directions per flux norm in emd_lp_objective


@dataclass
class OracleSolution:
    objective: float
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    extra: dict = field(default_factory=dict)


@dataclass
class ProblemInstance:
    name: str
    saddle: SaddleProblem
    config: SolverConfig
    oracle: Optional[Callable] = None
    objective: Optional[Callable] = None
    meta: dict = field(default_factory=dict)

    def solve(self):
        return solve(self.saddle, self.config)


def oracle_solve(inst: ProblemInstance) -> OracleSolution:
    """Reference solution from the instance's independent procedure."""
    if inst.oracle is None:
        raise ConfigurationError(
            f"no oracle available for {inst.name!r} at this size")
    return inst.oracle()


# ---------------------------------------------------------------------------
# matrix game
# ---------------------------------------------------------------------------

def matrix_game(K, tau_tilde: float, gamma: float, tol: float = 1e-5,
                max_iter: int = 1000000, record_every: int = 1,
                record_gap: bool = False) -> ProblemInstance:
    """min-max over simplices of <Kx, y> with scalar stepsizes.

    tau = tau_tilde/||K|| and sigma = 1/(gamma*tau_tilde*||K||), so the
    stepsize product is tau*sigma*||K||^2 = 1/gamma; any gamma > 3/4 sits
    strictly inside the admissible region (gamma = 1 is the classical
    scalar-step method).
    """
    op = K if isinstance(K, LinearOperator) else DenseOperator(K)
    if gamma <= GAMMA_MIN:
        raise ConfigurationError("matrix game needs gamma > 3/4")
    if tau_tilde <= 0:
        raise ConfigurationError("tau_tilde must be positive")
    est = spectral_norm_sq(op)
    normK = float(np.sqrt(est.value)) if est.value > 0 else 0.0
    if normK == 0.0:
        normK = 1.0  # zero matrix: any stepsizes work
    tau = tau_tilde / normK
    sigma = 1.0 / (gamma * tau_tilde * normK)
    m, n = op.rows, op.cols
    saddle = SaddleProblem(f=IndicatorSimplex(n), gstar=IndicatorSimplex(m),
                           K=op)
    cfg = SolverConfig(
        M1=ScalarMetric(1.0 / tau, n), M2=ScalarMetric(1.0 / sigma, m),
        tol=tol, max_iter=max_iter,
        x0=np.full(n, 1.0 / n), y0=np.full(m, 1.0 / m),
        record_every=record_every,
        gap_fn=(lambda x, y: duality_gap_matrix_game(op, x, y))
        if record_gap else None)
    oracle = None
    if n <= 4 and m <= 4:
        dense = op.to_dense()

        def oracle():
            x, y, v = matrix_game_equilibrium(dense)
            return OracleSolution(objective=v, x=x, y=y)

    return ProblemInstance(
        name="matrix-game", saddle=saddle, config=cfg, oracle=oracle,
        objective=lambda x: float(np.max(op.apply(x))),
        meta={"tau": tau, "sigma": sigma, "gamma": gamma,
              "tau_tilde": tau_tilde, "normK": normK})


def matrix_game_equilibrium(K):
    """Equilibrium of the zero-sum game by support enumeration (n, m <= 4)."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    m, n = K.shape
    if m > 4 or n > 4:
        raise ConfigurationError("support enumeration limited to 4x4 games")
    tol = 1e-9
    for k in range(1, min(m, n) + 1):
        for Sx in combinations(range(n), k):
            for Sy in combinations(range(m), k):
                B = K[np.ix_(Sy, Sx)]
                A = np.zeros((k + 1, k + 1))
                A[:k, :k] = B
                A[:k, k] = -1.0
                A[k, :k] = 1.0
                rhs = np.zeros(k + 1)
                rhs[k] = 1.0
                try:
                    solx = np.linalg.solve(A, rhs)
                    A[:k, :k] = B.T
                    soly = np.linalg.solve(A, rhs)
                except np.linalg.LinAlgError:
                    continue
                xs, v = solx[:k], solx[k]
                ys, w = soly[:k], soly[k]
                if abs(v - w) > tol:
                    continue
                if np.any(xs < -tol) or np.any(ys < -tol):
                    continue
                x = np.zeros(n)
                y = np.zeros(m)
                x[list(Sx)] = np.maximum(xs, 0.0)
                y[list(Sy)] = np.maximum(ys, 0.0)
                x /= x.sum()
                y /= y.sum()
                if np.any(K @ x > v + tol):
                    continue
                if np.any(K.T @ y < v - tol):
                    continue
                return x, y, float(v)
    raise RuntimeError("no equilibrium found; the game should always have one")


def game_matrix(test: int, seed: int, m: int = None, n: int = None,
                centered: bool = False):
    """Seeded generators mirroring the four benchmark recipes.

    1: uniform entries (default 100x100); 2: standard normal (100x100);
    3: normal scaled by 10 (500x100); 4: sparse uniform, density 0.1
    (1000x2000).  ``centered`` shifts the uniform recipe to [-1, 1]; the
    one-sided uniform game is dominated by its rank-one mean and converges an
    order of magnitude slower, which swamps desk-scale speedup comparisons.
    """
    rng = np.random.default_rng(seed)
    if test == 1:
        m, n = m or 100, n or 100
        A = rng.random((m, n))
        return DenseOperator(2.0 * A - 1.0 if centered else A)
    if test == 2:
        m, n = m or 100, n or 100
        return DenseOperator(rng.standard_normal((m, n)))
    if test == 3:
        m, n = m or 500, n or 100
        return DenseOperator(10.0 * rng.standard_normal((m, n)))
    if test == 4:
        m, n = m or 1000, n or 2000
        A = sp.random(m, n, density=0.1, random_state=rng,
                      data_rvs=rng.random, format="csr")
        return SparseOperator(A)
    raise ConfigurationError(f"unknown test id {test}")


# ---------------------------------------------------------------------------
# projection onto the doubly-stochastic polytope
# ---------------------------------------------------------------------------

def birkhoff_projection(C, tau: float, gamma: float, theta: float = 1e-4,
                        method: str = "ebalm", tol: float = 1e-8,
                        max_iter: int = 1000000, record_every: int = 1,
                        override: bool = False) -> ProblemInstance:
    """Project C onto the doubly-stochastic matrices.

    f is the shifted quadratic plus nonnegativity (unit strong convexity),
    the constraint operator collects row and column sums, and the dual metric
    is either the Gram shift with its closed-form inverse ("ebalm") or a
    scalar ("pdhg" with sigma = 1/(2*n*gamma*tau)).  The strong-convexity
    term relaxes the gamma bound to 0.75/(1 + tau/2).
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = C.shape[0]
    if C.shape != (n, n):
        raise ConfigurationError("C must be square")
    if tau <= 0 or theta <= 0:
        raise ConfigurationError("tau and theta must be positive")
    bound = GAMMA_MIN / (1.0 + tau / 2.0)
    K = BirkhoffConstraint(n)
    f = QuadraticShiftNonneg(C.ravel())
    b = np.ones(2 * n)
    M1 = ScalarMetric(1.0 / tau, n * n)
    if method == "ebalm":
        if gamma < bound - 1e-12 and not override:
            raise ConfigurationError(
                f"gamma = {gamma} below 0.75/(1 + tau/2) = {bound:.6f}")
        M2 = GramShiftMetric(gamma, tau, K, theta=gamma * tau * theta)
    elif method == "pdhg":
        if gamma <= bound - 1e-15 and not override:
            raise ConfigurationError(
                f"gamma = {gamma} must exceed 0.75/(1 + tau/2) = {bound:.6f}")
        sigma = 1.0 / (2.0 * n * gamma * tau)
        M2 = ScalarMetric(1.0 / sigma, 2 * n)
    else:
        raise ConfigurationError(f"unknown method {method!r}")
    saddle = SaddleProblem(f=f, gstar=Linear(b), K=K)
    cfg = SolverConfig(M1=M1, M2=M2, tol=tol, max_iter=max_iter,
                       override=override, x0=np.full(n * n, 1.0 / n),
                       y0=np.zeros(2 * n), record_every=record_every)
    oracle = None
    if n <= 8:
        def oracle():
            X = project_birkhoff_dykstra(C)
            return OracleSolution(objective=0.5 * float(np.sum((X - C) ** 2)),
                                  x=X.ravel())

    return ProblemInstance(
        name="birkhoff", saddle=saddle, config=cfg, oracle=oracle,
        objective=lambda x: 0.5 * float(np.sum((x - C.ravel()) ** 2)),
        meta={"n": n, "tau": tau, "gamma": gamma, "theta": theta,
              "method": method, "gamma_bound": bound})


def project_birkhoff_dykstra(C, max_iter: int = 50000, tol: float = 1e-13):
    """Exact projection onto the doubly-stochastic matrices by Dykstra's
    alternating projections between the sum-constraint affine set and the
    nonnegative cone."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = C.shape[0]

    def proj_affine(X):
        r = 1.0 - X.sum(axis=1)
        c = 1.0 - X.sum(axis=0)
        s = r.sum()
        mu = (r - s / (2.0 * n)) / n
        nu = (c - s / (2.0 * n)) / n
        return X + mu[:, None] + nu[None, :]

    X = C.copy()
    P = np.zeros_like(X)
    Q = np.zeros_like(X)
    for _ in range(max_iter):
        Y = proj_affine(X + P)
        P = X + P - Y
        Xn = np.maximum(Y + Q, 0.0)
        Q = Y + Q - Xn
        if np.max(np.abs(Xn - X)) <= tol and \
                max(np.max(np.abs(Xn.sum(0) - 1)), np.max(np.abs(Xn.sum(1) - 1))) <= 1e-12:
            return Xn
        X = Xn
    return X


# ---------------------------------------------------------------------------
# earth mover's distance (flux formulation on a grid)
# ---------------------------------------------------------------------------

def red_black_partition(M: int, N: int):
    """Two-coloring of grid nodes; neighbors always get opposite colors."""
    idx = np.arange(M * N).reshape(M, N)
    parity = (np.add.outer(np.arange(M), np.arange(N)) % 2).astype(bool)
    blocks = [idx[~parity].ravel(), idx[parity].ravel()]
    return [b for b in blocks if b.size > 0]


class TwoEpochGramSolve(Metric):
    """Dual metric whose solve is a fixed number of Gauss-Seidel epochs.

    Applies gamma*Mhat exactly, with Mhat = ``gram_shift_matrix(K, tau,
    theta)``, but ``solve`` only runs ``epochs`` block sweeps over Mhat on the
    node coloring, which is the inexact variant whose convergence carries no
    guarantee; configurations built on it run with the condition check
    overridden.

    The CSR row slice of Mhat for each block is built once at construction,
    so a block update multiplies only that block's rows; the slices cost one
    more copy of the nonzeros of Mhat.
    """

    def __init__(self, gamma, tau, K: GridDivergence, theta, blocks,
                 epochs: int = 2):
        self.gamma, self.tau, self.theta = float(gamma), float(tau), float(theta)
        self.dim = K.rows
        self.Mhat = gram_shift_matrix(K, self.tau, self.theta)
        self.diag = self.Mhat.diagonal()
        if np.any(self.diag <= 0):
            raise ConfigurationError("Gauss-Seidel needs positive diagonal; "
                                     "increase theta")
        self.blocks = blocks
        self.epochs = int(epochs)
        if self.epochs < 1:
            raise ConfigurationError("Gauss-Seidel needs at least one epoch")
        self._sweep = [(blk, self.diag[blk], self.Mhat[blk, :]) for blk in blocks]

    def apply(self, z):
        return self.gamma * (self.Mhat @ self._check(z))

    def solve(self, r):
        r = self._check(r)
        delta = np.zeros_like(r)
        for _ in range(self.epochs):
            for blk, dg, rows in self._sweep:
                delta[blk] = (r[blk] - rows @ delta + dg * delta[blk]) / dg
        return delta / self.gamma


def emd(rho0, rho1, h: float, tau: float, gamma: float, theta: float = 1e-6,
        method: str = "sgs", tol: float = 5e-5, max_iter: int = 200000,
        record_every: int = 1, bcd_epochs: int = 2,
        override: bool = False) -> ProblemInstance:
    """Minimal total flux moving mass rho0 onto rho1 on an M-by-N grid.

    The flux magnitude sum ||m||_{1,2} is minimized subject to
    div(m) = rho0 - rho1.  ``method`` picks the dual metric: "sgs" runs the
    convergent symmetric Gauss-Seidel sweep over the red-black node coloring
    (gamma >= 3/4, and theta > 0 at the boundary: with theta = 0 the sweep
    metric puts the condition value exactly at 1/gamma); "iebalm" runs the
    inexact variant with ``bcd_epochs`` plain sweeps, which has no
    convergence guarantee, so its condition check is overridden.
    """
    rho0 = np.atleast_2d(np.asarray(rho0, dtype=float))
    rho1 = np.atleast_2d(np.asarray(rho1, dtype=float))
    if rho0.shape != rho1.shape:
        raise ConfigurationError("mass grids must share a shape")
    M, N = rho0.shape
    if M * N < 2:
        raise ConfigurationError("grid must have at least two nodes")
    if abs(rho0.sum() - rho1.sum()) > 1e-12 * max(1.0, rho0.sum()):
        raise ConfigurationError("total masses must balance")
    if tau <= 0 or theta < 0:
        raise ConfigurationError("need tau > 0 and theta >= 0")
    K = GridDivergence(M, N, h)
    f = GroupL12(M, N)
    b = (rho0 - rho1).ravel()
    partition = red_black_partition(M, N)
    if method == "sgs":
        if gamma < GAMMA_MIN - 1e-15 and not override:
            raise ConfigurationError(
                f"gamma = {gamma} below the 3/4 bound for the sGS sweep")
        if theta == 0.0 and gamma <= GAMMA_MIN + 1e-12 and not override:
            raise ConfigurationError(
                "theta = 0 at gamma = 3/4 sits on the condition boundary; "
                "use theta > 0")
        M2 = SGSMetric(gram_shift_matrix(K, gamma * tau, theta), partition)
    elif method == "iebalm":
        M2 = TwoEpochGramSolve(gamma, tau, K, theta, partition,
                               epochs=bcd_epochs)
        override = True  # convergence unknown; condition check not meaningful
    else:
        raise ConfigurationError(f"unknown method {method!r}")
    nb = float(np.linalg.norm(b))
    saddle = SaddleProblem(f=f, gstar=Linear(b), K=K)
    cfg = SolverConfig(M1=ScalarMetric(1.0 / tau, K.cols), M2=M2, tol=tol,
                       max_iter=max_iter, feas_scale=nb if nb > 0 else 1.0,
                       record_every=record_every, override=override)
    oracle = None
    if M <= 4 and N <= 4:
        def oracle():
            return OracleSolution(objective=emd_lp_objective(rho0, rho1, h))

    return ProblemInstance(
        name="emd", saddle=saddle, config=cfg, oracle=oracle,
        objective=f,
        meta={"M": M, "N": N, "h": h, "tau": tau, "gamma": gamma,
              "theta": theta, "method": method, "norm_b": nb})


def emd_lp_objective(rho0, rho1, h: float) -> float:
    """LP lower-bound oracle for the minimal-flux objective.

    The Euclidean norm of each flux pair is replaced by the maximum of
    ``LP_DIRECTIONS`` directional projections (an inscribed polygon), giving
    an LP solvable by HiGHS whose optimum underestimates the true value by at
    most a factor 1 - cos(pi/LP_DIRECTIONS) ~ 1.2e-6.
    """
    rho0 = np.atleast_2d(np.asarray(rho0, dtype=float))
    rho1 = np.atleast_2d(np.asarray(rho1, dtype=float))
    M, N = rho0.shape
    mn = M * N
    div = GridDivergence(M, N, h)
    A_eq = sp.hstack([div.to_sparse(), sp.csr_matrix((mn, mn))]).tocsr()
    b_eq = (rho0 - rho1).ravel()
    angles = np.linspace(0.0, 2.0 * np.pi, LP_DIRECTIONS, endpoint=False)
    eye = sp.eye(mn, format="csr")
    rows = []
    for ang in angles:
        rows.append(sp.hstack([np.cos(ang) * eye, np.sin(ang) * eye, -eye]))
    A_ub = sp.vstack(rows).tocsr()
    b_ub = np.zeros(A_ub.shape[0])
    c = np.concatenate([np.zeros(2 * mn), np.ones(mn)])
    bounds = [(None, None)] * (2 * mn) + [(0, None)] * mn
    mask = div.boundary_mask()
    for j in np.nonzero(mask)[0]:
        bounds[j] = (0.0, 0.0)
    res = sopt.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                       bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun)


def random_balanced_grids(M: int, N: int, seed: int):
    """Pair of nonnegative unit-mass grids from a seeded generator."""
    rng = np.random.default_rng(seed)
    a = rng.random((M, N))
    b = rng.random((M, N))
    return a / a.sum(), b / b.sum()


# ---------------------------------------------------------------------------
# total-variation regularized least squares
# ---------------------------------------------------------------------------

def tv_least_squares(R, b, lam: float, grid, tau: float, gamma: float,
                     theta: float = 1e-3, tol: float = 5e-6,
                     max_iter: int = 1000000, record_every: int = 1,
                     bcd_epochs: int = 2,
                     override: bool = False) -> ProblemInstance:
    """min_x 1/2 ||Rx - b||^2 + lam * ||D x||_1 on an M-by-N pixel grid.

    Everything moves to the dual: f = 0, the dual splits into the data block
    (closed-form update with sigma = 1/(tau ||R||^2)) and the gradient block
    (box-constrained quadratic handled by a fixed number of coordinate
    descent epochs over the Gram matrix of the gradient).  gamma >= 3/4
    scales the primal metric (2*gamma/tau) I.
    """
    M, N = grid
    n = M * N
    Rop = R if isinstance(R, LinearOperator) else SparseOperator(sp.csr_matrix(R))
    if Rop.cols != n:
        raise ConfigurationError("R columns must equal the number of pixels")
    b = np.asarray(b, dtype=float).ravel()
    if b.size != Rop.rows:
        raise ConfigurationError("b length must equal R rows")
    if lam <= 0 or tau <= 0 or theta <= 0:
        raise ConfigurationError("lam, tau, theta must be positive")
    if gamma < GAMMA_MIN - 1e-15 and not override:
        raise ConfigurationError(f"gamma = {gamma} below the 3/4 bound")
    D = Transpose(GridDivergence(M, N, 1.0))
    K = VStack([Rop, D])
    normR_sq = spectral_norm_sq(Rop).value
    if normR_sq <= 0:
        raise ConfigurationError("R must be nonzero")
    sigma = 1.0 / (tau * normR_sq)
    m1 = Rop.rows
    gstar = SeparableSum([QuadraticShift(-b),
                          IndicatorLinfBall(2 * n, lam, bcd_epochs)])
    M1 = ScalarMetric(2.0 * gamma / tau, n)
    M2 = BlockDiagMetric([ScalarMetric(1.0 / sigma, m1),
                          GramShiftMetric(1.0, tau, D, theta=theta)])
    saddle = SaddleProblem(f=Zero(n), gstar=gstar, K=K)

    def kkt_residual(x, y, Kx, Kty):
        # Kx stacks Rx over Dx, so the products come from the solver's loop
        y1, y2 = y[:m1], y[m1:]
        t1 = np.linalg.norm(Kty)
        t2 = np.linalg.norm(Kx[:m1] - y1 - b)
        Dx = Kx[m1:]
        btol = 1e-12 * lam
        hi = y2 >= lam - btol
        lo = y2 <= -lam + btol
        dist = np.where(hi, np.maximum(0.0, -Dx),
                        np.where(lo, np.maximum(0.0, Dx), np.abs(Dx)))
        t3 = np.linalg.norm(dist)
        return max(float(t1), float(t2), float(t3))

    cfg = SolverConfig(M1=M1, M2=M2, tol=tol, max_iter=max_iter,
                       custom_residual=kkt_residual, record_every=record_every,
                       override=override)

    def objective(x):
        return 0.5 * float(np.sum((Rop.apply(x) - b) ** 2)) \
            + lam * float(np.sum(np.abs(D.apply(x))))

    return ProblemInstance(
        name="tvls", saddle=saddle, config=cfg, oracle=None,
        objective=objective,
        meta={"M": M, "N": N, "lam": lam, "tau": tau, "gamma": gamma,
              "theta": theta, "sigma": sigma, "normR_sq": normR_sq,
              "kkt_residual": kkt_residual})


def random_sparse_system(m: int, n: int, density: float, seed: int):
    """Seeded nonnegative sparse matrix, the desk-scale measurement stand-in."""
    rng = np.random.default_rng(seed)
    A = sp.random(m, n, density=density, random_state=rng,
                  data_rvs=rng.random, format="csr")
    return SparseOperator(A)


def load_grid(path) -> np.ndarray:
    """Read a 2D grid from .npy binary or whitespace text."""
    path = str(path)
    if path.endswith(".npy"):
        return np.atleast_2d(np.load(path))
    return np.atleast_2d(np.loadtxt(path))
