"""Preconditioned primal-dual hybrid gradient iteration.

One step solves two metric proximal subproblems with primal extrapolation
factor 2, both of the form argmin_z h(z) + <q, z> + 1/2 ||z - w||_M^2:

    x+ = argmin_x f(x) + <Kx, y>  + 1/2 ||x - x_k||_M1^2
    y+ = argmin_y g*(y) - <K(2 x+ - x_k), y> + 1/2 ||y - y_k||_M2^2

Each side's update is ``h.step(M)`` of its catalog entry, built once per
solve; it returns z and M (z - w) (see ``prepdhg.prox``).

One stopping rule, worked out once per solve from what it is given: the
problem's own KKT residual when ``custom_residual`` is set; otherwise, when
g* = <b, .> is linear, the compact bound max(||M1 dx||, ||Kx+ - b||);
otherwise the full bound.  Both bounds are computable upper bounds of the
KKT residual built from consecutive iterates (``_residual_bounds``), and
every recorded history row carries them.

One loop, over row blocks: ``solve_batch`` iterates a (B, n) block, one
row per config of one problem, and ``solve`` is its one-row case.  Under
diagonal metrics every part of a step, both bounds and both stopping tests
act on each row on its own, by the arithmetic of that row alone, so a row
of a block reproduces its serial solve bit for bit.
Configuration helpers cover the balanced augmented-Lagrangian specializations
(dual metric gamma*tau*K*K^T + theta*I, optionally realized through one
symmetric Gauss-Seidel block sweep).
"""

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .exceptions import ConfigurationError
from .metrics import (GramShiftMetric, Metric, ScalarMetric, SGSMetric,
                      check_condition, gram_shift_matrix)
# solver uses no BoxQuadBCD itself; perfbench/trace.py finds it here to wrap
from .metrics import BoxQuadBCD  # noqa: F401
from .operators import LinearOperator
from .prox import Linear, Proximable, project_simplex

GAMMA_MIN = 0.75

#: an iterate entry larger than this in magnitude stops a run as diverged
BLOWUP = 1e12
_BLOWUP_SQ = BLOWUP * BLOWUP

#: tolerance and iteration budget of the condition check ``solve`` runs
CHECK_TOL = 1e-10
CHECK_MAX_ITER = 500


@dataclass
class SaddleProblem:
    """The triple (f, g*, K) of the min-max problem."""

    f: Proximable
    gstar: Proximable
    K: LinearOperator

    def __post_init__(self):
        if self.f.dim != self.K.cols:
            raise ConfigurationError("f dimension does not match K columns")
        if self.gstar.dim != self.K.rows:
            raise ConfigurationError("g* dimension does not match K rows")


@dataclass
class SolverConfig:
    """Metrics, tolerances and bookkeeping for one solve."""

    M1: Metric
    M2: Metric
    tol: float = 1e-8
    max_iter: int = 100000
    x0: Optional[np.ndarray] = None
    y0: Optional[np.ndarray] = None
    record_every: int = 1
    override: bool = False
    feas_scale: float = 1.0
    gap_fn: Optional[Callable] = None
    #: the problem's own KKT residual, ``(x, y, Kx, K^T y) -> float`` at the
    #: new iterates; when set, the solve stops on it instead of a bound
    custom_residual: Optional[Callable] = None

    def __post_init__(self):
        if not self.tol >= 0:  # NaN would never stop the loop
            raise ConfigurationError("tol must be nonnegative")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be positive")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be positive")
        if not 0 < self.feas_scale < math.inf:
            raise ConfigurationError("feas_scale must be positive and finite")


class HistoryRow(NamedTuple):
    k: int
    rhat_full: float
    rhat_half: float
    gap: float
    #: loop wall time charged to this solve so far.  A solve of one config
    #: is charged all of it, so this is the time since its loop started; in
    #: a block of several, each stretch of loop time is split evenly among
    #: the rows live in it, so the rows' final values add up to the loop time
    elapsed_s: float


@dataclass
class SolveReport:
    status: str  # converged | max-iter | diverged
    iters: int
    history: list
    x_final: np.ndarray
    y_final: np.ndarray
    stop_residual: float = np.nan
    condition: object = None


class _Engine:
    """Validated step executor for a block of configs of one problem.

    Iterates are row blocks, one row per config: x of shape (B, K.cols) and
    y of shape (B, K.rows).  ``xup`` and ``yup`` are the two
    ``Proximable.step`` updates on such blocks, and ``b`` is the linear term
    of g* (None unless g* is linear).  One config may take any metric pair
    its entries have a step for; a block of several needs diagonal metrics,
    under which each row is updated on its own, by the arithmetic of the
    single-row step.
    """

    def __init__(self, p: SaddleProblem, cfgs):
        self.p, self.K = p, p.K
        for cfg in cfgs:
            if cfg.M1.dim != p.K.cols or cfg.M2.dim != p.K.rows:
                raise ConfigurationError("metric dimensions do not match K")
        self.cfgs = cfgs
        self.keep(range(len(cfgs)))
        self.b = p.gstar.linear_term()

    def keep(self, rows):
        """Narrow the block to the configs at positions ``rows`` and build
        the updates of what is left."""
        cfgs = self.cfgs = [self.cfgs[i] for i in rows]
        f, gstar = self.p.f, self.p.gstar
        if len(cfgs) == 1:  # the single-row step, which costs less
            self.xup = _one_row(f.step(cfgs[0].M1))
            self.yup = _one_row(gstar.step(cfgs[0].M2))
        else:
            self.xup = f.prox_step(_row_weights([cfg.M1 for cfg in cfgs]))
            self.yup = gstar.prox_step(_row_weights([cfg.M2 for cfg in cfgs]))

    def step(self, x, y, Kx=None, Kty=None):
        """``(x+, y+, K x+, M1 (x+ - x), M2 (y+ - y))``."""
        K = self.K
        if Kx is None:
            Kx = K.apply(x)
        if Kty is None:
            Kty = K.apply_adjoint(y)
        x_new, m1dx = self.xup(x, Kty)
        Kx_new = K.apply(x_new)
        y_new, m2dy = self.yup(y, Kx - 2.0 * Kx_new)
        return x_new, y_new, Kx_new, m1dx, m2dy


def _one_row(step):
    """A one-row block's update from the vector update ``step``."""
    def one_row(w, q):
        z, mdz = step(w[0], q[0])
        return z[None], mdz[None]
    return one_row


def _row_weights(metrics):
    """The (B, dim) block of the metrics' diagonals."""
    for M in metrics:
        if M.diagonal() is None:
            raise ConfigurationError(
                f"a block of several configs needs diagonal metrics, "
                f"not {type(M).__name__}")
    return np.stack([M.diagonal() for M in metrics])


def prepdhg_step(p: SaddleProblem, cfg: SolverConfig, x, y):
    """One iteration of the preconditioned primal-dual update."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    x_new, y_new = _Engine(p, [cfg]).step(x[None], y[None])[:2]
    return x_new[0], y_new[0]


def _nrm(v):
    """The Euclidean norm of each row of a block."""
    return np.sqrt(np.vecdot(v, v))


def _larger(a, b):
    """a where a > b, else b: the entrywise maximum that keeps b when a is
    NaN, like ``a if a > b else b``."""
    return np.where(a > b, a, b)


def _residual_bounds(b, feas_scale):
    """The stopping bound and the two recorded bounds, picked once per solve.

    Returns ``bounds(Kx, Kx_new, Kty, Kty_new, m1dx, m2dy, prev, record)``
    giving ``(stop, recorded)``, one entry per row of a block, where
    ``recorded`` is ``(rhat_full, rhat_half)`` when ``record`` is set and
    None otherwise.  rhat_full and rhat_half are upper bounds of the KKT
    residual at (x+, y+) and at (x+, y), built from K x, K x+, K^T y,
    K^T y+, ``m1dx = M1 (x+ - x)``, ``m2dy = M2 (y+ - y)`` and ``prev =
    (K x_prev, M2 (y - y_prev))`` of the step before (None on the first
    step); ``feas_scale`` holds one scale per row.  For linear g* = <b, .>
    the dual part of both bounds is ``||K x+ - b|| / feas_scale`` and the
    solve stops on rhat_half (the compact bound); otherwise it stops on
    rhat_full, and rhat_half is nan on the first step.
    """
    if b is not None:
        def compact(Kx, Kx_new, Kty, Kty_new, m1dx, m2dy, prev, record):
            feas = _nrm(Kx_new - b) / feas_scale
            rhat_half = _larger(_nrm(m1dx), feas)
            if not record:
                return rhat_half, None
            part_x = _nrm((Kty_new - Kty) - m1dx)
            return rhat_half, (_larger(part_x, feas), rhat_half)
        return compact

    def full(Kx, Kx_new, Kty, Kty_new, m1dx, m2dy, prev, record):
        rhat_full = _larger(_nrm((Kty_new - Kty) - m1dx),
                            _nrm(Kx_new - Kx - m2dy))
        if not record:
            return rhat_full, None
        if prev is None:
            rhat_half = np.full(rhat_full.shape, np.nan)
        else:
            Kx_prev, m2dy_prev = prev
            t = (Kx - Kx_prev) + (Kx - Kx_new) - m2dy_prev
            rhat_half = _larger(_nrm(t), _nrm(m1dx))
        return rhat_full, (rhat_full, rhat_half)
    return full


def _checked_condition(p: SaddleProblem, cfg: SolverConfig):
    report = check_condition(cfg.M1, p.f.sigma, cfg.M2, p.K,
                             tol=CHECK_TOL, max_iter=CHECK_MAX_ITER)
    if not report.passed:
        raise ConfigurationError(
            f"metric pair fails the convergence condition "
            f"(s_hat = {report.s_hat:.6f} >= 4/3); "
            f"set override to run anyway")
    return report


def _start(v0, n):
    return np.zeros(n) if v0 is None else np.asarray(v0, dtype=float).ravel()


def solve(p: SaddleProblem, cfg: SolverConfig) -> SolveReport:
    """Run the iteration until the stopping residual meets tol.

    The stopping residual is ``cfg.custom_residual`` when set, else the
    compact bound when g* is linear, else the full bound.  Divergence (an
    iterate entry past ``BLOWUP`` in magnitude, or any non-finite entry) is
    reported as a status, not an error, so counter-example runs terminate
    cleanly.  This is ``solve_batch`` of the one config.
    """
    return solve_batch(p, [cfg])[0]


def solve_batch(p: SaddleProblem, cfgs) -> list:
    """Solve several configs of one problem as one row block.

    Returns one ``SolveReport`` per config, in order, each equal bit for bit
    to ``solve(p, cfg)`` apart from the ``elapsed_s`` of its history (see
    ``HistoryRow``): the block runs every row's arithmetic on its own, with
    one matrix-vector product per row.  A row that stops (converged,
    diverged or at its own ``max_iter``) leaves the block with its status,
    iteration count, history and final iterates.  A block of more than one
    config is refused at set-up when a metric is not diagonal, when the
    simplex weights of a row are not uniform, or when a config has a
    ``custom_residual``.
    """
    cfgs = list(cfgs)
    if not cfgs:
        return []
    if len(cfgs) > 1 and any(c.custom_residual is not None for c in cfgs):
        raise ConfigurationError(
            "a block of several configs takes no custom_residual")
    eng = _Engine(p, cfgs)
    conditions = [None if cfg.override else _checked_condition(p, cfg)
                  for cfg in cfgs]

    K = p.K
    x = np.stack([_start(cfg.x0, K.cols) for cfg in cfgs])
    y = np.stack([_start(cfg.y0, K.rows) for cfg in cfgs])
    Kx = K.apply(x)
    Kty = K.apply_adjoint(y)

    def per_row(name):
        return np.array([getattr(cfg, name) for cfg in cfgs])

    # live-row state; ``rows`` maps each live row to its config
    rows = np.arange(len(cfgs))
    tol, every, last = per_row("tol"), per_row("record_every"), \
        per_row("max_iter")
    feas_scale = per_row("feas_scale")
    gap_fns = [cfg.gap_fn for cfg in cfgs]
    histories = [[] for _ in cfgs]
    reports = [None] * len(cfgs)
    charged = np.zeros(len(cfgs))  # loop seconds charged to each config

    prev = None
    step, Kadj = eng.step, K.apply_adjoint
    bounds = _residual_bounds(eng.b, feas_scale)
    custom = cfgs[0].custom_residual
    next_rec = int(np.minimum(every, last).min())
    k = 0
    t_last = time.perf_counter()
    while True:
        k += 1
        x_new, y_new, Kx_new, m1dx, m2dy = step(x, y, Kx, Kty)
        Kty_new = Kadj(y_new)
        rec = k == next_rec  # some row records this step
        if custom is None:
            stop_res, rhat = bounds(Kx, Kx_new, Kty, Kty_new, m1dx, m2dy,
                                    prev, rec)
        else:  # the bounds are only recorded: work them out on recorded rows
            rhat = None
            stop_res = np.array([float(custom(x_new[0], y_new[0],
                                              Kx_new[0], Kty_new[0]))])

        done = stop_res <= tol
        # an entry past BLOWUP, or a NaN or inf one, leaves a sum of squares
        # of at least BLOWUP**2 (or NaN), and ``vdot`` warns of no overflow;
        # only then does the exact per-row test run
        if rec or done.any() or not (np.vdot(x_new, x_new) < _BLOWUP_SQ
                                     and np.vdot(y_new, y_new) < _BLOWUP_SQ):
            blown = ~(np.maximum(np.abs(x_new).max(axis=1),
                                 np.abs(y_new).max(axis=1)) <= BLOWUP)
            leave = done | blown | (k == last)
            show = leave | (k % every == 0) if rec else leave
            if rhat is None:  # a custom residual, or a stop between records
                rhat = bounds(Kx, Kx_new, Kty, Kty_new, m1dx, m2dy, prev,
                              True)[1]
            rhat_full, rhat_half = rhat
            now = time.perf_counter()
            charged[rows] += (now - t_last) / rows.size
            t_last = now
            for i in np.flatnonzero(show):
                j = rows[i]
                gap = (gap_fns[j](x_new[i], y_new[i])
                       if gap_fns[j] is not None else np.nan)
                histories[j].append(HistoryRow(
                    k, float(rhat_full[i]), float(rhat_half[i]), gap,
                    float(charged[j])))
            for i in np.flatnonzero(leave):
                j = rows[i]
                status = ("converged" if done[i] else
                          "diverged" if blown[i] else "max-iter")
                reports[j] = SolveReport(
                    status=status, iters=k, history=histories[j],
                    x_final=x_new[i].copy(), y_final=y_new[i].copy(),
                    stop_residual=float(stop_res[i]),
                    condition=conditions[j])
            if leave.any():
                next_rec = None
                stay = np.flatnonzero(~leave)
                if not stay.size:
                    return reports
                rows, tol, every, last, feas_scale = (
                    a[stay] for a in (rows, tol, every, last, feas_scale))
                x_new, y_new, Kx_new, Kty_new, Kx, m2dy = (
                    a[stay] for a in (x_new, y_new, Kx_new, Kty_new, Kx, m2dy))
                eng.keep(stay)
                bounds = _residual_bounds(eng.b, feas_scale)
            if rec or next_rec is None:
                next_rec = int(np.minimum((k // every + 1) * every,
                                          last).min())
        prev = (Kx, m2dy)
        x, y, Kx, Kty = x_new, y_new, Kx_new, Kty_new


def duality_gap_matrix_game(K: LinearOperator, x, y) -> float:
    """max_i (Kx)_i - min_j (K^T y)_j for simplex-feasible x, y."""
    x = project_simplex(np.asarray(x, dtype=float).ravel())
    y = project_simplex(np.asarray(y, dtype=float).ravel())
    return float(np.max(K.apply(x)) - np.min(K.apply_adjoint(y)))


@dataclass
class SublinearDiagnostic:
    table: np.ndarray  # columns (t, sqrt(t) * running-min residual)
    flagged: bool


def sublinear_diagnostic(history) -> SublinearDiagnostic:
    """Scaled running-minimum residual curve sqrt(t) * min_{k<=t} rhat_k.

    Converged runs should see this curve flatten or decay; the flag is
    raised when the final value exceeds 1.2x the value at a quarter of the
    horizon, which is inconsistent with the expected o(1/sqrt(t)) decay.
    """
    rows = list(history)
    if not rows:
        raise ValueError("history is empty")
    arr = np.asarray(rows, dtype=float)
    ks, rh = arr[:, 0], arr[:, 1]
    runmin = np.minimum.accumulate(rh)
    scaled = np.sqrt(ks) * runmin
    quarter = ks[-1] / 4.0
    iq = int(np.searchsorted(ks, quarter, side="right")) - 1
    iq = max(iq, 0)
    flagged = bool(scaled[-1] > 1.2 * scaled[iq])
    return SublinearDiagnostic(table=np.column_stack([ks, scaled]), flagged=flagged)


def configure_ebalm(f: Proximable, K: LinearOperator, b, tau: float,
                    theta: float, gamma: float, tol: float = 1e-8,
                    max_iter: int = 100000, override: bool = False):
    """Balanced augmented-Lagrangian configuration for min f(x) s.t. Kx = b.

    M1 = (1/tau) I and M2 = gamma * (tau K K^T + theta I), so the dual update
    realizes  y+ = y + gamma^{-1} (tau K K^T + theta I)^{-1} (K(2x+ - x) - b).
    gamma = 1 recovers the balanced ALM; any gamma >= 3/4 is admissible.
    """
    if gamma < GAMMA_MIN and not override:
        raise ConfigurationError(
            f"gamma = {gamma} below the 3/4 bound; set override to force")
    if theta <= 0:
        raise ConfigurationError("theta must be positive")
    b = np.asarray(b, dtype=float).ravel()
    problem = SaddleProblem(f=f, gstar=Linear(b), K=K)
    M1 = ScalarMetric(1.0 / tau, K.cols)
    M2 = GramShiftMetric(gamma, tau, K, theta=gamma * theta)
    cfg = SolverConfig(M1=M1, M2=M2, tol=tol, max_iter=max_iter,
                       override=override)
    return problem, cfg


def configure_ebalm_sgs(f: Proximable, K: LinearOperator, b, tau: float,
                        theta: float, gamma: float, partition,
                        tol: float = 1e-8, max_iter: int = 100000,
                        override: bool = False):
    """Balanced ALM with one symmetric Gauss-Seidel block sweep per dual step.

    The sweep over the block partition of Q = gamma*tau*K*K^T + theta*I is an
    exact solve with Q + U D^{-1} U^T, so the method is the same iteration
    with that implied dual metric.  Requires a nonzero off-diagonal part; use
    ``configure_ebalm`` when the partition decouples.
    """
    if gamma < GAMMA_MIN and not override:
        raise ConfigurationError(
            f"gamma = {gamma} below the 3/4 bound; set override to force")
    if theta < 0:
        raise ConfigurationError("theta must be nonnegative")
    b = np.asarray(b, dtype=float).ravel()
    M2 = SGSMetric(gram_shift_matrix(K, gamma * tau, theta), partition)
    if M2.U.nnz == 0 or abs(M2.U).max() == 0.0:
        raise ConfigurationError(
            "partition has no off-diagonal coupling; use configure_ebalm")
    problem = SaddleProblem(f=f, gstar=Linear(b), K=K)
    M1 = ScalarMetric(1.0 / tau, K.cols)
    cfg = SolverConfig(M1=M1, M2=M2, tol=tol, max_iter=max_iter,
                       override=override)
    return problem, cfg
