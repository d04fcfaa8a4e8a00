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
    """Validated step executor for one (problem, config) pair.

    ``xup`` and ``yup`` are the two ``Proximable.step`` updates, and ``b`` is
    the linear term of g* (None unless g* is linear).
    """

    def __init__(self, p: SaddleProblem, cfg: SolverConfig):
        self.K = p.K
        M1, M2 = cfg.M1, cfg.M2
        if M1.dim != p.K.cols or M2.dim != p.K.rows:
            raise ConfigurationError("metric dimensions do not match K")
        self.xup = p.f.step(M1)
        self.yup = p.gstar.step(M2)
        self.b = p.gstar.b if isinstance(p.gstar, Linear) else None

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


def prepdhg_step(p: SaddleProblem, cfg: SolverConfig, x, y):
    """One iteration of the preconditioned primal-dual update."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    return _Engine(p, cfg).step(x, y)[:2]


def _nrm(v) -> float:
    return math.sqrt(v @ v)


def _residual_bounds(b, feas_scale: float):
    """The two recorded KKT residual bounds, picked once per solve from g*.

    Returns ``bounds(Kx, Kx_new, dKty, m1dx, m2dy, prev, half)`` giving
    ``(rhat_full, rhat_half)``, upper bounds of the KKT residual at (x+, y+)
    and at (x+, y), from ``dKty = K^T (y+ - y)``, ``m1dx = M1 (x+ - x)``,
    ``m2dy = M2 (y+ - y)`` and ``prev = (K x_prev, M2 (y - y_prev))`` of the
    step before (None on the first step).  For linear g* = <b, .> the dual
    part of both bounds is ``||K x+ - b|| / feas_scale`` (the compact
    bound).  Otherwise rhat_half is None unless ``half`` is set, and nan on
    the first step.
    """
    if b is not None:
        def compact(Kx, Kx_new, dKty, m1dx, m2dy, prev, half):
            feas = _nrm(Kx_new - b) / feas_scale
            part_x = _nrm(dKty - m1dx)
            nm1dx = _nrm(m1dx)
            return (part_x if part_x > feas else feas,
                    nm1dx if nm1dx > feas else feas)
        return compact

    def full(Kx, Kx_new, dKty, m1dx, m2dy, prev, half):
        part_x = _nrm(dKty - m1dx)
        part_y = _nrm(Kx_new - Kx - m2dy)
        if not half:
            rhat_half = None
        elif prev is None:
            rhat_half = np.nan
        else:
            Kx_prev, m2dy_prev = prev
            t = (Kx - Kx_prev) + (Kx - Kx_new) - m2dy_prev
            rhat_half = max(_nrm(m1dx), _nrm(t))
        return (part_x if part_x > part_y else part_y), rhat_half
    return full


def solve(p: SaddleProblem, cfg: SolverConfig) -> SolveReport:
    """Run the iteration until the stopping residual meets tol.

    The stopping residual is ``cfg.custom_residual`` when set, else the
    compact bound when g* is linear, else the full bound.  Divergence (an
    iterate entry past ``BLOWUP`` in magnitude, or any non-finite entry) is
    reported as a status, not an error, so counter-example runs terminate
    cleanly.
    """
    eng = _Engine(p, cfg)
    report_cond = None
    if not cfg.override:
        report_cond = check_condition(cfg.M1, p.f.sigma, cfg.M2, p.K,
                                      tol=CHECK_TOL, max_iter=CHECK_MAX_ITER)
        if not report_cond.passed:
            raise ConfigurationError(
                f"metric pair fails the convergence condition "
                f"(s_hat = {report_cond.s_hat:.6f} >= 4/3); "
                f"set override to run anyway")

    x = (np.zeros(p.K.cols) if cfg.x0 is None
         else np.asarray(cfg.x0, dtype=float).ravel().copy())
    y = (np.zeros(p.K.rows) if cfg.y0 is None
         else np.asarray(cfg.y0, dtype=float).ravel().copy())
    Kx = p.K.apply(x)
    Kty = p.K.apply_adjoint(y)

    history = []
    status = "max-iter"
    iters = cfg.max_iter
    stop_res = np.nan
    prev = None
    step, Kadj = eng.step, p.K.apply_adjoint
    bounds = _residual_bounds(eng.b, cfg.feas_scale)
    custom, compact = cfg.custom_residual, eng.b is not None
    tol, max_iter, record_every = cfg.tol, cfg.max_iter, cfg.record_every
    t0 = time.perf_counter()
    for k in range(1, max_iter + 1):
        x_new, y_new, Kx_new, m1dx, m2dy = step(x, y, Kx, Kty)
        Kty_new = Kadj(y_new)
        rec = k % record_every == 0 or k == max_iter
        if custom is None:
            rhat_full, rhat_half = bounds(Kx, Kx_new, Kty_new - Kty, m1dx,
                                          m2dy, prev, rec)
            stop_res = rhat_half if compact else rhat_full
        else:  # the bounds are only recorded: work them out on recorded rows
            rhat_half = None
            stop_res = float(custom(x_new, y_new, Kx_new, Kty_new))

        done = stop_res <= tol
        # written so that a NaN entry, whose comparisons are all false, blows up
        blown = not (x_new.max() <= BLOWUP and -x_new.min() <= BLOWUP
                     and y_new.max() <= BLOWUP and -y_new.min() <= BLOWUP)
        if done or blown or rec:
            if rhat_half is None:  # a custom residual, or a stop between records
                rhat_full, rhat_half = bounds(Kx, Kx_new, Kty_new - Kty,
                                              m1dx, m2dy, prev, True)
            gap = cfg.gap_fn(x_new, y_new) if cfg.gap_fn is not None else np.nan
            history.append(HistoryRow(k, float(rhat_full), float(rhat_half),
                                      gap, time.perf_counter() - t0))
        prev = (Kx, m2dy)
        x, y, Kx, Kty = x_new, y_new, Kx_new, Kty_new
        if done:
            status, iters = "converged", k
            break
        if blown:
            status, iters = "diverged", k
            break

    return SolveReport(status=status, iters=iters, history=history,
                       x_final=x, y_final=y, stop_residual=float(stop_res),
                       condition=report_cond)


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
