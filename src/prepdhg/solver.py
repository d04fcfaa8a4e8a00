"""Preconditioned primal-dual hybrid gradient iteration.

One step solves two metric proximal subproblems with primal extrapolation
factor 2, both of the form argmin_z h(z) + <q, z> + 1/2 ||z - w||_M^2:

    x+ = argmin_x f(x) + <Kx, y>  + 1/2 ||x - x_k||_M1^2
    y+ = argmin_y g*(y) - <K(2 x+ - x_k), y> + 1/2 ||y - y_k||_M2^2

Each side's update is ``h.step(M)`` of its catalog entry, a ``Step``
built once per solve (see ``prepdhg.prox``).  The loop calls its two
halves apart: it forms each step's points, and the differences M1 dx and
M2 dy only on the steps whose stop test or history row reads them
(``_Move``).

One stopping rule (``_rule``), worked out once per solve from what it is
given: the problem's own KKT residual when ``custom_residual`` is set;
otherwise, when g* = <b, .> is linear, the compact bound max(||M1 dx||,
||Kx+ - b||); otherwise the full bound.  Both bounds are computable upper
bounds of the KKT residual built from consecutive iterates, and every
recorded history row carries them.  One routine, ``_stop_residual``,
reads any rule's terms in its fixed order: it stops reading at a term
over tol in every row, since no such row can stop, and forms the whole
residual only when a row may stop or leaves.

One loop, over row blocks: ``solve_batch`` iterates a (B, n) block of any
configs of one problem, one row each (a custom residual on all or none),
and ``solve`` is its one-row case.  Every part of a step, both bounds and
every stopping test act on each row on its own, by the arithmetic of that
row alone, so a row of a block reproduces its serial solve bit for bit.
A block of one live row, ``solve``'s from its first step and any other's
once the rest have left, carries its iterates as vectors: its steps call
the row's own ``Step`` halves and the operator's vector products, and its
stop test reads scalars.  Only the record and leave path, which runs every
``record_every`` steps and when a row leaves, views them as one row.
Configuration helpers cover the balanced augmented-Lagrangian specializations
(dual metric gamma*tau*K*K^T + theta*I, optionally realized through one
symmetric Gauss-Seidel block sweep).
"""

import math
import time
from collections import namedtuple
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, NamedTuple, Optional

import numpy as np

from .exceptions import ConfigurationError, require
from .metrics import (GramShiftMetric, Metric, ScalarMetric, SGSMetric,
                      check_condition)
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
    #: new iterates; when set, the solve stops on it instead of a bound.  It
    #: may carry ``terms``, the same signature giving an iterable of floats
    #: whose Python ``max`` is the residual; the solve then reads only the
    #: terms, in order: up to the first one over tol, which rules the step
    #: out, and all of them when none is over tol or the solve ends
    custom_residual: Optional[Callable] = None

    def __post_init__(self):
        if not self.tol >= 0:  # NaN would never stop the loop
            raise ConfigurationError("tol must be nonnegative")
        for name in ("max_iter", "record_every"):  # step counts
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < 1:
                raise ConfigurationError(f"{name} must be a positive integer")
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
    """Validated step executor for the live rows of a block of configs of
    one problem.

    Iterates are row blocks, one row per live config: x of shape (B,
    K.cols) and y of shape (B, K.rows), and the vectors x and y when one
    row is live.  ``xpoint``/``xdiff`` and ``ypoint``/``ydiff`` are the
    halves of the two updates on such blocks (``_side``) by each config's
    steps ``h.step(M)``, built once, here; ``b`` is the linear term of g*
    (None unless g* is linear), ``rows`` maps each live row to its config,
    and ``tol``, ``every``, ``last`` and ``rule`` are the live rows'
    tolerances, record intervals, iteration budgets and stopping rule, the
    first three one array entry per row, or scalars for one live row.
    """

    def __init__(self, p: SaddleProblem, cfgs):
        self.p, self.K = p, p.K
        for cfg in cfgs:
            if cfg.M1.dim != p.K.cols or cfg.M2.dim != p.K.rows:
                raise ConfigurationError("metric dimensions do not match K")
        self.cfgs, self.b = cfgs, p.gstar.linear_term()
        self.steps = [(p.f.step(cfg.M1), p.gstar.step(cfg.M2))
                      for cfg in cfgs]
        self.rows = np.arange(len(cfgs))
        self.keep(self.rows)

    def keep(self, stay):
        """Narrow the live rows to those at positions ``stay`` and set up the
        updates, settings and stopping rule of what is left."""
        self.rows = self.rows[stay]
        cfgs = [self.cfgs[j] for j in self.rows]
        xs, ys = zip(*(self.steps[j] for j in self.rows))
        self.xpoint, self.xdiff = _side(self.p.f, [c.M1 for c in cfgs], xs)
        self.ypoint, self.ydiff = _side(self.p.gstar, [c.M2 for c in cfgs], ys)

        settings = (np.array([getattr(cfg, a) for cfg in cfgs])
                    for a in ("tol", "record_every", "max_iter", "feas_scale"))
        if len(cfgs) == 1:  # one row steps on vectors, under scalars
            settings = (a.item() for a in settings)
        self.tol, self.every, self.last, feas_scale = settings
        self.rule = _rule(self.b, feas_scale, [c.custom_residual for c in cfgs])

    def points(self, x, y, Kx, Kty):
        """``(x+, y+, K x+, q)``, where q = K x - 2 K x+ is the y-update's
        linear term."""
        x_new = self.xpoint(x, Kty)
        Kx_new = self.K.apply(x_new)
        q = Kx - 2.0 * Kx_new
        return x_new, self.ypoint(y, q), Kx_new, q

    def step(self, x, y):
        """``(x+, y+)`` from x and y alone."""
        K = self.K
        return self.points(x, y, K.apply(x), K.apply_adjoint(y))[:2]


_MOVE_ARRAYS = ("x", "y", "Kx", "Kty", "q", "x_new", "y_new", "Kx_new",
                "Kty_new")


class _Move:
    """One step's move from (x, y) to (x+, y+), as row blocks, with ``q``
    the y-update's linear term.  ``m1dx`` = M1 (x+ - x) and ``m2dy`` =
    M2 (y+ - y) are formed on first read by the engine's ``xdiff`` and
    ``ydiff``, the steps' own arithmetic, so the loop forms them only on
    the steps that read them (see ``_rule``)."""

    __slots__ = ("eng",) + _MOVE_ARRAYS + ("_m1dx", "_m2dy")

    def __init__(self, eng, x, y, Kx, Kty, q, x_new, y_new, Kx_new, Kty_new):
        self.eng, self.x, self.y, self.Kx, self.Kty, self.q = \
            eng, x, y, Kx, Kty, q
        self.x_new, self.y_new, self.Kx_new, self.Kty_new = \
            x_new, y_new, Kx_new, Kty_new
        self._m1dx = self._m2dy = None

    @property
    def m1dx(self):
        if self._m1dx is None:
            self._m1dx = self.eng.xdiff(self.x, self.Kty, self.x_new)
        return self._m1dx

    @property
    def m2dy(self):
        if self._m2dy is None:
            self._m2dy = self.eng.ydiff(self.y, self.q, self.y_new)
        return self._m2dy

    def rows(self, keep):
        """The move of the rows at positions ``keep``, as vectors when it is
        one row.  Its differences are formed anew by the engine narrowed to
        those rows: each row's arithmetic is its own, so they are bitwise
        the rows' differences."""
        if len(keep) == 1:
            keep = keep[0]
        return _Move(self.eng, *(getattr(self, a)[keep] for a in _MOVE_ARRAYS))


def _side(h, metrics, steps):
    """``(point, diff)`` of one side's update on the live rows, under their
    metrics: the stacked ``prox_step`` over several rows' diagonals when
    all are diagonal, else each row by its own step."""
    if len(steps) == 1:
        return steps[0].point, steps[0].diff
    diags = [M.diagonal() for M in metrics]
    if all(d is not None for d in diags):
        stacked = h.prox_step(np.stack(diags))
        return stacked.point, stacked.diff
    return (lambda w, q: np.stack([s.point(*a) for s, *a in zip(steps, w, q)]),
            lambda w, q, z: np.stack([s.diff(*a)
                                      for s, *a in zip(steps, w, q, z)]))


def prepdhg_step(p: SaddleProblem, cfg: SolverConfig, x, y):
    """One iteration of the preconditioned primal-dual update."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    return _Engine(p, [cfg]).step(x, y)


def _nrm(v):
    """The Euclidean norm of each row of a block."""
    return np.sqrt(np.vecdot(v, v))


def _larger(a, b):
    """a where a > b, else b: the entrywise maximum that keeps b when a is
    NaN, like ``a if a > b else b``."""
    return np.where(a > b, a, b)


#: a stopping rule (see ``_rule``)
_Rule = namedtuple("_Rule", "terms size whole recorded")


def _rule(b, feas_scale, customs):
    """The stopping rule of a block's live rows: ``terms(mv)`` gives the
    stopping residual's terms of a ``_Move``, one entry per row, in the
    order the stop test reads them, ``size`` terms (None: as many as the
    custom ``terms`` give), ``whole(*terms)`` the residual they make, and
    ``recorded(mv, prev)`` a history row's ``(rhat_full, rhat_half)``,
    bounds of the KKT residual at (x+, y+) and at (x+, y); rhat_half of the
    full bound reads the move ``prev`` of the step before and is nan on the
    first step, where that is None.  For linear g* = <b, .> the dual part of
    both is ``||K x+ - b|| / feas_scale`` and the rule stops on rhat_half,
    the compact bound, read feasibility first; otherwise on rhat_full, the
    full bound, read x part first.  ``customs``, the rows' custom residuals
    (all None or none), stop in their place, each row on its own one's
    ``terms`` if it has them, else on its value as one term: one row's
    Python floats, or one array per term (-inf for a row out of terms).
    ``whole`` keeps each rule's NaN order: ``_larger(||m1dx||, feas)``,
    ``_larger(part_x, part_y)`` and Python ``max`` of a row's custom terms.
    """
    if b is not None:
        def terms(mv):
            yield _nrm(mv.Kx_new - b) / feas_scale
            yield _nrm(mv.m1dx)

        def whole(feas, m1):
            return _larger(m1, feas)

        def recorded(mv, prev):
            feas, m1 = terms(mv)
            part_x = _nrm((mv.Kty_new - mv.Kty) - mv.m1dx)
            return _larger(part_x, feas), whole(feas, m1)
    else:
        def terms(mv):
            yield _nrm((mv.Kty_new - mv.Kty) - mv.m1dx)
            yield _nrm(mv.Kx_new - mv.Kx - mv.m2dy)
        whole = _larger

        def recorded(mv, prev):
            rhat_full = _larger(*terms(mv))
            if prev is None:
                rhat_half = np.full(rhat_full.shape, np.nan)
            else:
                t = (mv.Kx - prev.Kx) + (mv.Kx - mv.Kx_new) - prev.m2dy
                rhat_half = _larger(_nrm(t), _nrm(mv.m1dx))
            return rhat_full, rhat_half
    if customs[0] is None:
        return _Rule(terms, 2, whole, recorded)
    row_terms = [getattr(c, "terms", None) or (lambda *at, c=c: (c(*at),))
                 for c in customs]
    size = None if any(hasattr(c, "terms") for c in customs) else 1

    def row_max(*seen):
        return np.array([max(r) for r in zip(*map(np.atleast_1d, seen))])
    if len(customs) == 1:  # the one row's terms, as Python floats
        [one] = row_terms
        return _Rule(lambda mv: one(mv.x_new, mv.y_new, mv.Kx_new, mv.Kty_new),
                     size, row_max, recorded)

    def at_terms(mv):
        rows = zip(row_terms, mv.x_new, mv.y_new, mv.Kx_new, mv.Kty_new)
        return map(np.array, zip_longest(*(f(*at) for f, *at in rows),
                                         fillvalue=-math.inf))
    return _Rule(at_terms, size, row_max, recorded)


def _stop_residual(rule, mv, tol=None):
    """The stopping residual of ``rule`` for each row of ``mv``, or None
    when no row stops: reading the terms in order ends at one over ``tol``
    (one per row) in every row, unless it is the last (``tol=None`` reads
    them all).  That is exact, since under ``whole`` a term over tol leaves
    the residual over tol or NaN.  A one-row block's tol is a scalar, and
    its terms are compared with it as scalars."""
    seen = []
    for t in rule.terms(mv):
        seen.append(t)
        if tol is not None and len(seen) != rule.size and (
                all(t > tol) if type(tol) is np.ndarray else t > tol):
            return None
    return rule.whole(*seen)


def _checked_condition(p: SaddleProblem, cfg: SolverConfig):
    report = check_condition(cfg.M1, p.f.sigma, cfg.M2, p.K,
                             tol=CHECK_TOL, max_iter=CHECK_MAX_ITER)
    if report.verdict == "inconclusive":
        raise ConfigurationError(
            f"condition check inconclusive: s_hat = {report.s_hat:.6f} did "
            f"not converge in {report.iterations} products and no bound "
            f"certifies it below 4/3; set override to run anyway")
    if not report.passed:
        raise ConfigurationError(
            f"metric pair fails the convergence condition "
            f"(s_hat = {report.s_hat:.6f} >= 4/3); "
            f"set override to run anyway")
    return report


def _start(v0, n, name):
    v = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float).ravel()
    if v.size != n:
        raise ConfigurationError(f"{name} has {v.size} entries, expected {n}")
    return v


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
    """Solve any configs of one problem as one row block.

    Returns one ``SolveReport`` per config, in order, each equal bit for bit
    to ``solve(p, cfg)`` apart from the ``elapsed_s`` of its history (see
    ``HistoryRow``): the block runs every row's arithmetic on its own, with
    one matrix-vector product per row.  A row that stops (converged,
    diverged or at its own ``max_iter``) leaves the block with its status,
    iteration count, history and final iterates.  The one block refused at
    set-up is one with a ``custom_residual`` on some configs but not all.
    """
    cfgs = list(cfgs)
    if not cfgs:
        return []
    if len({c.custom_residual is None for c in cfgs}) > 1:
        raise ConfigurationError("a block takes a custom_residual on every "
                                 "config or on none")
    eng = _Engine(p, cfgs)
    K = p.K
    x = np.stack([_start(cfg.x0, K.cols, "x0") for cfg in cfgs])
    y = np.stack([_start(cfg.y0, K.rows, "y0") for cfg in cfgs])
    if len(cfgs) == 1:  # a one-row block steps on vectors
        x, y = x[0], y[0]
    conditions = [None if cfg.override else _checked_condition(p, cfg)
                  for cfg in cfgs]
    Kx = K.apply(x)
    Kty = K.apply_adjoint(y)

    gap_fns = [cfg.gap_fn for cfg in cfgs]
    histories = [[] for _ in cfgs]
    reports = [None] * len(cfgs)
    charged = np.zeros(len(cfgs))  # loop seconds charged to each config

    prev = None
    points, Kadj = eng.points, K.apply_adjoint
    next_rec = int(np.minimum(eng.every, eng.last).min())
    k = 0
    t_last = time.perf_counter()
    while True:
        k += 1
        x_new, y_new, Kx_new, q = points(x, y, Kx, Kty)
        Kty_new = Kadj(y_new)
        mv = _Move(eng, x, y, Kx, Kty, q, x_new, y_new, Kx_new, Kty_new)
        rec = k == next_rec  # some row records this step
        # an entry past BLOWUP, or a NaN or inf one, leaves a sum of squares
        # of at least BLOWUP**2 (or NaN), and ``vdot`` warns of no overflow;
        # only then does the exact per-row test run, and the residual's
        # norms, which may overflow to inf, run without a warning
        calm = (np.vdot(x_new, x_new) < _BLOWUP_SQ
                and np.vdot(y_new, y_new) < _BLOWUP_SQ)
        tol = eng.tol
        if calm:
            stop_res = _stop_residual(eng.rule, mv, tol)
        else:
            with np.errstate(over="ignore"):
                stop_res = _stop_residual(eng.rule, mv, tol)
        # None: every row has a term of its residual over tol
        done = None if stop_res is None else stop_res <= tol
        if rec or not calm or (done is not None and done.any()):
            rows, every = eng.rows, eng.every
            X, Y = np.atleast_2d(x_new, y_new)  # a one-row block's vectors
            done = (np.zeros(rows.size, dtype=bool) if done is None
                    else np.atleast_1d(done))
            blown = ~(np.maximum(np.abs(X).max(axis=1),
                                 np.abs(Y).max(axis=1)) <= BLOWUP)
            leave = done | blown | (k == eng.last)
            show = leave | (k % every == 0) if rec else leave
            with np.errstate(over=None if calm else "ignore"):
                if stop_res is None and leave.any():  # the exact residual
                    stop_res = _stop_residual(eng.rule, mv)
                if show.any():
                    rhat_full, rhat_half = map(np.atleast_1d,
                                               eng.rule.recorded(mv, prev))
            now = time.perf_counter()
            charged[rows] += (now - t_last) / rows.size
            t_last = now
            for i in np.flatnonzero(show):
                j = rows[i]
                gap = (gap_fns[j](X[i], Y[i])
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
                    x_final=X[i].copy(), y_final=Y[i].copy(),
                    stop_residual=float(np.atleast_1d(stop_res)[i]),
                    condition=conditions[j])
            if leave.any():
                next_rec = None
                stay = np.flatnonzero(~leave)
                if not stay.size:
                    return reports
                eng.keep(stay)
                mv = mv.rows(stay)
                x_new, y_new, Kx_new, Kty_new = (
                    mv.x_new, mv.y_new, mv.Kx_new, mv.Kty_new)
            if rec or next_rec is None:
                next_rec = int(np.minimum((k // eng.every + 1) * eng.every,
                                          eng.last).min())
        prev = mv
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
    if not (gamma >= GAMMA_MIN or override):  # NaN fails too
        raise ConfigurationError(
            f"gamma = {gamma} below the 3/4 bound; set override to force")
    require("need finite tau > 0, theta > 0 and gamma > 0",
            tau=(tau, 0 < tau < math.inf), theta=(theta, theta > 0),
            gamma=(gamma, 0 < gamma < math.inf))  # override too
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
    exact solve with M = Q + U D^{-1} U^T, so the method is the same
    iteration with that implied dual metric.  This helper owns the method's
    rule, and ``problems.emd`` builds through it:

    - 0 < tau < inf, 0 <= theta < inf and 0 < gamma < inf, even under
      ``override``;
    - gamma >= 3/4 (less 1e-15) unless ``override``;
    - theta > 0 when gamma <= 3/4 + 1e-12, unless ``override``;
    - the partition couples (U has an entry); use ``configure_ebalm`` when
      it does not.

    M >= Q caps the condition value s at 1/gamma, and theta = 0 reaches the
    cap: a y supported on the last block has U^T y = 0, so M y = Q y, and
    u = K^T y gives tau u^T K^T M^{-1} K u / ||u||^2 = 1/gamma.  So theta = 0
    at gamma = 3/4 puts s exactly on the 4/3 boundary, where an estimate
    that stops short of s can still read a strict pass.  The metric is
    built by ``SGSMetric.gram_shift``, so the condition check bounds s by
    Q's closed form s_Q = tau lambda / (gamma tau lambda + theta), lambda
    the operator's ``gram_bound``, when K has one.
    """
    require("the sGS sweep needs finite tau > 0, theta >= 0 and gamma > 0",
            tau=(tau, 0 < tau < math.inf), theta=(theta, 0 <= theta < math.inf),
            gamma=(gamma, 0 < gamma < math.inf))  # override too
    require("gamma below the sGS sweep's 3/4 bound; set override to force",
            gamma=(gamma, gamma >= GAMMA_MIN - 1e-15 or override))
    require(f"theta = 0 at gamma = {gamma} puts the sGS condition value on "
            "the 4/3 boundary; use theta > 0 or set override",
            theta=(theta, theta > 0 or gamma > GAMMA_MIN + 1e-12 or override))
    b = np.asarray(b, dtype=float).ravel()
    M2 = SGSMetric.gram_shift(K, gamma * tau, theta, partition)
    if not M2.U.nnz:  # the kernel's upper() stores no zero
        raise ConfigurationError(
            "partition has no off-diagonal coupling; use configure_ebalm")
    problem = SaddleProblem(f=f, gstar=Linear(b), K=K)
    M1 = ScalarMetric(1.0 / tau, K.cols)
    cfg = SolverConfig(M1=M1, M2=M2, tol=tol, max_iter=max_iter,
                       override=override)
    return problem, cfg
