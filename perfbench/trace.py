"""Span tracer for the benchmark's traced runs.

``install`` wraps the public callables of each prepdhg layer from outside the
package: operator products, metric solves and applies, prox maps, the
coordinate-descent y-update, the condition check, the spectral norm
estimate, the problem builders, ``solve`` and ``cli.main``.  Each wrapped
call records one span (kind, parent, start, end) in flat arrays held in
memory.  A call made while the innermost open span belongs to the same
layer is not recorded: it is part of that span's own work (``VStack.apply``
calling its children, the power iteration of ``spectral_norm_sq`` calling
``apply``); only ``solve`` records same-layer calls, the coordinate-descent
update.  A layer's self time is its spans' durations minus the time of their
recorded children, so ``check_condition`` is not charged for the operator
products it calls in another layer.

The untraced run never calls ``install``, so its code path is the
program's own.
"""

import functools
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: recorded span kinds; the layer is the part before the first dot
KINDS = (
    "cli.main",
    "problems.build",
    "solver.solve",
    "solver.bcd",
    "operators.apply",
    "operators.adjoint",
    "operators.spectral_norm",
    "prox.prox",
    "metrics.solve",
    "metrics.apply",
    "metrics.check",
)
_KIND_ID = {k: i for i, k in enumerate(KINDS)}
_LAYERS = sorted({k.split(".")[0] for k in KINDS})
_LAYER_OF = [_LAYERS.index(k.split(".")[0]) for k in KINDS]
_SOLVE = _KIND_ID["solver.solve"]

#: layer work that runs inside the solver loop; with ``solver.self_s`` these
#: self times add up to ``solver.loop_s``
LOOP_KINDS = ("operators.apply", "operators.adjoint", "prox.prox",
              "metrics.solve", "metrics.apply", "solver.bcd")

BUILDERS = ("game_matrix", "matrix_game", "birkhoff_projection", "emd",
            "tv_least_squares")


class Tracer:
    """In-memory span store; wrappers record only while ``active``."""

    def __init__(self):
        self.active = False
        self.stack = []
        self.loop_start = {}  # solve span index -> clock at the loop start
        self.results = []  # (span index, return value) of hooked kinds
        self.clear()

    def clear(self):
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.loop_start.clear()
        self.results.clear()

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def wrap(self, kind, fn, keep_result=False):
        """Return ``fn`` wrapped so that each call records one span."""
        kid = _KIND_ID[kind]
        layer = _LAYER_OF[kid]
        clock = time.perf_counter
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tr.stack
            if not tr.active:
                return fn(*args, **kwargs)
            if stack:
                top = tr.kind[stack[-1]]
                if _LAYER_OF[top] == layer and top != _SOLVE:
                    return fn(*args, **kwargs)
            i = len(tr.start)
            tr.kind.append(kid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.end.append(0.0)
            stack.append(i)
            tr.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.end[i] = clock()
                stack.pop()
            if keep_result:
                tr.results.append((i, out))
            return out

        return traced

    # -- aggregation --------------------------------------------------

    def summary(self):
        """Per-layer totals of the spans recorded since the last ``clear``."""
        kind = np.asarray(self.kind, dtype=np.int32)
        parent = np.asarray(self.parent, dtype=np.int32)
        start = np.asarray(self.start, dtype=float)
        end = np.asarray(self.end, dtype=float)
        n = kind.size
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_t = dur - child

        # Solve spans never nest, so a span lies in a solve's loop exactly
        # when it starts between that solve's loop start and its end.
        results = dict(self.results)
        solves = np.nonzero(kind == _SOLVE)[0]
        t0 = np.array([self._loop_start(i, results, end) for i in solves])
        s_end = end[solves]
        in_loop = np.zeros(n, dtype=bool)
        if solves.size:
            j = np.searchsorted(t0, start, side="right") - 1
            ok = j >= 0
            in_loop[ok] = start[ok] < s_end[j[ok]]
            in_loop[solves] = False

        def total(k, mask=None):
            sel = kind == _KIND_ID[k]
            if mask is not None:
                sel &= mask
            return float(self_t[sel].sum()), int(np.count_nonzero(sel))

        out = {}
        loop_s = float(np.sum(s_end - t0))
        covered = 0.0
        for k in LOOP_KINDS:
            s, c = total(k, in_loop)
            out[k] = (s, c)
            covered += s
        for k in ("problems.build", "operators.spectral_norm",
                  "metrics.check", "cli.main"):
            out[k] = total(k)
        checks = [r for i, r in self.results if kind[i] == _KIND_ID["metrics.check"]]
        reports = [results[i] for i in solves]
        return {
            "spans": out,
            "iters": int(sum(r.iters for r in reports)),
            "setup_s": float(np.sum(t0 - start[solves])),
            "loop_s": loop_s,
            "self_s": loop_s - covered,
            "check_iters": int(sum(r.iterations for r in checks)),
            "check_converged": int(sum(bool(r.converged) for r in checks)),
        }

    def _loop_start(self, i, results, end):
        if i in self.loop_start:
            return self.loop_start[i]
        # no clock mark (the solver stopped timing through ``time``):
        # fall back to the loop time the report records
        return end[i] - results[i].history[-1].elapsed_s


class _SolverClock:
    """Stands in for ``time`` inside ``prepdhg.solver``.

    ``solve`` reads ``time.perf_counter()`` first when its loop starts; the
    first read inside each open solve span marks that span's loop start.
    """

    def __init__(self, tracer, real):
        self._tracer = tracer
        self._real = real

    def perf_counter(self):
        t = self._real.perf_counter()
        tr = self._tracer
        if tr.active and tr.stack:
            top = tr.stack[-1]
            if tr.kind[top] == _SOLVE and top not in tr.loop_start:
                tr.loop_start[top] = t
        return t

    def __getattr__(self, name):
        return getattr(self._real, name)


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def install(tracer):
    """Wrap every traced callable; return a function that undoes it."""
    import sys

    from prepdhg import cli, metrics, operators, problems, prox, solver

    undo = []
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "prepdhg" or name.startswith("prepdhg."))]

    def patch_attr(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(fn, kind, keep_result=False):
        # every module that imported the function by name sees the wrapper
        new = tracer.wrap(kind, fn, keep_result)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    patch_attr(mod, attr, new)

    def patch_methods(base, names):
        for cls in _subclasses(base):
            for name, kind in names:
                fn = cls.__dict__.get(name)
                if inspect.isfunction(fn):
                    patch_attr(cls, name, tracer.wrap(kind, fn))

    patch_methods(operators.LinearOperator, [("apply", "operators.apply"),
                                             ("apply_adjoint", "operators.adjoint")])
    patch_methods(metrics.Metric, [("solve", "metrics.solve"),
                                   ("apply", "metrics.apply")])
    patch_methods(prox.Proximable, [("prox", "prox.prox")])
    patch_methods(solver.BoxQuadBCD, [("solve", "solver.bcd")])
    patch_function(prox.project_simplex, "prox.prox")
    patch_function(operators.spectral_norm_sq, "operators.spectral_norm")
    patch_function(metrics.check_condition, "metrics.check", keep_result=True)
    patch_function(solver.solve, "solver.solve", keep_result=True)
    for name in BUILDERS:
        patch_function(getattr(problems, name), "problems.build")
    patch_function(cli.main, "cli.main")
    patch_attr(solver, "time", _SolverClock(tracer, solver.time))

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
        undo.clear()

    return uninstall
