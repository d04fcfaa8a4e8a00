"""The stop test reads only what it needs, and nothing it skips shows.

The solve loop reads a stopping rule's terms in a fixed order and stops
reading once every live row has a term over tol; it forms the metric
differences M1 dx and M2 dy only on the steps whose stop test or history
row reads them.  Most tests here run a solve twice: as it runs, and with
the loop made eager (``eager``: every term and every difference formed on
every step, as the loop did before it skipped any), and the two reports
must be equal bit for bit.  The last ones build moves by hand and pin how
each stopping rule combines a NaN or inf term.
"""

import numpy as np
import pytest

from prepdhg import solver
from prepdhg.metrics import ScalarMetric
from prepdhg.operators import DenseOperator
from prepdhg.problems import (emd, game_matrix, matrix_game,
                              random_balanced_grids, random_sparse_system,
                              tv_least_squares)
from prepdhg.prox import IndicatorNonneg, Linear
from prepdhg.solver import SaddleProblem, SolverConfig, solve, solve_batch
from test_batch import assert_same_report


class _EagerMove(solver._Move):
    """A move that forms both differences when it is made."""

    __slots__ = ()

    def __init__(self, *args):
        super().__init__(*args)
        self.m1dx, self.m2dy


@pytest.fixture
def eager(monkeypatch):
    """Run ``fn()`` with every stop term and difference formed eagerly."""
    def run(fn):
        with monkeypatch.context() as m:
            stop = solver._stop_residual
            m.setattr(solver, "_stop_residual",
                      lambda rule, mv, tol=None: stop(rule, mv))
            m.setattr(solver, "_Move", _EagerMove)
            return fn()
    return run


def _tvls(tau, size=8, **kw):
    n = size * size
    R = random_sparse_system(n // 2, n, 0.2, 3)
    b = R.apply(np.random.default_rng(5).random(n))
    return tv_least_squares(R, b, 1.0, (size, size), tau, 0.75, **kw)


def _counting_moves(monkeypatch):
    """Patch in a move that logs each difference it forms; return the log."""
    formed, base = [], solver._Move

    class Counting(base):
        __slots__ = ()

        @property
        def m1dx(self):
            if self._m1dx is None:
                formed.append("m1dx")
            return base.m1dx.fget(self)

        @property
        def m2dy(self):
            if self._m2dy is None:
                formed.append("m2dy")
            return base.m2dy.fget(self)

    monkeypatch.setattr(solver, "_Move", Counting)
    return formed


@pytest.mark.parametrize("tau", [0.01, 0.03, 0.1])
def test_tvls_solve_is_the_eager_solve(eager, tau):
    inst = _tvls(tau, record_every=7)
    got = inst.solve()
    assert got.status == "converged" and got.iters % 7  # between records
    assert_same_report(got, eager(inst.solve))


def test_tvls_forms_differences_only_next_to_a_history_row(monkeypatch):
    # each history row reads M2 dy of its own step and of the step before,
    # and M1 dx of its own; ||K^T y|| rules out all other steps
    inst = _tvls(0.03, record_every=7)
    formed = _counting_moves(monkeypatch)
    rep = inst.solve()
    rows = len(rep.history)
    assert rep.iters > 7 * (rows - 1)
    assert formed.count("m1dx") == rows
    assert formed.count("m2dy") == 2 * rows


def test_emd_sgs_solve_is_the_eager_solve(eager, monkeypatch):
    rng = np.random.default_rng(0)
    r0, r1 = rng.random((8, 8)), rng.random((8, 8))
    r0, r1 = r0 / r0.sum(), r1 / r1.sum()
    inst = emd(r0, r1, 7 / 4, 10 ** -1.5, 0.75, method="sgs",
               max_iter=3000, record_every=7)
    want = eager(inst.solve)
    formed = _counting_moves(monkeypatch)
    got = inst.solve()
    assert got.status == "converged" and got.iters % 7
    assert_same_report(got, want)
    # the compact bound never reads M2 dy, and M1 dx only where the
    # feasibility term is not over tol or a row is recorded
    assert "m2dy" not in formed
    assert len(got.history) <= formed.count("m1dx") < got.iters // 2


def test_mixed_stop_game_block_is_the_eager_block(eager):
    # rows leave converged, at their own max_iter between records, and
    # diverged, at different steps
    K = game_matrix(1, 0, 30, 30, centered=True)
    insts = [matrix_game(K, t, g, tol=1e-4, record_every=25,
                         record_gap=True)
             for g in (1.0, 0.751) for t in (0.3, 0.5, 0.8)]
    cfgs = [inst.config for inst in insts]
    cfgs[1].max_iter = 137
    cfgs[4].x0 = np.full(30, np.nan)
    cfgs[4].override = True
    p = insts[0].saddle
    with np.errstate(invalid="ignore"):
        got = solve_batch(p, cfgs)
        want = eager(lambda: solve_batch(p, cfgs))
    assert {r.status for r in got} == {"converged", "max-iter", "diverged"}
    assert len({r.iters for r in got}) > 3
    for g, w in zip(got, want):
        assert_same_report(g, w)


@pytest.mark.parametrize("make", [
    lambda: _tvls(0.03, record_every=1),
    lambda: matrix_game(game_matrix(1, 0, 20, 20, centered=True), 0.5, 0.751,
                        tol=1e-4, record_every=1)],
    ids=["tvls", "game"])
def test_recording_every_step_is_the_eager_solve(eager, make):
    inst = make()
    got = inst.solve()
    assert len(got.history) == got.iters
    assert_same_report(got, eager(inst.solve))


def test_tvls_stopped_between_records_reports_its_exact_residual(eager):
    inst = _tvls(0.01, max_iter=37, record_every=10)
    got = inst.solve()
    assert (got.status, got.iters) == ("max-iter", 37)
    assert [h.k for h in got.history] == [10, 20, 30, 37]
    K = inst.saddle.K
    x, y = got.x_final, got.y_final
    want = inst.meta["kkt_residual"](x, y, K.apply(x), K.apply_adjoint(y))
    assert got.stop_residual == want > inst.config.tol
    assert_same_report(got, eager(inst.solve))


def test_kkt_residual_is_the_max_of_its_terms():
    inst = _tvls(0.03, max_iter=5)
    rep = inst.solve()
    K, res = inst.saddle.K, inst.meta["kkt_residual"]
    args = (rep.x_final, rep.y_final, K.apply(rep.x_final),
            K.apply_adjoint(rep.y_final))
    terms = list(res.terms(*args))
    assert len(terms) == 3 and all(type(t) is float for t in terms)
    assert res(*args) == max(terms)


def _lp(tol, first, max_iter=500):
    """A small LP whose custom residual has ``first`` as its first term and
    the norm of the primal move's image as its second."""
    rng = np.random.default_rng(11)
    K = DenseOperator(rng.standard_normal((3, 5)))
    p = SaddleProblem(f=IndicatorNonneg(5),
                      gstar=Linear(K.apply(rng.random(5))), K=K)
    reads = []

    def terms(x, y, Kx, Kty):
        reads.append(1)
        yield first(x)
        reads.append(2)
        yield float(np.linalg.norm(Kx - p.gstar.b))

    def residual(x, y, Kx, Kty):
        return max(terms(x, y, Kx, Kty))
    residual.terms = terms
    cfg = SolverConfig(M1=ScalarMetric(4.0, 5), M2=ScalarMetric(4.0, 3),
                       tol=tol, max_iter=max_iter, record_every=7,
                       custom_residual=residual)
    return p, cfg, reads


@pytest.mark.parametrize("first, status", [
    (lambda x: np.nan, "max-iter"),  # max keeps a NaN first term
    (lambda x: 1e-3, "converged"),  # exactly tol, which stops
    (lambda x: 1.0 + float(x.sum()), "max-iter"),  # over tol throughout
    (lambda x: 0.0, "converged")])
def test_custom_residual_read_term_by_term_is_the_eager_solve(
        eager, first, status):
    p, cfg, reads = _lp(1e-3, first)
    got = solve(p, cfg)
    assert got.status == status
    if status == "max-iter":
        assert got.iters == cfg.max_iter
    want = eager(lambda: solve(p, cfg))
    assert_same_report(got, want)
    # the second term is read on every step unless the first is over tol
    p, cfg, reads = _lp(1e-3, first)
    solve(p, cfg)
    over = first(np.ones(5)) > 1e-3
    assert reads.count(2) == (1 if over else got.iters)


def test_a_four_argument_custom_residual_keeps_working(eager):
    p, cfg, _ = _lp(1e-3, lambda x: 0.0)
    cfg.custom_residual = lambda x, y, Kx, Kty: float(
        np.linalg.norm(Kx - p.gstar.b))
    got = solve(p, cfg)
    assert got.status == "converged"
    assert_same_report(got, eager(lambda: solve(p, cfg)))


def test_a_four_argument_custom_residual_is_called_once_a_step():
    # its value is its one term, read whole: a value over tol to the end
    # is not formed again when the row leaves
    p, cfg, _ = _lp(1e-3, lambda x: 0.0, max_iter=50)
    calls = []

    def residual(x, y, Kx, Kty):
        calls.append(1)
        return 1.0
    cfg.custom_residual = residual
    rep = solve(p, cfg)
    assert (rep.status, rep.iters, rep.stop_residual) == ("max-iter", 50, 1.0)
    assert len(calls) == 50


# -- NaN and inf terms -------------------------------------------------------
#
# Each rule combines its terms in its own order, and a NaN term keeps or
# loses its NaN by that order: the compact bound is ``_larger(||M1 dx||,
# feas)``, Python ``max`` order with feas read first; the full bound is
# ``_larger(part_x, part_y)``, the reverse; a custom residual is Python
# ``max`` of its terms in the order read.  The moves below are built by hand
# so that one term of a row is NaN or inf.

nan, inf = np.nan, np.inf


def _move(m1dx, m2dy, Kx_new, Kty_new=None, Kx=None):
    """A hand-made move of rows of one x and one y entry; K x, K^T y and
    K^T y+ are zero unless given, and the differences are the given ones."""
    col = [np.array(v, dtype=float)[:, None] for v in (m1dx, m2dy, Kx_new)]
    m1dx, m2dy, Kx_new = col
    zero = np.zeros_like(Kx_new)
    eng = type("Eng", (), {"xdiff": staticmethod(lambda w, q, z: m1dx),
                           "ydiff": staticmethod(lambda w, q, z: m2dy)})()
    Kty_new = zero if Kty_new is None else np.array(Kty_new)[:, None]
    Kx = zero if Kx is None else np.array(Kx)[:, None]
    return solver._Move(eng, zero, zero, Kx, zero, zero, zero, zero, Kx_new,
                        Kty_new)


def _rule(b, feas_scale, custom=None):
    """``(stop, recorded)`` of the rule the loop would pick, with ``stop(mv,
    tol)`` the stop routine under that rule."""
    feas_scale = np.asarray(feas_scale, dtype=float)
    rule = solver._rule(b, feas_scale, [custom] * feas_scale.size)
    return (lambda mv, tol: solver._stop_residual(rule, mv, tol),
            rule.recorded)


def _same(got, want):
    return got is not None and np.array_equal(
        np.asarray(got, dtype=float), np.array(want, dtype=float),
        equal_nan=True)


def test_compact_bound_keeps_its_nan_order():
    # rows: (feas, ||M1 dx||) = (nan, 1), (1, nan), (inf, nan), (nan, inf),
    # (1e-9, 2e-9); part_x = ||M1 dx|| as K^T y+ = K^T y
    mv = _move(m1dx=[1.0, nan, nan, inf, 2e-9], m2dy=[0.0] * 5,
               Kx_new=[nan, 1.0, inf, nan, 1e-9])
    stop, recorded = _rule(np.zeros(1), np.ones(5))
    want = [nan, 1.0, inf, nan, 2e-9]
    assert _same(stop(mv, None), want)
    assert _same(stop(mv, np.full(5, 1e-6)), want)
    rhat_full, rhat_half = recorded(mv, None)
    assert _same(rhat_full, want) and _same(rhat_half, want)
    # every row's feasibility term over tol: no row stops
    mv = _move(m1dx=[nan, 1.0], m2dy=[0.0, 0.0], Kx_new=[1.0, inf])
    stop, _ = _rule(np.zeros(1), np.ones(2))
    assert stop(mv, np.full(2, 1e-6)) is None
    assert _same(stop(mv, None), [1.0, inf])


def test_full_bound_keeps_its_nan_order():
    # rows: (part_x, part_y) = (nan, inf), (inf, nan), (1, nan), (nan, 1),
    # (1e-9, 2e-9); part_x = ||M1 dx||, part_y = ||K x+||
    m1dx = [nan, inf, 1.0, nan, 2e-9]
    mv = _move(m1dx=[-v for v in m1dx], m2dy=[0.0] * 5,
               Kx_new=[inf, nan, nan, 1.0, 1e-9])
    stop, recorded = _rule(None, np.ones(5))
    want = [inf, nan, nan, 1.0, 2e-9]
    assert _same(stop(mv, None), want)
    assert _same(stop(mv, np.full(5, 1e-6)), want)
    # rhat_half is _larger(||(K x - K x_prev) + (K x - K x+) - M2 dy_prev||,
    # ||M1 dx||), here _larger(||K x+ + M2 dy_prev||, ||M1 dx||)
    prev = _move(m1dx=[0.0] * 5, m2dy=[-1.0, -inf, nan, 0.0, 0.0],
                 Kx_new=[0.0] * 5)
    rhat_full, rhat_half = recorded(mv, prev)
    assert _same(rhat_full, want)
    assert _same(rhat_half, [nan, inf, 1.0, nan, 2e-9])
    rhat_full, rhat_half = recorded(mv, None)
    assert _same(rhat_full, want) and _same(rhat_half, [nan] * 5)
    # every row's x part over tol: no row stops
    mv = _move(m1dx=[inf, -1.0], m2dy=[0.0, 0.0], Kx_new=[nan, 0.5])
    stop, _ = _rule(None, np.ones(2))
    assert stop(mv, np.full(2, 1e-6)) is None
    assert _same(stop(mv, None), [nan, 1.0])


@pytest.mark.parametrize("terms, tol, want", [
    ((nan, 1.0), None, nan),
    ((1.0, nan), None, 1.0),
    ((inf, nan), None, inf),
    ((nan, inf), None, nan),
    ((nan, 1.0), 2.0, nan),
    ((1.0, nan), 2.0, 1.0),
    ((nan, 1.0), 0.5, None),
    ((nan, nan), 0.5, nan),
    ((inf, nan), 0.5, None)])
def test_custom_terms_keep_their_nan_order(terms, tol, want):
    def custom_terms(x, y, Kx, Kty):
        yield from terms

    def custom(x, y, Kx, Kty):
        return max(custom_terms(x, y, Kx, Kty))
    custom.terms = custom_terms
    stop, recorded = _rule(np.zeros(1), np.ones(1), custom)
    mv = _move(m1dx=[nan], m2dy=[0.0], Kx_new=[1.0])
    got = stop(mv, None if tol is None else np.array([tol]))
    assert got is None if want is None else _same(got, [want])
    # the recorded pair is the compact bound's, whatever the custom terms
    assert _same(recorded(mv, None)[0], [1.0])


@pytest.mark.parametrize("value", [nan, inf, 0.25])
def test_four_argument_custom_residual_is_its_own_value(value):
    stop, _ = _rule(None, np.ones(1), lambda x, y, Kx, Kty: value)
    mv = _move(m1dx=[0.0], m2dy=[0.0], Kx_new=[0.0])
    assert _same(stop(mv, None), [value])


def test_rows_read_their_own_custom_terms_in_step():
    # each row is Python max of its own terms in order, as a one-row rule
    # gives it; a row out of terms reads -inf, which no max keeps
    rows = [(nan, 1.0), (1.0, nan), (inf, nan), (0.5,), (1e-9, 2e-9, 3e-9)]
    customs = []
    for terms in rows:
        def custom_terms(x, y, Kx, Kty, terms=terms):
            yield from terms
        customs.append(lambda *a, t=custom_terms: max(t(*a)))
        customs[-1].terms = custom_terms
    rule = solver._rule(np.zeros(1), np.ones(5), customs)
    mv = _move(m1dx=[0.0] * 5, m2dy=[0.0] * 5, Kx_new=[0.0] * 5)
    want = [nan, 1.0, inf, 0.5, 3e-9]
    assert _same(solver._stop_residual(rule, mv), want)
    assert _same(solver._stop_residual(rule, mv, np.full(5, 1e-6)), want)
    for custom, w in zip(customs, want):
        one = solver._rule(np.zeros(1), np.ones(1), [custom])
        assert _same(solver._stop_residual(one, _move([0.0], [0.0], [0.0])),
                     [w])
    # the first term over tol in every row: no row stops
    over = solver._rule(np.zeros(1), np.ones(2), customs[1:3])
    assert solver._stop_residual(over, mv.rows([1, 2]),
                                 np.full(2, 0.5)) is None


def test_tvls_block_is_the_eager_block(eager):
    # several rows' custom terms, read in step, and the blockwise box steps
    insts = [_tvls(tau, record_every=7) for tau in (0.01, 0.03, 0.1)]
    p, cfgs = insts[0].saddle, [inst.config for inst in insts]
    got = solve_batch(p, cfgs)
    assert len({r.iters for r in got}) == 3
    for g, w in zip(got, eager(lambda: solve_batch(p, cfgs))):
        assert_same_report(g, w)
