"""Row-block solves: ``solve_batch`` rows against ``solve``, bit for bit."""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from prepdhg import prox
from prepdhg.exceptions import ConfigurationError
from prepdhg.metrics import (BoxQuadBCD, DenseMetric, DiagonalMetric,
                             GramShiftMetric, ScalarMetric, SGSMetric,
                             gram_shift_matrix)
from prepdhg.operators import (BirkhoffConstraint, DenseOperator,
                               GridDivergence, SparseOperator)
from prepdhg.problems import (birkhoff_projection, emd, game_matrix,
                              matrix_game, random_sparse_system,
                              red_black_partition, tv_least_squares)
from prepdhg.prox import (GroupL12, IndicatorSimplex, Linear, SeparableSum,
                          Zero)
from prepdhg.solver import SaddleProblem, SolverConfig, solve, solve_batch
from test_contracts import CATALOG, N


def assert_same_report(got, want):
    """Equal status, iterations, final iterates and stop residual, and equal
    history rows apart from ``elapsed_s`` (NaN equal to NaN)."""
    assert (got.status, got.iters) == (want.status, want.iters)
    assert got.x_final.tobytes() == want.x_final.tobytes()
    assert got.y_final.tobytes() == want.y_final.tobytes()
    assert repr(got.stop_residual) == repr(want.stop_residual)
    assert got.condition == want.condition
    assert [repr(h[:4]) for h in got.history] == \
        [repr(h[:4]) for h in want.history]


def _game_cells(K, taus, tol, record_every=50):
    return [matrix_game(K, t, g, tol=tol, record_every=record_every,
                        record_gap=True)
            for g in (1.0, 0.751) for t in taus]


def test_dense_game_rows_equal_their_serial_solves():
    K = game_matrix(1, 0, 100, 100, centered=True)
    insts = _game_cells(K, [10.0 ** e for e in (-0.7, -0.6, -0.5, -0.4, -0.3)],
                        tol=1e-4)
    cfgs = [inst.config for inst in insts]
    # one row stopped by its iteration budget, one diverged row (a NaN
    # start, run without the condition check)
    cfgs[1].max_iter = 300
    cfgs[7].x0 = np.full(100, np.nan)
    cfgs[7].override = True
    p = insts[0].saddle
    reps = solve_batch(p, cfgs)
    assert [r.status for r in reps].count("max-iter") == 1
    assert reps[1].status == "max-iter" and reps[7].status == "diverged"
    assert len({r.iters for r in reps}) > 5  # rows leave at different steps
    for rep, cfg in zip(reps, cfgs):
        assert_same_report(rep, solve(p, cfg))


def test_sparse_game_rows_equal_their_serial_solves():
    K = game_matrix(4, 2, 40, 60)
    insts = _game_cells(K, [0.3, 0.5, 0.8], tol=1e-5, record_every=7)
    p = insts[0].saddle
    reps = solve_batch(p, [inst.config for inst in insts])
    assert all(r.status == "converged" for r in reps)
    for rep, inst in zip(reps, insts):
        assert_same_report(rep, solve(p, inst.config))


def test_birkhoff_rows_equal_their_serial_solves():
    # the matrix-free operator, linear g* (the compact bound) and a strongly
    # convex f; rows differ in tau, tol and record_every
    C = np.random.default_rng(5).random((6, 6))
    insts = [birkhoff_projection(C, tau, 1.0, method="pdhg", tol=tol,
                                 record_every=every)
             for tau, tol, every in ((0.3, 1e-8, 5), (0.6, 1e-6, 3),
                                     (1.2, 1e-9, 10))]
    p = insts[0].saddle
    assert isinstance(p.K, BirkhoffConstraint)
    reps = solve_batch(p, [inst.config for inst in insts])
    for rep, inst in zip(reps, insts):
        assert_same_report(rep, solve(p, inst.config))


def test_block_loop_time_is_shared_among_live_rows():
    K = game_matrix(1, 1, 20, 20, centered=True)
    insts = _game_cells(K, [0.3, 0.6], tol=1e-6)
    t0 = time.perf_counter()
    reps = solve_batch(insts[0].saddle, [inst.config for inst in insts])
    wall = time.perf_counter() - t0
    for rep in reps:
        times = [h.elapsed_s for h in rep.history]
        assert times == sorted(times) and times[0] > 0
    # the rows' shares add up to the block's loop time, not B times it
    assert sum(r.history[-1].elapsed_s for r in reps) <= wall


def test_one_config_is_solve():
    K = game_matrix(1, 3, 12, 12, centered=True)
    inst = matrix_game(K, 0.5, 0.8, tol=1e-6, record_every=10)
    [rep] = solve_batch(inst.saddle, [inst.config])
    assert_same_report(rep, solve(inst.saddle, inst.config))
    assert solve_batch(inst.saddle, []) == []


# -- blocks of any metrics and stopping rules ---------------------------------

def _lp_problem():
    K = GridDivergence(3, 3, 1.0)
    return SaddleProblem(f=Zero(K.cols), gstar=Linear(np.ones(K.rows)), K=K), K


@pytest.mark.parametrize("kind", ["sgs", "gram", "dense"])
def test_non_diagonal_metric_rows_equal_their_serial_solves(kind):
    p, K = _lp_problem()
    Q = gram_shift_matrix(K, 0.5, 0.1)
    M2 = {"sgs": SGSMetric(Q, red_black_partition(3, 3)),
          "gram": GramShiftMetric(1.0, 0.5, K, theta=0.1),
          "dense": DenseMetric(Q.toarray())}[kind]
    cfgs = [SolverConfig(M1=ScalarMetric(s, K.cols), M2=M2, override=True,
                         max_iter=m) for s, m in ((2.0, 5), (3.0, 8))]
    reps = solve_batch(p, cfgs)
    assert [r.iters for r in reps] == [5, 8]
    for rep, cfg in zip(reps, cfgs):
        assert_same_report(rep, solve(p, cfg))


def test_block_refuses_a_custom_residual():
    # a custom residual on some rows but not all
    p, K = _lp_problem()
    cfgs = [SolverConfig(M1=ScalarMetric(2.0, K.cols),
                         M2=ScalarMetric(2.0, K.rows), override=True,
                         custom_residual=custom, max_iter=5)
            for custom in (None, lambda x, y, Kx, Kty: 0.0)]
    assert solve(p, cfgs[1]).iters == 1
    with pytest.raises(ConfigurationError, match="custom_residual"):
        solve_batch(p, cfgs)


def test_non_uniform_simplex_weights_rows_equal_their_serial_solves():
    K = DenseOperator(np.random.default_rng(3).standard_normal((4, 5)))
    p = SaddleProblem(f=IndicatorSimplex(5), gstar=IndicatorSimplex(4), K=K)
    weights = np.array([1.0, 2.0, 1.0, 1.0, 1.0])
    cfgs = [SolverConfig(M1=DiagonalMetric(d), M2=ScalarMetric(3.0, 4),
                         override=True, max_iter=m)
            for d, m in ((np.full(5, 2.0), 3), (weights, 3), (weights * 3, 6))]
    reps = solve_batch(p, cfgs)
    for rep, cfg in zip(reps, cfgs):
        assert_same_report(rep, solve(p, cfg))


def _grids(size, seed):
    rng = np.random.default_rng(seed)
    r0, r1 = rng.random((size, size)), rng.random((size, size))
    return r0 / r0.sum(), r1 / r1.sum()


def _tvls_cells(cells, size=6, **kw):
    n = size * size
    R = random_sparse_system(n // 2, n, 0.2, 3)
    b = R.apply(np.random.default_rng(5).random(n))
    return [tv_least_squares(R, b, 1.0, (size, size), tau, gamma, **kw)
            for gamma, tau in cells]


@pytest.mark.parametrize("make", [
    lambda: [emd(*_grids(6, 0), 5 / 4, tau, gamma, method="sgs",
                 max_iter=4000, record_every=9)
             for gamma, tau in ((1.0, 0.03), (0.8, 0.1), (1.0, 0.1))],
    lambda: [emd(*_grids(6, 1), 5 / 4, tau, gamma, method="iebalm",
                 max_iter=4000, record_every=9)
             for gamma, tau in ((1.0, 0.03), (0.8, 0.1), (0.9, 0.1))],
    lambda: [birkhoff_projection(
        np.random.default_rng(4).random((6, 6)), tau, gamma, method="ebalm",
        record_every=11) for gamma, tau in ((1.0, 0.5), (0.7, 1.0),
                                            (0.75, 2.0))],
    lambda: _tvls_cells(((1.0, 0.01), (0.75, 0.03), (0.75, 0.1)),
                        record_every=7)],
    ids=["emd-sgs", "emd-iebalm", "birkhoff-ebalm", "tvls"])
def test_problem_rows_equal_their_serial_solves(make):
    # non-diagonal dual metrics (sGS, Gram shift with epochs, closed-form
    # Gram shift, blockwise with a box step) and tvls's custom terms
    insts = make()
    reps = solve_batch(insts[0].saddle, [inst.config for inst in insts])
    assert all(r.status == "converged" for r in reps)
    assert len({r.iters for r in reps}) == len(reps)  # leave at other steps
    for rep, inst in zip(reps, insts):
        assert_same_report(rep, inst.solve())


def test_a_block_builds_each_configs_steps_once(monkeypatch):
    # a tvls block whose rows leave at different steps: each config's x and
    # y steps, and its coordinate-descent box kernel, are built once
    built = []

    class Counting(BoxQuadBCD):
        def __init__(self, *a, **k):
            built.append(1)
            super().__init__(*a, **k)
    monkeypatch.setattr(prox, "BoxQuadBCD", Counting)
    insts = _tvls_cells(((1.0, 0.01), (0.75, 0.03), (0.75, 0.1), (1.0, 0.1)),
                        record_every=7)
    p, cfgs = insts[0].saddle, [inst.config for inst in insts]
    calls = {"f": 0, "gstar": 0}
    for side in calls:
        h = getattr(p, side)

        def counted(M, step=h.step, side=side):
            calls[side] += 1
            return step(M)
        monkeypatch.setattr(h, "step", counted)
    reps = solve_batch(p, cfgs)
    assert len({r.iters for r in reps}) == len(cfgs)
    assert calls == {"f": len(cfgs), "gstar": len(cfgs)}
    assert len(built) == len(cfgs)


# -- a block narrowed to one row ----------------------------------------------

def _narrowing_block(monkeypatch, p, cfgs):
    """``solve_batch(p, cfgs)``, with the last row, once alone, stepping on
    vectors: the loop's trailing K x products are all on vectors, one per
    step the last row runs after the others have left."""
    ndims, apply = [], p.K.apply

    def recorded(x):
        ndims.append(x.ndim)
        return apply(x)
    with monkeypatch.context() as m:
        m.setattr(p.K, "apply", recorded)
        reps = solve_batch(p, cfgs)
    last, before = sorted(r.iters for r in reps)[:-3:-1]
    assert last > before
    assert ndims[-(last - before) - 1:] == [2] + [1] * (last - before)
    return reps


@pytest.mark.parametrize("make", [
    lambda: [emd(*_grids(8, 0), 7 / 4, 10.0 ** e, 0.75, method="sgs",
                 max_iter=3000, record_every=7) for e in (-1.75, -1.5, -1.25)],
    lambda: _tvls_cells(((0.75, 0.01), (0.75, 0.03), (0.75, 0.1)),
                        record_every=7)],
    ids=["emd-sgs-8x8", "tvls"])
def test_the_last_row_on_vectors_equals_its_serial_solve(monkeypatch, make):
    insts = make()
    p, cfgs = insts[0].saddle, [inst.config for inst in insts]
    reps = _narrowing_block(monkeypatch, p, cfgs)
    assert len({r.iters for r in reps}) == 3  # rows leave at other steps
    for rep, inst in zip(reps, insts):
        assert rep.status == "converged"
        assert_same_report(rep, inst.solve())


def test_a_game_block_narrowed_past_a_diverged_and_a_capped_row(monkeypatch):
    K = game_matrix(1, 0, 30, 30, centered=True)
    insts = [matrix_game(K, tau, 1.0, tol=1e-4, record_every=5)
             for tau in (0.2, 0.3, 0.5, 0.7)]
    p, cfgs = insts[0].saddle, [inst.config for inst in insts]
    cfgs[0].x0, cfgs[0].override = np.full(30, np.nan), True
    cfgs[2].max_iter = 40
    reps = _narrowing_block(monkeypatch, p, cfgs)
    assert [r.status for r in reps] == ["diverged", "converged", "max-iter",
                                        "converged"]
    for rep, cfg in zip(reps, cfgs):
        assert_same_report(rep, solve(p, cfg))


# -- the per-row arithmetic ---------------------------------------------------

@pytest.mark.parametrize("shape", [(100, 100), (12, 12), (500, 100), (7, 13)])
def test_block_products_and_norms_equal_per_row_vector_products(shape):
    # a numpy or BLAS change that rounds the block products differently
    # must fail here rather than move the CSV bytes of a game sweep
    rng = np.random.default_rng(11)
    m, n = shape
    A = rng.random((m, n)) * 2.0 - 1.0
    S = sp.random(m, n, density=0.2, random_state=rng, format="csr")
    dense, csr = DenseOperator(A), SparseOperator(S)
    # each operator with the vector products it applies to one vector
    for op, mat, adj in ((dense, A, A.T), (csr, S, csr._AT)):
        for B in (1, 2, 5, 22, 41):
            X = rng.standard_normal((B, n))
            Y = rng.standard_normal((B, m))
            KX, KtY = op.apply(X), op.apply_adjoint(Y)
            assert KX.flags.c_contiguous and KtY.flags.c_contiguous
            for i in range(B):
                assert KX[i].tobytes() == (mat @ X[i]).tobytes()
                assert KtY[i].tobytes() == (adj @ Y[i]).tobytes()
    V = rng.standard_normal((41, n))
    assert all(np.vecdot(V, V)[i] == V[i] @ V[i] for i in range(41))


def test_prox_of_a_row_block_is_the_prox_of_each_row():
    rng = np.random.default_rng(17)
    V = rng.standard_normal((4, N)) * 3.0
    for f in CATALOG:
        # one weight per row: every entry takes it, the simplex ones too
        D = np.repeat(rng.random((4, 1)) + 0.5, N, axis=1)
        if not isinstance(f, (IndicatorSimplex, GroupL12, SeparableSum)):
            D = rng.random((4, N)) + 0.5
        block = f.prox_at(D)(V)
        step = f.prox_step(D)(V, V[::-1].copy())
        for i in range(4):
            assert block[i].tobytes() == f.prox_at(D[i])(V[i]).tobytes()
            z, mdz = f.prox_step(D[i])(V[i], V[::-1][i].copy())
            assert step[0][i].tobytes() == z.tobytes()
            assert step[1][i].tobytes() == mdz.tobytes()
