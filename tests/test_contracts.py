"""Contracts the solver engine builds its updates from.

``Proximable.prox_at`` and ``Metric.diagonal`` are what ``_Engine`` asks of
f, g* and the metrics when it picks its proximal updates; the property
tests draw the inputs with hypothesis, the engine tests check the picked
updates against hand computations.
"""

import gc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prepdhg.cli import main
from prepdhg.exceptions import ConfigurationError
from prepdhg.metrics import (BlockDiagMetric, DenseMetric, DiagonalMetric,
                             GramShiftMetric, ScalarMetric, SGSMetric,
                             check_condition, gram_shift_matrix, spd_solver)
from prepdhg.operators import (BirkhoffConstraint, DenseOperator,
                               GridDivergence, SparseOperator, Transpose,
                               VStack)
from prepdhg.problems import (TwoEpochGramSolve, emd, random_balanced_grids,
                              random_sparse_system, red_black_partition,
                              tv_least_squares)
from prepdhg.prox import (GroupL12, IndicatorLinfBall, IndicatorNonneg,
                          IndicatorSimplex, IndicatorSingleton, L1Norm, Linear,
                          QuadraticShift, QuadraticShiftNonneg, SeparableSum,
                          Zero, moreau_conjugate_prox, project_simplex,
                          project_simplex_weighted)
from prepdhg.solver import BoxQuadBCD, SaddleProblem, SolverConfig, _Engine

# fixed example sequences and no example database: the suite stays
# deterministic and writes nothing next to the checkout
PROPS = settings(max_examples=40, deadline=None, derandomize=True,
                 database=None)

N = 8


def _catalog():
    rng = np.random.default_rng(61)
    return [
        Zero(N),
        Linear(rng.standard_normal(N)),
        QuadraticShift(rng.standard_normal(N)),
        QuadraticShiftNonneg(rng.standard_normal(N)),
        IndicatorSimplex(N),
        IndicatorNonneg(N),
        IndicatorLinfBall(N, 0.8),
        IndicatorSingleton(rng.standard_normal(N)),
        L1Norm(N, 1.3),
        GroupL12(2, N // 4),
        SeparableSum([QuadraticShift(rng.standard_normal(2)), L1Norm(3, 0.5),
                      IndicatorSimplex(3)]),
    ]


CATALOG = _catalog()

vectors = arrays(np.float64, N,
                 elements=st.floats(-5.0, 5.0, allow_subnormal=False))
weights = arrays(np.float64, N, elements=st.floats(0.1, 10.0))


def _weights_for(f, d, uniform):
    """Weights ``f`` accepts: GroupL12 needs equal weights within a pair."""
    if uniform:
        return np.full(N, d[0])
    if isinstance(f, GroupL12):
        return np.tile(d[:N // 2], 2)
    return d


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: type(f).__name__)
@PROPS
@given(v=vectors, d=weights, uniform=st.booleans())
def test_prox_at_equals_prox(f, v, d, uniform):
    d = _weights_for(f, d, uniform)
    assert np.array_equal(f.prox_at(d)(v), f.prox(v, d))


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: type(f).__name__)
@PROPS
@given(v=vectors, d=weights, uniform=st.booleans(), w=vectors)
def test_moreau_identity(f, v, d, uniform, w):
    # v = p + D^{-1} u with p = prox_f^D(v) and u = prox_{f*}^{D^{-1}}(Dv);
    # the identity holds because u is a subgradient of f at p, which the
    # subgradient inequality checks at a second point z of the domain
    d = _weights_for(f, d, uniform)
    p = f.prox(v, d)
    u = moreau_conjugate_prox(f, v, d)
    assert np.allclose(v, p + u / d, rtol=0.0, atol=1e-12)
    z = f.prox(w, d)
    gap = f(z) - f(p) - np.dot(u, z - p)
    assert gap >= -1e-9 * (1.0 + np.abs(u).sum() * np.abs(z - p).max())


def _metrics():
    rng = np.random.default_rng(67)
    A = rng.standard_normal((5, 5))
    K = DenseOperator(rng.standard_normal((4, 7)))
    div = GridDivergence(3, 3, 1.0)
    Q = gram_shift_matrix(div, 0.75 * 0.5, 1e-2)
    return [
        ScalarMetric(2.5, 4),
        DiagonalMetric(rng.random(4) + 0.5),
        DenseMetric(A @ A.T + 5.0 * np.eye(5)),
        GramShiftMetric(0.8, 0.6, K, theta=0.1),
        GramShiftMetric(0.8, 0.6, SparseOperator(K.A * (rng.random((4, 7)) < 0.5)),
                        theta=0.1),
        GramShiftMetric(0.8, 0.6, BirkhoffConstraint(3), theta=0.05),
        SGSMetric(Q, red_black_partition(3, 3)),
        BlockDiagMetric([ScalarMetric(1.5, 2), DiagonalMetric([1.0, 2.0, 3.0]),
                         GramShiftMetric(1.0, 0.3, DenseOperator(np.eye(2)),
                                         theta=0.2)]),
    ]


METRICS = _metrics()


@pytest.mark.parametrize("M", METRICS, ids=lambda M: type(M).__name__)
@PROPS
@given(data=st.data())
def test_metric_diagonal_and_inverse(M, data):
    z = data.draw(arrays(np.float64, M.dim, elements=st.floats(-5.0, 5.0)))
    d = M.diagonal()
    assert d is None or np.array_equal(d, M.apply(np.ones(M.dim)))
    assert np.allclose(M.solve(M.apply(z)), z, rtol=0.0, atol=1e-9)


def test_inexact_gauss_seidel_metric_is_not_diagonal():
    # its solve runs a fixed number of sweeps, so only diagonal() applies
    K = GridDivergence(3, 3, 1.0)
    M = TwoEpochGramSolve(1.0, 0.1, K, 1e-3, red_black_partition(3, 3))
    assert M.diagonal() is None


def test_gram_shift_matrix_matches_dense_product():
    rng = np.random.default_rng(71)
    A = rng.standard_normal((3, 5))
    s, theta = 0.7, 0.3
    for op in (DenseOperator(A), SparseOperator(A), Transpose(DenseOperator(A)),
               VStack([DenseOperator(A), DenseOperator(A[:1])]),
               BirkhoffConstraint(3), GridDivergence(2, 3, 0.5)):
        K = op.to_dense()
        Q = gram_shift_matrix(op, s, theta)
        assert Q.format == "csr"
        assert np.allclose(Q.toarray(), s * K @ K.T + theta * np.eye(K.shape[0]),
                           rtol=0.0, atol=1e-12)


def test_gram_shift_matrix_same_for_dense_and_sparse_forms():
    rng = np.random.default_rng(72)
    A = rng.standard_normal((9, 14)) * (rng.random((9, 14)) < 0.4)
    Qd = gram_shift_matrix(DenseOperator(A), 0.37, 1e-3)
    Qs = gram_shift_matrix(SparseOperator(A), 0.37, 1e-3)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(Qd, part), getattr(Qs, part))


def _symmetric_case(n, seed, kind):
    """A symmetric matrix whose definiteness survives rounding: eigenvalues
    of magnitude at least 0.1, or an exactly zero row and column."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 4.0, n)
    if kind.startswith("indefinite"):
        w[rng.integers(n)] *= -1.0
    if kind.endswith("diagonal"):
        return np.diag(w)
    if kind == "banded":
        return np.diag(w) + 0.2 * (np.eye(n, k=1) + np.eye(n, k=-1))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * w) @ Q.T
    A = 0.5 * (A + A.T)
    if kind == "singular":
        j = rng.integers(n)
        A[j, :] = A[:, j] = 0.0
    return A


@PROPS
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["definite", "indefinite", "singular", "banded",
                             "diagonal", "indefinite-diagonal"]),
       as_sparse=st.booleans())
def test_spd_solver_accepts_exactly_what_cholesky_accepts(n, seed, kind,
                                                          as_sparse):
    A = _symmetric_case(n, seed, kind)
    try:
        sla.cho_factor(A)
        definite = True
    except sla.LinAlgError:
        definite = False
    B = sp.csr_matrix(A) if as_sparse else A
    if not definite:
        with pytest.raises(ConfigurationError):
            spd_solver(B)
        return
    solve = spd_solver(B)
    r = np.random.default_rng(seed).standard_normal(n)
    want = np.linalg.solve(A, r)
    assert np.linalg.norm(solve(r) - want) <= 1e-10 * np.linalg.norm(want)


# -- engine ------------------------------------------------------------------

def _block_problem(seed=73):
    rng = np.random.default_rng(seed)
    m1, m2, m3, n = 3, 2, 4, 5
    K = DenseOperator(rng.standard_normal((m1 + m2 + m3, n)))
    b, c, radius = rng.standard_normal(m1), rng.standard_normal(m2), 0.3
    gstar = SeparableSum([Linear(b), QuadraticShift(c),
                          IndicatorLinfBall(m3, radius)])
    A = rng.standard_normal((m1, m1))
    s = 3.0
    G = GramShiftMetric(1.0, 0.7, DenseOperator(rng.standard_normal((m3, 6))),
                        theta=0.5)
    M2 = BlockDiagMetric([DenseMetric(A @ A.T + m1 * np.eye(m1)),
                          ScalarMetric(s, m2), G])
    d1 = rng.random(n) + 2.0
    p = SaddleProblem(f=L1Norm(n, 0.4), gstar=gstar, K=K)
    cfg = SolverConfig(M1=DiagonalMetric(d1), M2=M2, override=True)
    return p, cfg, rng


def test_block_step_equals_hand_computation():
    p, cfg, rng = _block_problem()
    K = p.K.A
    x, y = rng.standard_normal(K.shape[1]), rng.standard_normal(K.shape[0])
    x_new, y_new, Kx_new, m2dy = _Engine(p, cfg).step(x, y)

    d1 = cfg.M1.d
    v = x - K.T @ y / d1
    assert np.allclose(x_new, np.sign(v) * np.maximum(np.abs(v) - 0.4 / d1, 0.0),
                       rtol=0.0, atol=1e-12)
    Kz = 2.0 * K @ x_new - K @ x
    dense, scalar, gram = cfg.M2.metrics
    lin, quad, box = p.gstar.children
    # linear block: y+ = y + A^{-1}(Kz - b), M2 dy = Kz - b
    r = Kz[:3] - lin.b
    assert np.allclose(y_new[:3], y[:3] + np.linalg.solve(dense.A, r),
                       rtol=0.0, atol=1e-12)
    assert np.allclose(m2dy[:3], r, rtol=0.0, atol=1e-14)
    # quadratic block under s*I: (y+ - c) - Kz + s (y+ - y) = 0
    s = scalar.s
    want = (quad.c + Kz[3:5] + s * y[3:5]) / (1.0 + s)
    assert np.allclose(y_new[3:5], want, rtol=0.0, atol=1e-12)
    assert np.allclose(m2dy[3:5], s * (want - y[3:5]), rtol=0.0, atol=1e-12)
    # box block under the Gram shift: the configured coordinate-descent epochs
    bcd = BoxQuadBCD(gram.to_sparse(), box.radius, cfg.bcd_epochs)
    want = bcd.solve(y[5:], Kz[5:])
    assert np.array_equal(y_new[5:], want)
    assert np.any(np.abs(want) == box.radius)  # the box is active
    assert np.allclose(m2dy[5:], gram.apply(want - y[5:]), rtol=0.0,
                       atol=1e-12)
    assert np.allclose(Kx_new, K @ x_new, rtol=0.0, atol=1e-14)


def test_unsupported_nested_pair_rejected_at_setup():
    p, cfg, _ = _block_problem()
    # L1Norm has no update under a dense block metric
    gstar = SeparableSum([L1Norm(3, 1.0), *p.gstar.children[1:]])
    with pytest.raises(ConfigurationError, match="L1Norm"):
        _Engine(SaddleProblem(p.f, gstar, p.K), cfg)
    # nested blocks must conform too
    inner = SeparableSum([Linear(np.zeros(1)), Linear(np.zeros(1))])
    gstar = SeparableSum([p.gstar.children[0], inner, p.gstar.children[2]])
    M2 = BlockDiagMetric([cfg.M2.metrics[0],
                          BlockDiagMetric([DenseMetric(np.eye(2))]),
                          cfg.M2.metrics[2]])
    with pytest.raises(ConfigurationError, match="do not conform"):
        _Engine(SaddleProblem(p.f, gstar, p.K),
                SolverConfig(M1=cfg.M1, M2=M2, override=True))


def test_game_with_nonuniform_primal_weights_takes_weighted_projection():
    rng = np.random.default_rng(79)
    m, n = 4, 5
    # a small K keeps the projected point inside the simplex, where the
    # weighted and the plain projections differ
    K = DenseOperator(0.2 * rng.standard_normal((m, n)))
    p = SaddleProblem(f=IndicatorSimplex(n), gstar=IndicatorSimplex(m), K=K)
    d1 = rng.random(n) + 0.5
    cfg = SolverConfig(M1=DiagonalMetric(d1), M2=ScalarMetric(3.0, m),
                       override=True)
    x, y = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    x_new = _Engine(p, cfg).step(x, y)[0]
    v = x - K.A.T @ y * (1.0 / d1)
    assert np.array_equal(x_new, project_simplex_weighted(v, d1))
    assert not np.allclose(x_new, project_simplex(v))
    # uniform weights take the plain projection
    cfg = SolverConfig(M1=DiagonalMetric(np.full(n, 2.0)),
                       M2=ScalarMetric(3.0, m), override=True)
    x_new = _Engine(p, cfg).step(x, y)[0]
    assert np.array_equal(x_new, project_simplex(x - K.A.T @ y * 0.5))


def test_engine_is_freed_without_the_cycle_collector():
    p, cfg, _ = _block_problem()
    gc.disable()
    try:
        eng = _Engine(p, cfg)
        ref = weakref.ref(eng)
        del eng
        assert ref() is None
    finally:
        gc.enable()


# -- set-up rejections ---------------------------------------------------------

def test_condition_check_without_iterations_rejected():
    # K = [[1]], M1 = 1, M2 = 0.5 has s = 2 > 4/3; a check that runs no
    # iterations would certify it
    K = DenseOperator([[1.0]])
    M1, M2 = ScalarMetric(1.0, 1), ScalarMetric(0.5, 1)
    for kw in ({"max_iter": 0}, {"tol": 0.0}):
        with pytest.raises(ConfigurationError):
            check_condition(M1, None, M2, K, **kw)


def test_zero_bcd_epochs_rejected():
    with pytest.raises(ConfigurationError, match="epoch"):
        BoxQuadBCD(np.eye(3), 1.0, epochs=0)
    R = random_sparse_system(8, 16, 0.2, 0)
    # a run that never moves the box block would report max-iter
    inst = tv_least_squares(R, R.apply(np.ones(16)), 1.0, (4, 4), 0.01, 0.75,
                            max_iter=50, bcd_epochs=0)
    with pytest.raises(ConfigurationError, match="epoch"):
        inst.solve()
    rho0, rho1 = random_balanced_grids(4, 4, 0)
    with pytest.raises(ConfigurationError, match="epoch"):
        emd(rho0, rho1, 0.75, 0.05, 1.0, method="iebalm", bcd_epochs=0)


def test_cli_zero_bcd_epochs_exits_one(tmp_path, capsys):
    code = main(["tvls", "--size", "4,4", "--taus", "0.01", "--workers", "1",
                 "--max-iter", "50", "--bcd-epochs", "0",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err
