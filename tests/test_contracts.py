"""Contracts the solver engine builds its updates from.

``Proximable.step`` builds the proximal update of either subproblem from
``Metric.diagonal`` and ``Proximable.prox_at``, or from the entry's own
``metric_step``; the property tests draw the inputs with hypothesis, the
engine tests check the picked updates against the earlier per-side builders
and against hand computations.
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

from prepdhg import prox as prox_module
from prepdhg.cli import main
from prepdhg.exceptions import ConfigurationError
from prepdhg.metrics import (BlockDiagMetric, BoxQuadBCD, DenseMetric,
                             DiagonalMetric, GramShiftMetric, ScalarMetric,
                             SGSMetric, _shifted_solver, check_condition,
                             gram_shift_matrix, spd_solver)
from prepdhg.operators import (BirkhoffConstraint, DenseOperator,
                               GridDivergence, SparseOperator, Transpose,
                               VStack)
from prepdhg.problems import (TwoEpochGramSolve, emd, random_balanced_grids,
                              random_sparse_system, red_black_partition,
                              tv_least_squares)
from prepdhg.prox import (GroupL12, IndicatorLinfBall, IndicatorNonneg,
                          IndicatorSimplex, IndicatorSingleton, L1Norm, Linear,
                          Proximable, QuadraticShift, QuadraticShiftNonneg,
                          SeparableSum, Zero, moreau_conjugate_prox,
                          project_simplex, project_simplex_weighted)
from prepdhg.solver import SaddleProblem, SolverConfig, _Engine

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


def _group_shrink(g, v, d):
    mn = g.M * g.N
    v = np.where(g.zero_mask, 0.0, v)
    a, b = v[:mn], v[mn:]
    norms = np.hypot(a, b)
    scale = np.zeros_like(norms)
    pos = norms > 0
    scale[pos] = np.maximum(0.0, 1.0 - 1.0 / (d[:mn][pos] * norms[pos]))
    return np.concatenate([a * scale, b * scale])


#: each entry's weighted prox (v, d) -> prox_f^D(v) written out on its own,
#: as the entries computed it before ``prox`` derived from ``prox_at``
_REFERENCE_PROX = {
    Zero: lambda f, v, d: v - f.b / d,
    Linear: lambda f, v, d: v - f.b / d,
    QuadraticShift: lambda f, v, d: (d * v + f.c) / (d + 1.0),
    QuadraticShiftNonneg:
        lambda f, v, d: np.maximum(0.0, (d * v + f.c) / (d + 1.0)),
    IndicatorSimplex: lambda f, v, d: (project_simplex(v) if np.all(d == d[0])
                                       else project_simplex_weighted(v, d)),
    IndicatorNonneg: lambda f, v, d: np.maximum(v, 0.0),
    IndicatorLinfBall: lambda f, v, d: np.clip(v, -f.radius, f.radius),
    IndicatorSingleton: lambda f, v, d: f.b.copy(),
    L1Norm: lambda f, v, d:
        np.sign(v) * np.maximum(np.abs(v) - f.weight / d, 0.0),
    GroupL12: _group_shrink,
    SeparableSum: lambda f, v, d: np.concatenate(
        [_REFERENCE_PROX[type(c)](c, vi, di)
         for c, vi, di in zip(f.children, f.blocks(v), f.blocks(d))]),
}


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: type(f).__name__)
@PROPS
@given(v=vectors, d=weights, uniform=st.booleans())
def test_prox_matches_the_reference_formulas(f, v, d, uniform):
    d = _weights_for(f, d, uniform)
    expect = _REFERENCE_PROX[type(f)](f, v, d)
    assert np.array_equal(f.prox(v, d), expect)
    assert np.array_equal(f.prox_at(d)(v), expect)


def test_entries_implement_only_prox_at():
    entries = [c for c in vars(prox_module).values() if isinstance(c, type)
               and issubclass(c, Proximable) and c is not Proximable]
    assert set(entries) == set(_REFERENCE_PROX)
    assert [c.__name__ for c in entries if "prox" in vars(c)] == []
    assert all("prox_at" in vars(c) for c in entries)


@pytest.mark.parametrize("bad", [np.zeros(N), -np.ones(N), np.ones(N - 1),
                                 np.full(N, np.nan)])
def test_zero_prox_checks_its_weights(bad):
    with pytest.raises(ValueError):
        Zero(N).prox(np.ones(N), bad)
    with pytest.raises(ValueError):
        Zero(N).prox_at(bad)


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


def test_inexact_gauss_seidel_metric_applies_its_gram_shift():
    rng = np.random.default_rng(72)
    K = GridDivergence(4, 5, 0.6)
    gamma, tau, theta = 0.8, 0.3, 1e-3
    M = TwoEpochGramSolve(gamma, tau, K, theta, red_black_partition(4, 5))
    z = rng.standard_normal(K.rows)
    want = gamma * (tau * K.apply(K.apply_adjoint(z)) + theta * z)
    assert np.allclose(M.apply(z), want, rtol=1e-14, atol=0.0)
    assert np.array_equal(M.apply(z), gamma * (M.Mhat @ z))


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


# -- one proximal step for both subproblems -----------------------------------
#
# The two reference builders below are the earlier per-side ladders: the x
# update checked the diagonal metric first, the y update checked a linear g*
# first, and the loop applied M1 to x+ - x itself.  ``Proximable.step`` must
# give the same bits on every pair either side supported, with q = K^T y on
# the x side and q = -Kz, Kz = K(2x+ - x), on the y side.

def x_update_reference(f, M1):
    """``(x, K^T y) -> (x+, M1 (x+ - x))``."""
    d = M1.diagonal()
    m1_apply = M1.apply if d is None else (lambda dx: d * dx)
    if d is not None:
        fprox, inv_d = f.prox_at(d), 1.0 / d

        def up(x, Kty):
            return fprox(x - Kty * inv_d)
    elif isinstance(f, Linear):
        def up(x, Kty):
            return x - M1.solve(Kty + f.b)
    elif isinstance(f, QuadraticShift):
        _, qs_solve = _shifted_solver(M1, 2.0 * np.ones(f.dim))

        def up(x, Kty):
            return qs_solve(M1.apply(x) - Kty + f.c)
    else:
        raise ConfigurationError("unsupported")

    def step(x, Kty):
        x_new = up(x, Kty)
        return x_new, m1_apply(x_new - x)
    return step


def y_update_reference(g, M2, bcd_epochs):
    """``(y, Kz) -> (y+, M2 (y+ - y))``."""
    if isinstance(g, Linear):
        def linear(y, Kz):
            r = Kz - g.b
            return y + M2.solve(r), r
        return linear
    d = M2.diagonal()
    if d is not None:
        gprox, inv_d = g.prox_at(d), 1.0 / d

        def prox(y, Kz):
            y_new = gprox(y + Kz * inv_d)
            return y_new, d * (y_new - y)
        return prox
    blocks = getattr(M2, "metrics", None)
    if isinstance(g, SeparableSum) and blocks is not None:
        if [c.dim for c in g.children] != [m.dim for m in blocks]:
            raise ConfigurationError("do not conform")
        ends = np.cumsum([m.dim for m in blocks])
        parts = [(slice(e - m.dim, e), y_update_reference(c, m, bcd_epochs))
                 for c, m, e in zip(g.children, blocks, ends)]

        def blockwise(y, Kz):
            y_new, m2dy = np.empty_like(y), np.empty_like(y)
            for sl, up in parts:
                y_new[sl], m2dy[sl] = up(y[sl], Kz[sl])
            return y_new, m2dy
        return blockwise
    if isinstance(g, IndicatorLinfBall):
        bcd = BoxQuadBCD(M2.to_sparse(), g.radius, bcd_epochs)

        def box(y, Kz):
            y_new = bcd.solve(y, Kz)
            return y_new, M2.apply(y_new - y)
        return box
    raise ConfigurationError("unsupported")


def _functions_for(M, rng):
    """Catalog entries of dimension ``M.dim``; under a block metric, also
    separable sums that conform to its blocks."""
    n = M.dim
    fs = [Zero(n), Linear(rng.standard_normal(n)),
          QuadraticShift(rng.standard_normal(n)),
          QuadraticShiftNonneg(rng.standard_normal(n)), IndicatorSimplex(n),
          IndicatorNonneg(n), IndicatorLinfBall(n, 0.3),
          IndicatorSingleton(rng.standard_normal(n)), L1Norm(n, 1.3),
          SeparableSum([L1Norm(1, 0.5), IndicatorNonneg(n - 1)])]
    if n % 2 == 0:
        fs.append(GroupL12(2, n // 4) if n % 4 == 0 else GroupL12(1, n // 2))
    blocks = getattr(M, "metrics", None)
    if blocks is not None:
        dims = [m.dim for m in blocks]
        fs.append(SeparableSum([QuadraticShift(rng.standard_normal(dims[0])),
                                L1Norm(dims[1], 0.7),
                                IndicatorLinfBall(dims[2], 0.3)]))
        fs.append(SeparableSum([IndicatorNonneg(dims[0]),
                                IndicatorSimplex(dims[1]),
                                Linear(rng.standard_normal(dims[2]))]))
    return fs


def _pairs():
    rng = np.random.default_rng(83)
    return [(f, M) for M in METRICS for f in _functions_for(M, rng)]


PAIRS = _pairs()


def _built(builder, *args):
    try:
        return builder(*args)
    except ConfigurationError:
        return None


def _pair_id(pair):
    f, M = pair
    return f"{type(f).__name__}-{type(M).__name__}{M.dim}"


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_prox_step_reproduces_the_earlier_x_update(pair):
    f, M1 = pair
    ref = _built(x_update_reference, f, M1)
    if ref is None:
        return  # a pair the x side did not support
    step = f.step(M1)
    rng = np.random.default_rng(89)
    for _ in range(3):
        x, Kty = rng.standard_normal((2, M1.dim))
        x_ref, m1dx_ref = ref(x, Kty)
        x_new, m1dx = step(x, Kty)
        assert np.array_equal(x_new, x_ref)
        if M1.diagonal() is not None:
            assert np.array_equal(m1dx, m1dx_ref)
        else:  # a linear f gives M1 (x+ - x) = -(K^T y + b) without M1.apply
            assert np.allclose(m1dx, m1dx_ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_prox_step_reproduces_the_earlier_y_update(pair):
    g, M2 = pair
    ref = _built(y_update_reference, g, M2, 2)
    if ref is None:
        return  # a pair the y side did not support
    step = g.step(M2)
    # a linear g* under a diagonal M2 now takes the diagonal prox, which
    # rounds (y + Kz/d) - b/d instead of y + (Kz - b)/d
    rounded = isinstance(g, Linear) and M2.diagonal() is not None
    rng = np.random.default_rng(97)
    for _ in range(3):
        y, Kz = rng.standard_normal((2, M2.dim))
        y_ref, m2dy_ref = ref(y, Kz)
        y_new, m2dy = step(y, -Kz)
        if rounded:
            scale = np.abs(y_ref).max()
            assert np.abs(y_new - y_ref).max() <= 1e-14 * scale
            assert np.abs(m2dy - m2dy_ref).max() <= 1e-14 * scale \
                * np.abs(M2.diagonal()).max()
        else:
            assert np.array_equal(y_new, y_ref)
            assert np.array_equal(m2dy, m2dy_ref)


def _gram_shift(rng, m, n, theta=0.5):
    return GramShiftMetric(1.0, 0.7, DenseOperator(rng.standard_normal((m, n))),
                           theta=theta)


def test_prox_step_shifted_quadratic_under_dense_metric():
    # a quadratic g* under a dense M2 was unsupported on the y side; the
    # optimality condition is (z - c) + q + M (z - w) = 0
    rng = np.random.default_rng(101)
    A = rng.standard_normal((5, 5))
    M = DenseMetric(A @ A.T + 5.0 * np.eye(5))
    h = QuadraticShift(rng.standard_normal(5))
    assert _built(y_update_reference, h, M, 2) is None
    w, q = rng.standard_normal((2, 5))
    z, mdz = h.step(M)(w, q)
    assert np.allclose(mdz, M.A @ (z - w), rtol=0.0, atol=1e-12)
    assert np.allclose((z - h.c) + q + mdz, 0.0, rtol=0.0, atol=1e-12)


def test_prox_step_box_under_gram_shift_metric():
    # a box f under a Gram-shift M1 was unsupported on the x side; with
    # enough coordinate-descent epochs the box KKT conditions hold
    rng = np.random.default_rng(103)
    M = _gram_shift(rng, 6, 4)
    h = IndicatorLinfBall(6, 1.0, epochs=500)
    assert _built(x_update_reference, h, M) is None
    w, q = rng.standard_normal((2, 6))
    z, mdz = h.step(M)(w, q)
    assert np.allclose(mdz, M.apply(z - w), rtol=0.0, atol=1e-14)
    grad = q + mdz  # of <q, z> + 1/2 ||z - w||_M^2
    r, eps = h.radius, 1e-14
    assert np.all(np.abs(z) <= r)
    upper, lower = z >= r - eps, z <= -r + eps
    free = ~(upper | lower)
    assert np.any(upper | lower) and np.any(free)  # the box is active
    assert np.allclose(grad[free], 0.0, rtol=0.0, atol=1e-10)
    assert np.all(grad[upper] <= 1e-10) and np.all(grad[lower] >= -1e-10)


def test_prox_step_box_update_never_leaves_the_box():
    # here y0 + delta rounds 5.6e-17 past the radius, where the box
    # indicator would score the iterate as infinite
    rng = np.random.default_rng(103)
    M = _gram_shift(rng, 6, 4)
    h = IndicatorLinfBall(6, 0.3, epochs=500)
    w, q = rng.standard_normal((2, 6))
    z, _ = h.step(M)(w, q)
    assert np.max(np.abs(z)) <= h.radius
    assert h(z) == 0.0


def test_prox_step_separable_sum_under_block_metric():
    # a separable f under a block-diagonal M1 was unsupported on the x side
    rng = np.random.default_rng(107)
    A = rng.standard_normal((3, 3))
    dense = DenseMetric(A @ A.T + 3.0 * np.eye(3))
    scalar = ScalarMetric(2.0, 4)
    gram = _gram_shift(rng, 2, 3)
    M = BlockDiagMetric([scalar, dense, gram])
    l1 = L1Norm(4, 0.4)
    lin = Linear(rng.standard_normal(3))
    quad = QuadraticShift(rng.standard_normal(2))
    h = SeparableSum([l1, lin, quad])
    assert _built(x_update_reference, h, M) is None
    w, q = 2.0 * rng.standard_normal((2, 9))
    # the l1 block: two entries thresholded to zero, two kept
    w[:4], q[:4] = [1.0, 0.05, -1.0, 0.0], [0.2, 0.1, -0.1, 0.0]
    z, mdz = h.step(M)(w, q)
    assert np.allclose(mdz, M.apply(z - w), rtol=0.0, atol=1e-12)
    # l1 block: 0 in 0.4 * sign(z) + q + s (z - w)
    g = -(q[:4] + mdz[:4])
    on = z[:4] != 0.0
    assert np.any(on) and np.any(~on)
    assert np.allclose(g[on], l1.weight * np.sign(z[:4][on]), rtol=0.0,
                       atol=1e-12)
    assert np.all(np.abs(g[~on]) <= l1.weight + 1e-12)
    # linear block: b + q + M (z - w) = 0
    assert np.allclose(lin.b + q[4:7] + mdz[4:7], 0.0, rtol=0.0, atol=1e-12)
    # quadratic block: (z - c) + q + M (z - w) = 0
    assert np.allclose(z[7:] - quad.c + q[7:] + mdz[7:], 0.0, rtol=0.0,
                       atol=1e-12)


def test_unsupported_pair_names_both_types():
    M = _gram_shift(np.random.default_rng(109), 4, 3)
    with pytest.raises(ConfigurationError,
                       match=r"L1Norm.*GramShiftMetric"):
        L1Norm(4).step(M)


def test_steps_are_named_by_their_case():
    rng = np.random.default_rng(127)
    A = rng.standard_normal((4, 4))
    dense = DenseMetric(A @ A.T + 4.0 * np.eye(4))
    gram = _gram_shift(rng, 4, 3)
    block = BlockDiagMetric([ScalarMetric(2.0, 2), gram])
    cases = [(L1Norm(4), DiagonalMetric(rng.random(4) + 1.0), "prox"),
             (IndicatorLinfBall(4, 0.3), ScalarMetric(2.0, 4), "prox"),
             (Linear(rng.standard_normal(4)), dense, "linear"),
             (Zero(4), gram, "linear"),
             (QuadraticShift(rng.standard_normal(4)), dense, "shifted"),
             (SeparableSum([L1Norm(2), IndicatorLinfBall(4, 0.3)]), block,
              "blockwise"),
             (IndicatorLinfBall(4, 0.3), gram, "box")]
    for h, M, name in cases:
        assert h.step(M).__name__ == name


@pytest.mark.parametrize("dense", [False, True])
def test_step_returns_the_primal_metric_times_the_move(dense):
    # the loop reads M1 (x+ - x) from the step instead of applying M1
    rng = np.random.default_rng(113)
    K = DenseOperator(rng.standard_normal((4, 5)))
    if dense:  # a linear f hands back -(K^T y + b), not M1.apply
        A = rng.standard_normal((5, 5))
        M1, f = DenseMetric(A @ A.T + 5.0 * np.eye(5)), \
            Linear(rng.standard_normal(5))
    else:
        M1, f = DiagonalMetric(rng.random(5) + 0.5), L1Norm(5, 0.3)
    p = SaddleProblem(f=f, gstar=Linear(rng.standard_normal(4)), K=K)
    cfg = SolverConfig(M1=M1, M2=ScalarMetric(3.0, 4), override=True)
    x, y = rng.standard_normal(5), rng.standard_normal(4)
    x_new, _, _, m1dx, _ = _Engine(p, cfg).step(x, y)
    if dense:
        assert np.allclose(m1dx, M1.apply(x_new - x), rtol=1e-12, atol=1e-12)
    else:
        assert np.array_equal(m1dx, M1.apply(x_new - x))


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
    x_new, y_new, Kx_new, m1dx, m2dy = _Engine(p, cfg).step(x, y)

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
    # box block under the Gram shift: the box's own coordinate-descent epochs
    bcd = BoxQuadBCD(gram.to_sparse(), box.radius, box.epochs)
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
