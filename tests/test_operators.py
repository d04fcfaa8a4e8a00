import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.io import mmwrite

from prepdhg import metrics, operators
from prepdhg.exceptions import ConfigurationError
from prepdhg.metrics import build_diag_preconditioner, gram_shift_matrix
from prepdhg.operators import (BirkhoffConstraint, DenseOperator,
                               GridDivergence, SparseOperator, Transpose,
                               VStack, csr_matvec, load_dense, load_sparse,
                               spectral_norm_sq)
from prepdhg.problems import (emd, game_matrix, random_balanced_grids,
                              random_sparse_system, tv_least_squares)

from helpers import CountingOperator, power_iteration_reference


# The earlier matrix-free forms of the grid operators, kept as references
# for the CSR products that replaced them.

def divergence_stencil(op, x):
    M, N = op.M, op.N
    m1 = x[: M * N].reshape(M, N).copy()
    m2 = x[M * N :].reshape(M, N).copy()
    m1[M - 1, :] = 0.0
    m2[:, N - 1] = 0.0
    d = m1 + m2
    d[1:, :] -= m1[:-1, :]
    d[:, 1:] -= m2[:, :-1]
    return op.h * d.ravel()


def divergence_stencil_adjoint(op, y):
    M, N = op.M, op.N
    Y = y.reshape(M, N)
    a1 = np.zeros((M, N))
    a2 = np.zeros((M, N))
    a1[: M - 1, :] = Y[: M - 1, :] - Y[1:, :]
    a2[:, : N - 1] = Y[:, : N - 1] - Y[:, 1:]
    return op.h * np.concatenate([a1.ravel(), a2.ravel()])


def vstack_loop(children, x):
    return np.concatenate([c.apply(x) for c in children])


def vstack_loop_adjoint(children, y):
    offsets = np.cumsum([0] + [c.rows for c in children])
    out = np.zeros(children[0].cols)
    for c, lo, hi in zip(children, offsets[:-1], offsets[1:]):
        out += c.apply_adjoint(y[lo:hi])
    return out


def assert_close(got, want):
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def all_test_operators():
    rng = np.random.default_rng(42)
    return [
        DenseOperator(rng.standard_normal((5, 7))),
        SparseOperator(sp.random(9, 6, density=0.4, random_state=rng)),
        GridDivergence(3, 4, 0.7),
        GridDivergence(1, 5, 1.3),
        BirkhoffConstraint(4),
        VStack([DenseOperator(rng.standard_normal((3, 6))),
                SparseOperator(sp.random(4, 6, density=0.5, random_state=rng))]),
        Transpose(GridDivergence(4, 4, 1.0)),
    ]


def test_dense_apply_is_column_extraction():
    K = DenseOperator([[1, 2], [3, 4]])
    assert np.allclose(K.apply([1, 0]), [1, 3])
    assert np.allclose(K.apply_adjoint([1, 0]), [1, 2])


def test_dense_dimension_mismatch():
    K = DenseOperator([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        K.apply([1, 2, 3])
    with pytest.raises(ValueError):
        K.apply_adjoint([1])


def test_birkhoff_identity_is_doubly_stochastic():
    K = BirkhoffConstraint(2)
    out = K.apply(np.eye(2).ravel())
    assert np.allclose(out, np.ones(4))


def test_birkhoff_adjoint_of_all_ones():
    # K^T e = (row-sum part) + (col-sum part) = all-twos matrix, flattened
    for n in (2, 3, 5):
        K = BirkhoffConstraint(n)
        assert np.allclose(K.apply_adjoint(np.ones(2 * n)), 2.0 * np.ones(n * n))


def test_grid_divergence_stencil_by_hand():
    # M=1, N=2, h=1: only m2[0,0] is free; div = (m2[0,0], -m2[0,0])
    div = GridDivergence(1, 2, 1.0)
    x = np.zeros(4)
    x[2] = 1.0
    assert np.allclose(div.apply(x), [1.0, -1.0])
    # h scales linearly
    div_h = GridDivergence(1, 2, 2.5)
    assert np.allclose(div_h.apply(x), [2.5, -2.5])


def test_grid_divergence_boundary_convention():
    # structural zero slots are ignored on input and zero in the adjoint
    div = GridDivergence(3, 3, 1.0)
    mask = div.boundary_mask()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(div.cols)
    x_zeroed = x.copy()
    x_zeroed[mask] = 0.0
    assert np.allclose(div.apply(x), div.apply(x_zeroed))
    adj = div.apply_adjoint(rng.standard_normal(div.rows))
    assert np.all(adj[mask] == 0.0)


@pytest.mark.parametrize("op", all_test_operators(),
                         ids=lambda o: type(o).__name__ + str(o.shape))
def test_adjoint_consistency(op):
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.standard_normal(op.cols)
        y = rng.standard_normal(op.rows)
        Kx = op.apply(x)
        gap = abs(np.dot(Kx, y) - np.dot(x, op.apply_adjoint(y)))
        assert gap <= 1e-12 * (1.0 + np.linalg.norm(Kx) * np.linalg.norm(y))


def test_vstack_concatenates_and_sums():
    rng = np.random.default_rng(3)
    A = DenseOperator(rng.standard_normal((3, 5)))
    B = DenseOperator(rng.standard_normal((2, 5)))
    V = VStack([A, B])
    x = rng.standard_normal(5)
    assert np.allclose(V.apply(x), np.concatenate([A.apply(x), B.apply(x)]))
    y = rng.standard_normal(5)
    assert np.allclose(V.apply_adjoint(y),
                       A.apply_adjoint(y[:3]) + B.apply_adjoint(y[3:]))


def test_vstack_rejects_mismatched_children():
    with pytest.raises(ValueError):
        VStack([DenseOperator(np.ones((2, 3))), DenseOperator(np.ones((2, 4)))])


def test_spectral_norm_identity():
    est = spectral_norm_sq(DenseOperator(np.eye(2)))
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-10)


def test_spectral_norm_birkhoff_is_2n():
    for n in (2, 4, 7):
        est = spectral_norm_sq(BirkhoffConstraint(n), tol=1e-12)
        assert est.converged
        assert est.value == pytest.approx(2.0 * n, rel=1e-8)


def test_spectral_norm_vs_dense_eig_oracle():
    K = DenseOperator([[1.0, 1.0], [1.0, 1.0]])
    oracle = np.linalg.eigvalsh(K.A.T @ K.A)[-1]
    assert oracle == pytest.approx(4.0)
    est = spectral_norm_sq(K, tol=1e-12)
    assert est.value == pytest.approx(oracle, rel=1e-10)


def test_spectral_norm_lower_bound_property():
    rng = np.random.default_rng(11)
    for _ in range(10):
        A = rng.standard_normal((6, 5))
        est = spectral_norm_sq(DenseOperator(A), tol=1e-12)
        exact = np.linalg.eigvalsh(A.T @ A)[-1]
        assert est.value <= exact * (1 + 1e-9)
        assert est.value == pytest.approx(exact, rel=1e-7)


@pytest.mark.parametrize("M,N", [(4, 4), (8, 8), (16, 16), (4, 8)])
def test_grid_divergence_norm_bounded_by_8h2(M, N):
    for h in (1.0, 0.5):
        est = spectral_norm_sq(GridDivergence(M, N, h), tol=1e-10)
        assert est.value <= 8.0 * h * h * (1 + 1e-9)


@pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_grid_divergence_refuses_a_bad_step(h):
    # at h = 0 the divergence is zero and every emd solve runs to max_iter
    with pytest.raises(ConfigurationError, match="grid step h"):
        GridDivergence(4, 4, h)


@pytest.mark.parametrize("op", [
    game_matrix(1, 0, 100, 100, centered=True),  # the game-sweep benchmark's K
    GridDivergence(16, 16, 3.75),
    BirkhoffConstraint(7),
    VStack([SparseOperator(sp.random(20, 32, density=0.2, random_state=3)),
            Transpose(GridDivergence(4, 8, 1.0))]),
], ids=["game", "divergence", "birkhoff", "vstack"])
@pytest.mark.parametrize("tol, max_iter", [(1e-10, 2000), (1e-12, 7)])
def test_power_iteration_is_bitwise_the_norm_loop(op, tol, max_iter):
    # the norms are sqrt(v . v), numpy's own formula for a real vector's
    # norm, so each estimate is the earlier np.linalg.norm loop's bitwise
    got = operators._power_iteration(op, tol, max_iter)
    want = power_iteration_reference(op, tol, max_iter)
    assert got.value.hex() == want.value.hex()
    assert got[1:] == want[1:]


def test_spectral_norm_one_product_each_way_per_iteration():
    rng = np.random.default_rng(5)
    op = CountingOperator(rng.standard_normal((40, 30)))
    est = spectral_norm_sq(op, tol=1e-12)
    assert est.converged and est.iterations > 5
    assert op.calls <= 2 * est.iterations + 1


def test_vstack_sparse_form_stacks_children():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 4))
    op = VStack([GridDivergence(2, 1, 0.5), SparseOperator(A),
                 BirkhoffConstraint(2)])
    S = op.to_sparse()
    assert S.format == "csr"
    assert np.array_equal(S.toarray(), op.to_dense())
    # past the size that to_dense materializes
    big = VStack([GridDivergence(40, 40)] * 2)
    assert big.to_sparse().shape == (3200, 3200)


def test_spectral_norm_nonconvergence_flagged():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 30))
    est = spectral_norm_sq(DenseOperator(A), tol=1e-14, max_iter=2)
    assert not est.converged


def test_grid_divergence_sparse_matches_dense():
    div = GridDivergence(3, 5, 0.8)
    assert np.allclose(div.to_sparse().toarray(), div.to_dense())


def test_to_sparse_matches_dense():
    rng = np.random.default_rng(9)
    div = GridDivergence(3, 4, 0.7)
    ops = [DenseOperator(rng.standard_normal((3, 5))), BirkhoffConstraint(3),
           div, Transpose(div), Transpose(BirkhoffConstraint(2)),
           VStack([DenseOperator(rng.standard_normal((2, 12))), Transpose(div)])]
    for op in ops:
        S = op.to_sparse()
        assert sp.isspmatrix_csr(S) and S.shape == op.shape
        assert np.array_equal(S.toarray(), op.to_dense())


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_birkhoff_sparse_form_is_the_probed_csr(n):
    K = BirkhoffConstraint(n)
    S, want = K.to_sparse(), sp.csr_matrix(K.to_dense())
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(S, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_birkhoff_diagonal_preconditioner_past_the_probe_cap():
    # the probe refuses past 2^22 entries (n = 150: 300 x 22,500); the sparse
    # form sums each row's and column's n ones
    M1, M2 = build_diag_preconditioner(BirkhoffConstraint(150), 1, 0, 1, 1)
    assert np.array_equal(M1.diagonal(), np.full(150 * 150, 2.0))
    assert np.array_equal(M2.diagonal(), np.full(300, 150.0))


def test_loaders_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 4))
    p_txt = tmp_path / "dense.txt"
    np.savetxt(p_txt, A)
    K = load_dense(p_txt)
    assert np.allclose(K.A, A)
    S = sp.random(5, 4, density=0.5, random_state=rng)
    p_mtx = tmp_path / "mat.mtx"
    from scipy.io import mmwrite
    mmwrite(p_mtx, S)
    K2 = load_sparse(p_mtx)
    assert np.allclose(K2.to_dense(), S.toarray())


@pytest.mark.parametrize("M,N,h", [(1, 1, 1.0), (1, 5, 1.3), (4, 1, 0.5),
                                   (3, 4, 0.7), (16, 16, 3.75)])
def test_grid_divergence_matches_the_stencil(M, N, h):
    rng = np.random.default_rng(M * 100 + N)
    div = GridDivergence(M, N, h)
    for _ in range(5):
        x = rng.standard_normal(div.cols)  # structural-zero slots nonzero too
        y = rng.standard_normal(div.rows)
        assert_close(div.apply(x), divergence_stencil(div, x))
        assert_close(div.apply_adjoint(y), divergence_stencil_adjoint(div, y))
        grad = Transpose(div)
        assert_close(grad.apply(y), divergence_stencil_adjoint(div, y))
        assert_close(grad.apply_adjoint(x), divergence_stencil(div, x))


def test_vstack_matches_the_children_loop():
    rng = np.random.default_rng(12)
    div = GridDivergence(5, 6, 0.9)
    R = SparseOperator(sp.random(40, 30, density=0.1, random_state=rng))
    mixed = [DenseOperator(rng.standard_normal((7, 60))), div,
             SparseOperator(sp.random(9, 60, density=0.2, random_state=rng))]
    for children in ([R, Transpose(div)], mixed):
        op = VStack(children)
        for _ in range(5):
            x = rng.standard_normal(op.cols)
            y = rng.standard_normal(op.rows)
            assert_close(op.apply(x), vstack_loop(children, x))
            assert_close(op.apply_adjoint(y), vstack_loop_adjoint(children, y))


def test_stored_sparse_form_survives_its_callers():
    R = SparseOperator(sp.random(20, 16, density=0.2,
                                 random_state=np.random.default_rng(4)))
    div = GridDivergence(4, 4, 0.5)
    for op in (div, Transpose(div), VStack([R, Transpose(div)])):
        S = op.to_sparse()
        before = (S.indptr.copy(), S.indices.copy(), S.data.copy())
        gram_shift_matrix(op, 0.7, 1e-3)
        build_diag_preconditioner(op, 1.0, 1e-3, 1.0, 1.0)
        build_diag_preconditioner(op, 0.0, 1e-3, 1.0, 1.0)
        assert op.to_sparse() is S
        assert all(np.array_equal(a, b) for a, b in
                   zip((S.indptr, S.indices, S.data), before))


# An operator owns its matrix, so ``spectral_norm_sq`` may memoize its
# estimate on it.

def test_wrapped_matrices_are_copies_of_their_own():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((7, 5))
    S = sp.random(9, 6, density=0.4, format="csr", random_state=rng)
    x = rng.standard_normal(5)
    xs = rng.standard_normal(6)
    fresh = [spectral_norm_sq(DenseOperator(A.copy())),
             spectral_norm_sq(SparseOperator(S.copy()))]
    dense, sparse = DenseOperator(A), SparseOperator(S)
    want = [(op.apply(v).tobytes(), spectral_norm_sq(op))
            for op, v in ((dense, x), (sparse, xs))]
    A *= 3.0
    S.data *= 3.0
    for (op, v), (y, est), new in zip(((dense, x), (sparse, xs)), want, fresh):
        assert op.apply(v).tobytes() == y
        assert spectral_norm_sq(op) is est
        assert est == new  # the memo holds what a fresh iteration returns


def test_dense_operator_matrix_is_read_only():
    op = DenseOperator(np.ones((2, 3)))
    assert not op.A.flags.writeable
    with pytest.raises(ValueError):
        op.A[0, 0] = 2.0
    assert op.to_dense().flags.writeable  # a copy the caller may change


def test_spectral_memo_keys_on_tol_and_max_iter():
    op = CountingOperator(np.random.default_rng(22).standard_normal((20, 15)))
    keys = [(1e-6, 2000), (1e-12, 2000), (1e-12, 3)]
    ests, calls = [], []
    for tol, max_iter in keys:
        before = op.calls
        ests.append(spectral_norm_sq(op, tol=tol, max_iter=max_iter))
        calls.append(op.calls - before)
    assert all(c > 0 for c in calls)
    assert ests[0].iterations < ests[1].iterations
    assert not ests[2].converged and ests[2].iterations == 3
    before = op.calls
    assert [spectral_norm_sq(op, tol=t, max_iter=k) for t, k in keys] == ests
    assert op.calls == before


def test_spectral_memo_survives_pickling():
    op = CountingOperator(np.random.default_rng(23).standard_normal((8, 6)))
    est = spectral_norm_sq(op)
    back = pickle.loads(pickle.dumps(op))
    back.calls = 0
    assert spectral_norm_sq(back) == est and back.calls == 0


def test_spectral_norm_refuses_a_nan_tol():
    with pytest.raises(ValueError, match="tol must be positive"):
        spectral_norm_sq(DenseOperator(np.eye(2)), tol=np.nan)


# ``csr_matvec`` calls the C kernel behind ``A @ x`` directly; these pin it
# to ``A @ x`` byte for byte.

def assert_same_bytes(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def random_csr_with_empty_rows(rng, m, n):
    A = sp.random(m, n, density=0.3, random_state=rng,
                  data_rvs=rng.standard_normal, format="lil")
    A[rng.choice(m, m // 3, replace=False)] = 0.0
    return sp.csr_matrix(A)


@pytest.mark.parametrize("seed", range(5))
def test_csr_matvec_is_the_product_with_empty_rows(seed):
    rng = np.random.default_rng(700 + seed)
    m, n = (int(v) for v in rng.integers(3, 40, size=2))
    A = random_csr_with_empty_rows(rng, m, n)
    assert np.any(np.diff(A.indptr) == 0)
    for _ in range(3):
        x = rng.standard_normal(n)
        assert_same_bytes(csr_matvec(A, x), A @ x)


def test_csr_matvec_on_a_strided_vector():
    rng = np.random.default_rng(710)
    A = random_csr_with_empty_rows(rng, 25, 17)
    x = rng.standard_normal(3 * 17)[::3]
    assert not x.flags.c_contiguous
    assert_same_bytes(csr_matvec(A, x), A @ x)


def test_csr_matvec_with_int64_indices():
    rng = np.random.default_rng(720)
    A = random_csr_with_empty_rows(rng, 30, 21)
    A.indices, A.indptr = A.indices.astype(np.int64), A.indptr.astype(np.int64)
    x = rng.standard_normal(21)
    assert_same_bytes(csr_matvec(A, x), A @ x)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_csr_matvec_on_zero_size_shapes(shape):
    A = sp.csr_matrix(shape)
    assert_same_bytes(csr_matvec(A, np.zeros(shape[1])), A @ np.zeros(shape[1]))


def test_integer_matrix_market_operator_applies_as_floats(tmp_path):
    # the kernel does not check dtypes, so the operator stores float64
    rng = np.random.default_rng(730)
    dense = rng.integers(-6, 7, (6, 5))
    dense[rng.random((6, 5)) < 0.4] = 0
    ints = sp.coo_matrix(dense)
    mmwrite(tmp_path / "K.mtx", ints)
    assert "integer" in (tmp_path / "K.mtx").read_text().splitlines()[0]
    K = load_sparse(tmp_path / "K.mtx")
    F = SparseOperator(ints.astype(float))
    assert K.A.dtype == np.float64
    for _ in range(3):
        x, y = rng.standard_normal(5), rng.standard_normal(6)
        assert_same_bytes(K.apply(x), F.apply(x))
        assert_same_bytes(K.apply_adjoint(y), F.apply_adjoint(y))


def test_sparse_operator_pickles():
    # sweep workers receive the --r operator pickled
    rng = np.random.default_rng(740)
    K = SparseOperator(random_csr_with_empty_rows(rng, 12, 9))
    back = pickle.loads(pickle.dumps(K))
    x, y = rng.standard_normal(9), rng.standard_normal(12)
    assert_same_bytes(back.apply(x), K.apply(x))
    assert_same_bytes(back.apply_adjoint(y), K.apply_adjoint(y))


def test_solves_are_bitwise_those_of_the_operator_product(monkeypatch):
    rng = np.random.default_rng(750)
    R = random_sparse_system(32, 64, 0.1, 3)
    b = R.apply(rng.random(64))
    rho0, rho1 = random_balanced_grids(4, 5, 2)
    builds = [
        lambda: tv_least_squares(R, b, 1.0, (8, 8), 0.01, 0.75, theta=1e-3,
                                 max_iter=3000),
        lambda: emd(rho0, rho1, 1.0, 0.05, 0.75, theta=1e-6, method="sgs",
                    max_iter=3000)]
    kernel = [inst.solve() for inst in (build() for build in builds)]
    for mod in (operators, metrics):
        monkeypatch.setattr(mod, "csr_matvec", lambda A, x: A @ x)
    matmul = [inst.solve() for inst in (build() for build in builds)]
    for got, want in zip(kernel, matmul):
        assert got.status == want.status == "converged"
        assert got.iters == want.iters
        assert_same_bytes(got.x_final, want.x_final)
        assert_same_bytes(got.y_final, want.y_final)


@pytest.mark.parametrize("K", [
    GridDivergence(1, 5, 0.5), GridDivergence(4, 1), GridDivergence(3, 7, 1.3),
    GridDivergence(8, 8, 7 / 4), BirkhoffConstraint(1), BirkhoffConstraint(4),
    Transpose(GridDivergence(5, 3, 0.7)), Transpose(BirkhoffConstraint(3))],
    ids=lambda K: type(K).__name__ + str(K.shape))
def test_gram_bound_is_the_top_eigenvalue(K, monkeypatch):
    Kd = K.to_dense()
    top = np.linalg.eigvalsh(Kd @ Kd.T)[-1]
    monkeypatch.setattr(operators, "_dct", None)  # a closed form, in O(1)
    assert K.gram_bound() == pytest.approx(top, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("K", [
    DenseOperator(np.eye(3)), SparseOperator(GridDivergence(3, 3).to_sparse()),
    VStack([GridDivergence(2, 3)])], ids=lambda K: type(K).__name__)
def test_no_gram_bound_without_a_closed_form(K):
    assert K.gram_bound() is None
