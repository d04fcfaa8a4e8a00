import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from prepdhg.exceptions import ConfigurationError
from prepdhg.metrics import (BlockDiagMetric, DenseMetric, DiagonalMetric,
                             GramShiftMetric, ScalarMetric, SGSMetric,
                             build_diag_preconditioner, check_condition,
                             dense_sqrt, gram_shift_matrix)
from prepdhg.operators import (BirkhoffConstraint, DenseOperator, GridDivergence,
                               SparseOperator, Transpose, VStack)


from helpers import random_partition, sgs_dense_oracle


class TestBasicMetrics:
    def test_scalar(self):
        M = ScalarMetric(0.25, 3)
        z = np.array([1.0, 2.0, -4.0])
        assert np.allclose(M.apply(z), z / 4.0)
        assert np.allclose(M.solve(z), 4.0 * z)

    def test_diagonal(self):
        d = np.array([2.0, 5.0])
        M = DiagonalMetric(d)
        r = np.array([4.0, 10.0])
        assert np.allclose(M.solve(r), [2.0, 2.0])

    def test_dense_spd_roundtrip(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 5))
        M = DenseMetric(A @ A.T + 5 * np.eye(5))
        z = rng.standard_normal(5)
        assert np.allclose(M.solve(M.apply(z)), z, atol=1e-10)

    def test_dense_rejects_indefinite(self):
        with pytest.raises(ConfigurationError):
            DenseMetric(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_positivity_validated(self):
        with pytest.raises(ConfigurationError):
            ScalarMetric(0.0, 2)
        with pytest.raises(ConfigurationError):
            DiagonalMetric([1.0, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # a NaN entry passed set-up, then certified ``pass-strict``
        with pytest.raises(ConfigurationError):
            ScalarMetric(bad, 2)
        with pytest.raises(ConfigurationError):
            DiagonalMetric([1.0, bad])


class TestGramShift:
    def test_birkhoff_closed_form_matches_dense(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            K = BirkhoffConstraint(n)
            M = GramShiftMetric(0.8, 1.3, K, theta=1e-4)
            Kd = K.to_dense()
            Md = 0.8 * 1.3 * Kd @ Kd.T + 1e-4 * np.eye(2 * n)
            r = rng.standard_normal(2 * n)
            want = np.linalg.solve(Md, r)
            assert np.allclose(M.solve(r), want,
                               atol=1e-10 * np.linalg.norm(want))

    def test_birkhoff_apply_matches_dense(self):
        n, theta = 3, 0.2
        K = BirkhoffConstraint(n)
        M = GramShiftMetric(1.0, 1.0, K, theta=theta)
        Kd = K.to_dense()
        dense = Kd @ Kd.T + theta * np.eye(2 * n)
        for j in range(2 * n):
            e = np.zeros(2 * n)
            e[j] = 1.0
            assert np.allclose(M.apply(e), dense[:, j], atol=1e-13)

    def test_birkhoff_roundtrip(self):
        rng = np.random.default_rng(2)
        K = BirkhoffConstraint(3)
        M = GramShiftMetric(1.0, 1.0, K, theta=1e-4)
        r = rng.standard_normal(6)
        assert np.allclose(M.apply(M.solve(r)), r, atol=1e-10)
        assert np.allclose(M.solve(M.apply(r)), r, atol=1e-10)

    def test_apply_matches_dense_assembly(self):
        rng = np.random.default_rng(3)
        op = DenseOperator(rng.standard_normal((4, 6)))
        M = GramShiftMetric(0.6, 0.9, op, theta=0.5)
        dense = 0.6 * 0.9 * op.A @ op.A.T + 0.5 * np.eye(4)
        z = rng.standard_normal(4)
        assert np.allclose(M.apply(z), dense @ z)
        assert np.allclose(M.solve(z), np.linalg.solve(dense, z))

    def test_theta_zero_needs_definite_gram(self):
        # the row/column-sum operator always has a Gram null vector
        with pytest.raises(ConfigurationError):
            GramShiftMetric(1.0, 1.0, BirkhoffConstraint(3), theta=0.0)
        # a wide full-row-rank operator is fine
        rng = np.random.default_rng(4)
        op = DenseOperator(rng.standard_normal((3, 6)))
        M = GramShiftMetric(1.0, 1.0, op, theta=0.0)
        z = rng.standard_normal(3)
        assert np.allclose(M.solve(M.apply(z)), z, atol=1e-10)

    def test_min_rayleigh_at_least_theta(self):
        rng = np.random.default_rng(5)
        op = DenseOperator(rng.standard_normal((5, 3)))  # rank-deficient gram
        theta = 0.3
        M = GramShiftMetric(1.2, 0.7, op, theta=theta)
        for _ in range(100):
            z = rng.standard_normal(5)
            q = np.dot(z, M.apply(z)) / np.dot(z, z)
            assert q >= theta * (1.0 - 1e-12)


class TestSGS:
    def test_two_block_apply_matches_dense(self):
        rng = np.random.default_rng(6)
        n = 6
        A = rng.standard_normal((n, n))
        Q = A @ A.T + n * np.eye(n)
        blocks = [np.arange(0, 3), np.arange(3, 6)]
        M = SGSMetric(Q, blocks)
        dense = sgs_dense_oracle(Q, blocks)
        z = rng.standard_normal(n)
        assert np.allclose(M.apply(z), dense @ z, atol=1e-12)

    def test_solve_matches_dense(self):
        rng = np.random.default_rng(7)
        n = 9
        A = rng.standard_normal((n, n))
        Q = A @ A.T + n * np.eye(n)
        blocks = random_partition(rng, n, 3)
        M = SGSMetric(Q, blocks)
        dense = sgs_dense_oracle(Q, blocks)
        r = rng.standard_normal(n)
        assert np.allclose(M.solve(r), np.linalg.solve(dense, r), atol=1e-10)

    @pytest.mark.parametrize("nblocks", [2, 3, 4])
    def test_solve_apply_roundtrip_random_partitions(self, nblocks):
        rng = np.random.default_rng(8 + nblocks)
        for _ in range(5):
            n = int(rng.integers(nblocks + 2, 14))
            A = rng.standard_normal((n, n))
            Q = A @ A.T + n * np.eye(n)
            M = SGSMetric(Q, random_partition(rng, n, nblocks))
            z = rng.standard_normal(n)
            assert np.allclose(M.solve(M.apply(z)), z, atol=1e-10)
            assert np.allclose(M.apply(M.solve(z)), z, atol=1e-10)

    def test_blocks_reassemble_permuted_q(self):
        rng = np.random.default_rng(15)
        for nblocks in (1, 2, 4):
            n = 11
            S = sp.random(n, n, density=0.3, random_state=rng)
            S = S @ S.T
            Q = (S + S.T + n * sp.eye(n)).tocsr()
            blocks = random_partition(rng, n, nblocks)
            M = SGSMetric(Q, blocks)
            Qp = Q.toarray()[np.ix_(M.perm, M.perm)]
            assert np.array_equal((M.D + M.U + M.U.T).toarray(), Qp)
            block_of = np.repeat(np.arange(nblocks), [b.size for b in blocks])
            U = M.U.tocoo()
            assert np.all(block_of[U.row] < block_of[U.col])
            # the loop over block pairs that U was built with before
            ref = np.zeros_like(Qp)
            for i, si in enumerate(M._slices):
                for sj in M._slices[i + 1:]:
                    ref[si, sj] = Qp[si, sj]
            assert np.array_equal(M.U.toarray(), ref)

    def test_rejects_non_spd_diagonal_block(self):
        Q = np.array([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ConfigurationError):
            SGSMetric(Q, [np.array([0]), np.array([1])])


def test_block_diag_metric():
    rng = np.random.default_rng(9)
    M = BlockDiagMetric([ScalarMetric(2.0, 2), DiagonalMetric([1.0, 4.0])])
    z = rng.standard_normal(4)
    assert np.allclose(M.apply(z), np.concatenate([2 * z[:2], [z[2], 4 * z[3]]]))
    assert np.allclose(M.solve(M.apply(z)), z)


class TestCheckCondition:
    def test_scalar_algebra_unit_product(self):
        # ||K|| = 1, tau*sigma = 1 -> s_hat = 1: passes, but not below one
        K = DenseOperator([[1.0]])
        rep = check_condition(ScalarMetric(1.0, 1), None, ScalarMetric(1.0, 1), K)
        assert rep.s_hat == pytest.approx(1.0, abs=1e-12)
        assert rep.verdict == "pass-strict"
        assert not rep.unit

    def test_boundary_value_fails(self):
        K = DenseOperator([[1.0]])
        rep = check_condition(ScalarMetric(1.0 / 2.0, 1), None,
                              ScalarMetric(2.0 / (4.0 / 3.0), 1), K)
        assert rep.s_hat == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert rep.verdict == "fail"

    def test_strong_convexity_enters(self):
        # s = tau*sigma*||K||^2 / (1 + tau/2) with unit strong convexity
        K = DenseOperator([[1.0]])
        tau, sigma = 2.0, 0.9
        rep = check_condition(ScalarMetric(1.0 / tau, 1), np.ones(1),
                              ScalarMetric(1.0 / sigma, 1), K)
        assert rep.s_hat == pytest.approx(tau * sigma / (1 + tau / 2), rel=1e-10)

    def test_matches_dense_generalized_eig_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(2, 9))
            K = DenseOperator(rng.standard_normal((m, n)))
            d1 = rng.random(n) + 0.3
            d2 = rng.random(m) + 0.3
            sig = rng.random(n) * (trial % 3 == 0)
            rep = check_condition(DiagonalMetric(d1), sig,
                                  DiagonalMetric(d2), K, tol=1e-14,
                                  max_iter=20000)
            A = np.diag(d1 + sig / 2.0)
            C = K.A.T @ np.diag(1.0 / d2) @ K.A
            want = sla.eigh(C, A, eigvals_only=True)[-1]
            assert rep.s_hat == pytest.approx(want, rel=1e-8)

    def test_nan_estimate_fails(self):
        K = DenseOperator([[1.0, np.nan], [0.5, -1.0]])
        M = ScalarMetric(1.0, 2)
        rep = check_condition(M, None, M, K)
        assert np.isnan(rep.s_hat)
        assert rep.verdict == "fail" and not rep.passed

    def test_zero_operator(self):
        K = DenseOperator(np.zeros((3, 2)))
        rep = check_condition(ScalarMetric(1.0, 2), None, ScalarMetric(1.0, 3), K)
        assert rep.s_hat == 0.0
        assert rep.verdict == "pass-unit"
        assert rep.unit


class TestDiagPreconditioner:
    def test_hand_evaluated_example(self):
        K = DenseOperator([[1.0, -2.0], [0.0, 3.0]])
        M1, M2 = build_diag_preconditioner(K, alpha=1.0, delta=0.0,
                                           gamma1=1.0, gamma2=1.0)
        assert np.allclose(M1.d, [1.0, 5.0])
        assert np.allclose(M2.d, [3.0, 3.0])

    def test_alpha_zero_all_ones(self):
        K = DenseOperator(np.ones((2, 2)))
        M1, M2 = build_diag_preconditioner(K, alpha=0.0, delta=0.0,
                                           gamma1=1.0, gamma2=1.0)
        assert np.allclose(M1.d, [2.0, 2.0])  # sum of |K_ij|^2 per column
        assert np.allclose(M2.d, [2.0, 2.0])  # counts nonzeros per row

    def test_norm_bound_holds(self):
        rng = np.random.default_rng(11)
        for alpha in (0.0, 0.5, 1.0, 1.7, 2.0):
            K = DenseOperator(rng.standard_normal((6, 5)))
            g1, g2 = 0.9, 1.1
            M1, M2 = build_diag_preconditioner(K, alpha, 0.0, g1, g2)
            rep = check_condition(M1, None, M2, K)
            assert rep.s_hat <= 1.0 / (g1 * g2) + 1e-8

    def test_gamma_product_pass_fail(self):
        # nonnegative K makes the norm bound tight, so 0.76 passes and
        # 0.74 lands beyond the threshold
        rng = np.random.default_rng(12)
        K = DenseOperator(rng.random((7, 6)))
        for g1g2, expect_pass in ((0.76, True), (0.74, False)):
            g = np.sqrt(g1g2)
            M1, M2 = build_diag_preconditioner(K, 1.0, 0.0, g, g)
            rep = check_condition(M1, None, M2, K)
            assert rep.passed == expect_pass

    def test_zero_column_rejected(self):
        K = DenseOperator(np.array([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(ConfigurationError):
            build_diag_preconditioner(K, 1.0, 0.0, 1.0, 1.0)
        M1, M2 = build_diag_preconditioner(K, 1.0, 0.1, 1.0, 1.0)
        assert np.all(M1.d > 0) and np.all(M2.d > 0)

    def test_alpha_range_validated(self):
        K = DenseOperator(np.ones((2, 2)))
        with pytest.raises(ConfigurationError):
            build_diag_preconditioner(K, 2.5, 0.0, 1.0, 1.0)

    def test_weights_match_the_dense_formula(self):
        rng = np.random.default_rng(14)
        A = rng.standard_normal((5, 7)) * (rng.random((5, 7)) < 0.5)
        A[:, 0] = 0.0  # a zero column, which delta > 0 admits
        # a stored zero must not count when the power is 0
        S = sp.csr_matrix(A)
        S.data[0] = 0.0
        ops = [DenseOperator(A), SparseOperator(S), Transpose(DenseOperator(A)),
               VStack([DenseOperator(A), SparseOperator(A[:2])]),
               GridDivergence(3, 4, 0.7), BirkhoffConstraint(3),
               DenseOperator(rng.standard_normal((6, 5)))]
        for op in ops:
            D = np.abs(op.to_dense())
            nz = D > 0
            for alpha in (0.0, 0.5, 1.0, 1.7, 2.0):
                M1, M2 = build_diag_preconditioner(op, alpha, 0.1, 0.9, 1.1)
                tau = 0.1 + np.where(nz, D ** (2.0 - alpha), 0.0).sum(axis=0)
                sig = 0.1 + np.where(nz, D ** alpha, 0.0).sum(axis=1)
                assert np.allclose(M1.d, 0.9 * tau, rtol=1e-14, atol=0.0)
                assert np.allclose(M2.d, 1.1 * sig, rtol=1e-14, atol=0.0)

    def test_large_matrix_free_operator_is_not_materialized(self):
        # 3,200 x 6,400 entries would exceed the dense cap of to_dense; the
        # divergence has structurally zero flux columns, which delta = 0
        # rejects by the documented rule and delta > 0 admits
        K = VStack([GridDivergence(40, 40)] * 2)
        with pytest.raises(ConfigurationError, match="zero row or column"):
            build_diag_preconditioner(K, 1.0, 0.0, 1.0, 1.0)
        M1, M2 = build_diag_preconditioner(K, 1.0, 1e-3, 1.0, 1.0)
        assert (M1.dim, M2.dim) == (K.cols, K.rows)
        free = ~GridDivergence(40, 40).boundary_mask()
        # each free flux entry sits in two stencils of each copy, weight 1
        assert np.allclose(M1.d[free], 1e-3 + 4.0, rtol=1e-15, atol=0.0)
        assert np.all(M1.d[~free] == 1e-3)


def test_dense_sqrt():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((6, 6))
    M = DenseMetric(A @ A.T + 6 * np.eye(6))
    S, Sinv = dense_sqrt(M)
    assert np.allclose(S @ S, M.A, atol=1e-10)
    assert np.allclose(S @ Sinv, np.eye(6), atol=1e-10)
    big = DiagonalMetric(np.ones(100))
    with pytest.raises(ConfigurationError):
        dense_sqrt(big)


def test_spd_invariant_solve_apply_identity():
    rng = np.random.default_rng(14)
    metrics = [
        ScalarMetric(0.7, 5),
        DiagonalMetric(rng.random(5) + 0.2),
        DenseMetric(np.diag(rng.random(5) + 0.2) + 0.05),
        GramShiftMetric(1.0, 0.5, DenseOperator(rng.standard_normal((5, 7))),
                        theta=0.1),
    ]
    for M in metrics:
        z = rng.standard_normal(5)
        assert np.allclose(M.solve(M.apply(z)), z, atol=1e-10)


class TestGramShiftToSparse:
    def test_theta_shift_matches_dense(self):
        M = GramShiftMetric(0.8, 0.3, GridDivergence(4, 5, 2.0), theta=1e-3)
        S = M.to_sparse()
        assert sp.issparse(S) and S.format == "csr"
        assert np.allclose(S.toarray(), M.to_dense(), atol=1e-14)

    def test_operator_without_sparse_form(self):
        M = GramShiftMetric(1.0, 0.1, Transpose(GridDivergence(3, 3, 1.0)),
                            theta=1e-3)
        assert np.array_equal(M.to_sparse().toarray(), M.to_dense())


def gram_shift_reference(K, scale, shift):
    """The earlier assembly, through a LIL round trip."""
    A = K.to_sparse()
    G = (scale * (A @ A.T)).tolil()
    G.setdiag(G.diagonal() + shift)
    return G.tocsr()


def _gram_operators():
    rng = np.random.default_rng(41)
    A = sp.random(9, 14, density=0.2, random_state=rng, format="csr")
    return [GridDivergence(4, 5, 2.0), Transpose(GridDivergence(3, 3, 1.0)),
            Transpose(GridDivergence(128, 128, 1.0)),
            DenseOperator(rng.standard_normal((5, 7))), SparseOperator(A),
            VStack([SparseOperator(A[:, :5]), DenseOperator(np.eye(5))]),
            BirkhoffConstraint(3)]


@pytest.mark.parametrize("K", _gram_operators(),
                         ids=lambda K: type(K).__name__)
@pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (0.7, 1e-3), (3.0, 2.5)])
def test_gram_shift_matrix_matches_the_lil_assembly(K, scale, shift):
    got = gram_shift_matrix(K, scale, shift)
    want = gram_shift_reference(K, scale, shift)
    assert got.format == "csr" and got.has_sorted_indices
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
