import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from prepdhg import metrics
from prepdhg.exceptions import ConfigurationError
from prepdhg.metrics import (CHECKER_SLACK, CONDITION_THRESHOLD, RITZ_EVERY,
                             BlockDiagMetric, DenseMetric, DiagonalMetric,
                             GramShiftMetric, ScalarMetric, SGSMetric,
                             _shifted_solver, _sigma,
                             build_diag_preconditioner, check_condition,
                             dense_sqrt, gram_shift_matrix)
from prepdhg.operators import (BirkhoffConstraint, DenseOperator, GridDivergence,
                               SparseOperator, Transpose, VStack,
                               spectral_norm_sq)
from prepdhg.problems import (birkhoff_projection, emd, random_balanced_grids,
                              random_sparse_system, red_black_partition,
                              tv_least_squares)
from prepdhg.prox import Linear, Zero
from prepdhg import solver
from prepdhg.solver import (CHECK_MAX_ITER, CHECK_TOL, SaddleProblem,
                            SolverConfig, configure_ebalm, configure_ebalm_sgs,
                            solve)

from helpers import (CountingOperator, FactorizedGramShift, generalized_power,
                     random_partition, sgs_dense_oracle)


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

    @pytest.mark.parametrize("epochs", [None, 2])
    @pytest.mark.parametrize("bad", ["gamma", "tau", "theta"])
    def test_nan_parameters_refused(self, bad, epochs):
        kw = dict(gamma=1.0, tau=1.0, theta=1e-4)
        kw[bad] = np.nan
        with pytest.raises(ConfigurationError, match=f"{bad} = nan"):
            GramShiftMetric(op=BirkhoffConstraint(3), epochs=epochs, **kw)

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

    # The closed forms against a dense solve.  Both are backward stable up
    # to the conditioning of K K^T + s I, so each errs by about
    # eps * cond relative, cond = (||K||^2 + s) / s, and so does the
    # push-through form of the transpose, whose r - A (...) A^T r cancels
    # to that size.  The factor 100 covers the sums of up to 512 terms in
    # the grid's transforms and products (the 16x16 cases err by at most
    # 8 eps * cond).
    @staticmethod
    def assert_closed_form_solves(K, shift):
        A = K.to_dense()
        norm_sq = np.linalg.norm(A, 2) ** 2
        r = np.random.default_rng(6).standard_normal(K.rows)
        want = np.linalg.solve(A @ A.T + shift * np.eye(K.rows), r)
        got = K.gram_shift_solver(shift)(r)
        rtol = 100 * np.finfo(float).eps * (norm_sq + shift) / shift
        assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)

    @pytest.mark.parametrize("grid", [(1, 5), (5, 1), (3, 4), (16, 16)])
    @pytest.mark.parametrize("h", [0.5, 1.0, 3.75])
    @pytest.mark.parametrize("shift", [1e-6, 1e-3, 0.1, 10.0])
    @pytest.mark.parametrize("transpose", [False, True],
                             ids=["divergence", "gradient"])
    def test_grid_closed_form_matches_dense(self, grid, h, shift, transpose):
        K = GridDivergence(*grid, h)
        self.assert_closed_form_solves(Transpose(K) if transpose else K,
                                       shift)

    @pytest.mark.parametrize("shift", [1e-6, 1e-3, 0.1, 10.0])
    def test_transposed_birkhoff_closed_form_matches_dense(self, shift):
        self.assert_closed_form_solves(Transpose(BirkhoffConstraint(3)), shift)

    @pytest.mark.parametrize("K", [GridDivergence(3, 4, 0.5),
                                   Transpose(GridDivergence(3, 4, 0.5)),
                                   Transpose(BirkhoffConstraint(3))],
                             ids=["divergence", "gradient", "birkhoff-t"])
    def test_no_closed_form_without_a_positive_shift(self, K):
        for shift in (0.0, -1.0, np.nan):
            assert K.gram_shift_solver(shift) is None
        assert Transpose(DenseOperator(np.eye(3))).gram_shift_solver(1.0) \
            is None

    @pytest.mark.parametrize("K", [GridDivergence(8, 8, 1.0),
                                   Transpose(GridDivergence(3, 4, 0.5)),
                                   GridDivergence(3, 4, 0.5),
                                   GridDivergence(16, 16, 3.75)],
                             ids=["divergence", "gradient", "divergence-3x4",
                                  "divergence-16x16"])
    def test_singular_grid_gram_is_still_refused(self, K):
        # theta = 0 reaches the factorization, which refuses these singular
        # Gram matrices (constants span the divergence's Gram null space),
        # also where the last pivot rounds to a tiny positive number (3x4:
        # 8.3e-17 against 0.44; 16x16: 2.0e-14 against 28.1)
        with pytest.raises(ConfigurationError, match="not positive definite"):
            GramShiftMetric(1.0, 0.5, K, theta=0.0)

    @pytest.mark.parametrize("K", [GridDivergence(4, 5, 2.0),
                                   Transpose(GridDivergence(4, 4, 1.0))],
                             ids=["divergence", "gradient"])
    def test_grid_metric_factorizes_nothing(self, K, monkeypatch):
        monkeypatch.setattr(metrics, "spd_solver", None)
        M = GramShiftMetric(0.8, 0.3, K, theta=1e-3)
        z = np.random.default_rng(7).standard_normal(K.rows)
        assert np.allclose(M.apply(M.solve(z)), z, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("grid", [(8, 8), (16, 16)])
    def test_tvls_check_matches_the_factorized_solve(self, grid):
        # the tvls condition estimate through the closed form, against the
        # same check with the Gram shift solved by a sparse LU
        M, N = grid
        n = M * N
        R = random_sparse_system(n // 2, n, 0.05, 3)
        b = R.apply(np.random.default_rng(3).random(n))
        for tau in (10 ** -2.25, 10 ** -1.75):
            inst = tv_least_squares(R, b, 1.0, grid, tau, 0.75)
            cfg, K = inst.config, inst.saddle.K
            scalar, gram = cfg.M2.metrics
            ref = BlockDiagMetric([scalar, FactorizedGramShift(
                gram.gamma, gram.tau, gram.op, gram.theta)])
            got, want = (check_condition(cfg.M1, None, M2, K, tol=CHECK_TOL,
                                         max_iter=CHECK_MAX_ITER)
                         for M2 in (cfg.M2, ref))
            assert got.iterations == want.iterations
            assert got.verdict == want.verdict
            assert got.s_hat == pytest.approx(want.s_hat, rel=1e-10, abs=0)

    def test_tvls_set_up_makes_no_lu(self, monkeypatch):
        # the Gram shift over the TV gradient was the one LU of a tvls
        # solve (128 x 128 here), used only by the condition check
        shapes = []
        splu = metrics.spla.splu

        def spy(A, *args, **kwargs):
            shapes.append(A.shape)
            return splu(A, *args, **kwargs)
        monkeypatch.setattr(metrics.spla, "splu", spy)
        R = random_sparse_system(32, 64, 0.05, 11)
        b = R.apply(np.random.default_rng(11).random(64))
        rep = tv_least_squares(R, b, 1.0, (8, 8), 10 ** -2.0, 0.75,
                               max_iter=5).solve()
        assert rep.iters == 5 and rep.condition.passed
        assert shapes == []


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
        # D + U + U^T = Q in the original order, U strictly block upper
        rng = np.random.default_rng(15)
        for nblocks in (1, 2, 4):
            n = 11
            S = sp.random(n, n, density=0.3, random_state=rng)
            S = S @ S.T
            Q = (S + S.T + n * sp.eye(n)).tocsr()
            blocks = random_partition(rng, n, nblocks)
            M = SGSMetric(Q, blocks)
            assert np.array_equal((M.D + M.U + M.U.T).toarray(), Q.toarray())
            block_of = np.empty(n, dtype=int)
            for i, b in enumerate(blocks):
                block_of[b] = i
            U = M.U.tocoo()
            assert np.all(block_of[U.row] < block_of[U.col])
            D = M.D.tocoo()
            assert np.all(block_of[D.row] == block_of[D.col])

    def test_rejects_non_spd_diagonal_block(self):
        Q = np.array([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ConfigurationError):
            SGSMetric(Q, [np.array([0]), np.array([1])])
        Q = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.5], [0.0, 0.5, 3.0]])
        with pytest.raises(ConfigurationError, match="diagonal block 0"):
            SGSMetric(Q, [np.array([0, 1]), np.array([2])])

    def test_rejects_a_non_symmetric_q(self):
        # its sweep would not be the stated metric Q + U D^{-1} U^T; the rule
        # is the dense metric's: max |Q - Q^T| <= 1e-12 (1 + max|Q|), with no
        # relative slack (np.allclose's rtol = 1e-5 took a 5e-6 gap)
        Q = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.5], [0.0, 0.0, 2.0]])
        blocks = [np.array([0]), np.array([1]), np.array([2])]
        for q in (Q, sp.csr_matrix(Q)):
            with pytest.raises(ConfigurationError, match="Q must be symmetric"):
                SGSMetric(q, blocks)
        S = Q + Q.T
        for eps, taken in ((1e-12, True), (1e-4, False)):
            T = S.copy()
            T[0, 1] += eps
            for make in (SGSMetric, lambda A, _: DenseMetric(A)):
                if taken:
                    make(T, blocks)
                else:
                    with pytest.raises(ConfigurationError, match="symmetric"):
                        make(T, blocks)
        Q = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 0.5], [0.0, 0.5, 4.0]])
        Q[0, 1] += 5e-6
        for q in (Q, sp.csr_matrix(Q)):
            with pytest.raises(ConfigurationError, match="Q must be symmetric"):
                SGSMetric(q, blocks)
        with pytest.raises(ConfigurationError, match="must be symmetric"):
            DenseMetric(Q)
        # the sweeps' Gram shifts are exactly symmetric
        G = gram_shift_matrix(GridDivergence(8, 8, 1.75), 0.75 * 0.03, 1e-6)
        assert abs(G - G.T).max() == 0

    @pytest.mark.parametrize("blocks", [[], [[0, 1], [1, 2]], [[0, 1]],
                                        [[0, 3], [1, 2]], [[-1, 0], [1]]])
    def test_rejects_a_non_partition(self, blocks):
        with pytest.raises(ConfigurationError):
            SGSMetric(np.eye(3), [np.array(b, dtype=int) for b in blocks])


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
        assert np.isnan(rep.s_hat) and not rep.converged
        assert rep.verdict == "fail" and not rep.passed

    def test_zero_operator(self):
        K = DenseOperator(np.zeros((3, 2)))
        rep = check_condition(ScalarMetric(1.0, 2), None, ScalarMetric(1.0, 3), K)
        assert rep.s_hat == 0.0 and rep.converged
        assert rep.verdict == "pass-unit"
        assert rep.unit

    @pytest.mark.parametrize("d1, d2, sigma, match", [
        (3, 3, None, "metric dimensions"),
        (2, 2, None, "metric dimensions"),
        (2, 3, np.ones(3), "sigma_f has length 3"),
        (2, 3, np.zeros(1), "sigma_f has length 1"),
    ])
    def test_dimension_mismatch_rejected_up_front(self, d1, d2, sigma, match):
        # K is 3 x 2: M1 must be of dim 2, M2 and sigma_f of dims 3 and 2
        K = DenseOperator(np.ones((3, 2)))
        with pytest.raises(ConfigurationError, match=match):
            check_condition(ScalarMetric(1.0, d1), sigma, ScalarMetric(1.0, d2), K)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("M1", [DiagonalMetric([1.0, 2.0]),
                                    DenseMetric([[2.0, 1.0], [1.0, 2.0]])])
    def test_sigma_f_must_be_nonnegative_and_finite(self, M1, bad):
        K = DenseOperator(np.ones((3, 2)))
        with pytest.raises(ConfigurationError, match="sigma must be"):
            check_condition(M1, np.array([1.0, bad]), DiagonalMetric([1.0, 2.0, 3.0]), K)


class TestLanczosCheck:
    """The generalized estimate is Lanczos on A^{-1} K^T M2^{-1} K."""

    @staticmethod
    def both(M1, sigma, M2, K, tol=CHECK_TOL, max_iter=CHECK_MAX_ITER):
        """The check's report and the retired power iteration's estimate at
        the same seed and budget: the products the check spent."""
        rep = check_condition(M1, sigma, M2, K, tol=tol, max_iter=max_iter)
        a_apply, a_solve = _shifted_solver(M1, _sigma(M1, sigma))
        power = generalized_power(K, M2, a_apply, a_solve, tol,
                                  rep.iterations, 0)
        return rep, power[0]

    @staticmethod
    def instance(name):
        if name.startswith("emd"):
            n = int(name[3:])
            rho0, rho1 = random_balanced_grids(n, n, 0)
            return emd(rho0, rho1, (n - 1) / 4.0, 10 ** -1.5, 0.75,
                       theta=1e-6, method="sgs")
        if name == "tvls16":
            R = random_sparse_system(128, 256, 0.05, 0)
            b = R.apply(np.random.default_rng(1).random(256))
            return tv_least_squares(R, b, 1.0, (16, 16), 10 ** -2.0, 0.75)
        tau = 0.6
        return birkhoff_projection(np.random.default_rng(2).random((8, 8)),
                                   tau=tau, gamma=0.75 / (1 + tau / 2))

    @pytest.mark.parametrize("name", ["emd8", "emd16", "emd32", "tvls16",
                                      "birkhoff8"])
    def test_no_lower_than_power_iteration_on_the_problems(self, name):
        inst = self.instance(name)
        rep, power = self.both(inst.config.M1, inst.saddle.f.sigma,
                               inst.config.M2, inst.saddle.K)
        assert rep.s_hat >= power - 1e-12 * rep.s_hat
        assert rep.passed and rep.iterations <= CHECK_MAX_ITER

    @pytest.mark.parametrize("seed", range(8))
    def test_no_lower_than_power_iteration_on_diagonal_pencils(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(5, 60, size=2)
        K = DenseOperator(rng.standard_normal((m, n)))
        d1, d2 = rng.random(n) + 0.1, rng.random(m) + 0.1
        sigma = rng.random(n) if seed % 2 else None
        rep, power = self.both(DiagonalMetric(d1), sigma, DiagonalMetric(d2), K)
        assert rep.s_hat >= power - 1e-12 * rep.s_hat

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_eigh_with_a_dense_primal_metric(self, seed):
        # A = M1 + Sigma_f/2 with a dense M1 and sigma_f != 0 is not diagonal
        rng = np.random.default_rng(100 + seed)
        m, n = rng.integers(2, 41, size=2)
        K = rng.standard_normal((m, n))
        B1, B2 = rng.standard_normal((n, n)), rng.standard_normal((m, m))
        P1, P2 = B1 @ B1.T + 0.5 * np.eye(n), B2 @ B2.T + 0.5 * np.eye(m)
        sigma = rng.random(n)
        rep = check_condition(DenseMetric(P1), sigma, DenseMetric(P2),
                              DenseOperator(K))
        want = sla.eigh(K.T @ np.linalg.solve(P2, K), P1 + np.diag(sigma / 2),
                        eigvals_only=True)[-1]
        assert rep.converged
        assert rep.s_hat == pytest.approx(want, rel=1e-8)

    def test_nan_in_k_fails_unconverged(self):
        K = DenseOperator([[1.0, np.nan], [0.5, -1.0]])
        rep = check_condition(DiagonalMetric([1.0, 2.0]), None,
                              ScalarMetric(1.0, 2), K)
        assert np.isnan(rep.s_hat) and not rep.converged
        assert rep.verdict == "fail" and not rep.passed

    def test_zero_k_is_zero_and_converged(self):
        K = DenseOperator(np.zeros((3, 2)))
        rep = check_condition(DiagonalMetric([1.0, 2.0]), None,
                              ScalarMetric(1.0, 3), K)
        assert rep.s_hat == 0.0 and rep.converged and rep.iterations == 1
        assert rep.verdict == "pass-unit"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_an_exhausted_krylov_space_is_converged(self, n):
        # no reading before k = dim could stall at tol 1e-300; a
        # non-constant M2 keeps even n = 1 off the scalar-pair path
        rng = np.random.default_rng(n)
        K = rng.standard_normal((4, n))
        d1, d2 = rng.random(n) + 0.5, np.linspace(1.0, 2.0, 4)
        rep = check_condition(DiagonalMetric(d1), None, DiagonalMetric(d2),
                              DenseOperator(K), tol=1e-300)
        assert rep.converged and rep.iterations == n
        want = sla.eigh(K.T @ np.diag(1.0 / d2) @ K, np.diag(d1),
                        eigvals_only=True)[-1]
        assert rep.s_hat == pytest.approx(want, rel=1e-12)


class TestScalarPairCheck:
    """M1 + Sigma_f/2 = a I and M2 = b I: s is ||K||^2 / (a b), read off
    the estimate memoized on K."""

    K = np.random.default_rng(31).standard_normal((12, 9))

    def primed(self, tol=1e-10):
        op = CountingOperator(self.K)
        est = spectral_norm_sq(op, tol=tol)
        op.calls = 0
        return op, est

    def test_a_memo_hit_makes_no_products(self):
        op, est = self.primed()
        rep = check_condition(ScalarMetric(2.0, 9), None, ScalarMetric(0.7, 12),
                              op, tol=1e-10, max_iter=5, seed=3)
        assert op.calls == 0
        assert rep.s_hat == est.value / (2.0 * 0.7)  # bitwise
        assert (rep.converged, rep.iterations) == (est.converged,
                                                   est.iterations)

    def test_the_estimate_is_the_one_at_the_check_tol(self):
        K = DenseOperator(self.K)
        rep = check_condition(ScalarMetric(0.5, 9), None, ScalarMetric(4.0, 12),
                              K, tol=1e-13)
        est = spectral_norm_sq(K, tol=1e-13)
        assert rep.s_hat == est.value / (0.5 * 4.0)
        assert est.iterations == rep.iterations

    @pytest.mark.parametrize("M1", [ScalarMetric(0.5, 9),
                                    DiagonalMetric(np.linspace(1.0, 0.6, 9))])
    def test_a_constant_sigma_folds_into_a(self, M1):
        # M1 + Sigma_f/2 = I for both
        sigma = 2.0 * (1.0 - M1.diagonal())
        op, est = self.primed()
        rep = check_condition(M1, sigma, ScalarMetric(1.5, 12), op, tol=1e-10)
        assert op.calls == 0
        assert rep.s_hat == est.value / (1.0 * 1.5)

    @pytest.mark.parametrize("d1, d2", [
        (np.linspace(1.0, 2.0, 9), np.ones(12)),
        (np.ones(9), np.linspace(1.0, 2.0, 12)),
    ])
    def test_a_non_constant_diagonal_still_iterates(self, d1, d2):
        op, _ = self.primed()
        rep = check_condition(DiagonalMetric(d1), None, DiagonalMetric(d2), op,
                              tol=1e-12, max_iter=20000)
        assert op.calls > 0 and rep.converged
        A = self.K.T @ np.diag(1.0 / d2) @ self.K
        want = sla.eigh(A, np.diag(d1), eigvals_only=True)[-1]
        assert rep.s_hat == pytest.approx(want, rel=1e-8)

    def test_an_estimate_at_its_cap_is_not_converged(self):
        # two singular values 1e-6 apart: the estimate moves by about 1e-6
        # per iteration and stops at the 2000 of ``spectral_norm_sq``; the
        # check's own max_iter is not its cap
        K = DenseOperator(np.diag([1.0, 1.0 - 1e-6]))
        rep = check_condition(ScalarMetric(1.0, 2), None, ScalarMetric(1.0, 2),
                              K, tol=1e-15, max_iter=5)
        assert not rep.converged and rep.iterations == 2000
        assert rep.verdict == "inconclusive" and not rep.passed


_STRICT = CONDITION_THRESHOLD - CHECKER_SLACK


def _dense_s(M, K, a):
    """||M^{-1/2} K||^2 / a for a dense SPD M, by its Cholesky factor."""
    X = sla.solve_triangular(np.linalg.cholesky(M), K, lower=True)
    return np.linalg.norm(X, 2) ** 2 / a


def _emd_sgs(n, **kw):
    """The n x n emd sGS instance at h = (n - 1)/4, tau = 10^-1.5."""
    r0, r1 = random_balanced_grids(n, n, 0)
    kw = dict(dict(gamma=0.75, theta=1e-6), **kw)
    return emd(r0, r1, (n - 1) / 4.0, 10 ** -1.5, method="sgs", **kw)


def _check(inst, max_iter=CHECK_MAX_ITER):
    return check_condition(inst.config.M1, inst.saddle.f.sigma,
                           inst.config.M2, inst.saddle.K, tol=CHECK_TOL,
                           max_iter=max_iter)


class TestCertificate:
    """s_bar, the certified upper bound on s of a Gram shift over an
    operator with a closed-form lambda_max(K K^T), and of its sGS metric."""

    @pytest.mark.parametrize("n", [4, 6])
    def test_sgs_bound_against_the_dense_metric(self, n):
        inst = _emd_sgs(n)
        K = inst.saddle.K
        Kd, tau = K.to_dense(), inst.meta["tau"]
        Q = 0.75 * tau * Kd @ Kd.T + 1e-6 * np.eye(K.rows)
        M = sgs_dense_oracle(Q, red_black_partition(n, n))
        lam = np.linalg.eigvalsh(Kd @ Kd.T)
        s_q = np.max(tau * lam / (0.75 * tau * lam + 1e-6))
        rep = _check(inst)
        assert _dense_s(M, Kd, 1.0 / tau) <= rep.s_bar
        assert rep.s_bar == pytest.approx(s_q, rel=1e-12, abs=0)
        assert rep.s_hat <= rep.s_bar

    def test_gram_shift_bound_against_the_dense_metric(self):
        tau, gamma = 0.6, 0.75 / (1 + 0.6 / 2)
        inst = birkhoff_projection(np.random.default_rng(2).random((4, 4)),
                                   tau, gamma)
        Kd = inst.saddle.K.to_dense()
        M2 = gamma * tau * (Kd @ Kd.T + 1e-4 * np.eye(8))
        a = 1.0 / tau + 0.5  # M1 + Sigma_f/2, unit strong convexity
        lam = np.linalg.eigvalsh(Kd @ Kd.T)
        s_q = np.max(lam / (gamma * tau * (lam + 1e-4))) / a
        rep = _check(inst)
        assert _dense_s(M2, Kd, a) <= rep.s_bar
        assert rep.s_bar == pytest.approx(s_q, rel=1e-12, abs=0)
        # the estimate converges to s = s_Q itself, up to its own rounding
        assert rep.converged and rep.verdict == "pass-strict"
        assert rep.s_hat == pytest.approx(rep.s_bar, rel=1e-10, abs=0)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_emd_sgs_passes_certified_at_the_first_reading(self, n):
        rep = _emd_sgs(n, max_iter=1).solve()
        c = rep.condition
        assert (c.verdict, c.iterations, c.converged) == ("pass-strict",
                                                          RITZ_EVERY, False)
        assert c.s_hat <= c.s_bar < _STRICT

    @pytest.mark.parametrize("n, s_q", [(16, 1.3333328288), (32, 1.3333332161),
                                        (64, 1.3333333050),
                                        (128, 1.3333333264)])
    def test_the_closed_form_of_the_sgs_bound(self, n, s_q):
        # the s_Q column of the measured table in the roadmap
        assert _check(_emd_sgs(n), max_iter=1).s_bar == pytest.approx(
            s_q, rel=0, abs=1e-10)

    def test_no_certificate_for_iebalm(self):
        r0, r1 = random_balanced_grids(8, 8, 0)
        inst = emd(r0, r1, 7 / 4, 10 ** -1.5, 1.0, method="iebalm")
        assert _check(inst).s_bar == np.inf

    @pytest.mark.parametrize("sgs", [False, True], ids=["gram", "sgs"])
    def test_no_certificate_over_a_sparse_operator(self, sgs):
        grid = GridDivergence(8, 8, 7 / 4)
        K = SparseOperator(grid.to_sparse())
        rule = configure_ebalm_sgs if sgs else configure_ebalm
        blocks = (red_black_partition(8, 8),) if sgs else ()
        p, cfg = rule(Zero(K.cols), K, np.zeros(K.rows), 0.1, 1e-3, 0.75,
                      *blocks)
        rep = check_condition(cfg.M1, None, cfg.M2, K)
        assert rep.s_bar == np.inf and rep.iterations > RITZ_EVERY
        # nor for the grid operator over another K's metric
        assert cfg.M2.norm_bound(grid) is None

    def test_theta_zero_at_three_quarters_is_not_certified(self):
        # s_bar is 1/gamma = 4/3 itself, which the slack keeps out
        inst = _emd_sgs(8, theta=0.0, override=True)
        rep = _check(inst)
        assert rep.s_bar == pytest.approx(4.0 / 3.0, rel=1e-13)
        assert not rep.s_bar < _STRICT and rep.iterations > RITZ_EVERY

    def test_cells_over_equal_operators_keep_their_certificate(self):
        # each emd cell builds its own divergence; a block over the first
        # cell's K checks the other cells' metrics with the same bound
        a, b = _emd_sgs(8), _emd_sgs(8, gamma=0.8)
        assert a.saddle.K is not b.saddle.K
        ka, kb = a.saddle.K, b.saddle.K
        assert b.config.M2.norm_bound(ka) == b.config.M2.norm_bound(kb)

    def test_a_unit_certificate_stops_at_the_first_reading(self):
        # gamma = 1.5 caps s at 2/3, so a first reading below 1 settles it
        rep = _check(_emd_sgs(16, gamma=1.5))
        assert (rep.verdict, rep.iterations) == ("pass-unit", RITZ_EVERY)
        assert rep.s_hat <= rep.s_bar < 1 - CHECKER_SLACK


def _benchmark_configs(seed):
    """The emd-sgs instance and the three tvls-bcd instances the benchmark
    solves at ``seed``, each stopped after one iteration."""
    shift = float(np.random.default_rng(seed).uniform(-0.5, 0.5)) * 0.02
    rng = np.random.default_rng(0)
    r0, r1 = rng.random((16, 16)), rng.random((16, 16))
    sgs = emd(r0 / r0.sum(), r1 / r1.sum(), 15 / 4, 10 ** (-1.5 + shift),
              0.75, theta=1e-6, method="sgs", tol=5e-5, max_iter=1,
              record_every=100)
    rng = np.random.default_rng(0)
    R = sp.random(128, 256, density=0.05, random_state=rng,
                  data_rvs=rng.random, format="csr")
    b = R @ np.random.default_rng(7919).random(256)
    return sgs, [tv_least_squares(R, b, 1.0, (16, 16), 10 ** (e + shift),
                                  0.75, theta=1e-3, tol=5e-6, max_iter=1,
                                  record_every=100)
                 for e in (-2.25, -2.0, -1.75)]


def test_the_benchmark_checks_take_pinned_products():
    # a deterministic guard on set-up cost: the condition checks of the
    # benchmark's solves at seed 11 take these many products
    sgs, tvls = _benchmark_configs(11)
    c = sgs.solve().condition
    assert (c.verdict, c.iterations, c.s_bar < _STRICT) == (
        "pass-strict", RITZ_EVERY, True)
    for inst in tvls:
        c = inst.solve().condition
        assert (c.verdict, c.iterations, c.s_bar) == ("pass-strict", 50,
                                                      np.inf)


def test_the_sgs_rule_builds_the_parents_q():
    # configure_ebalm_sgs builds its metric through SGSMetric.gram_shift,
    # over the same Q and blocks as SGSMetric(gram_shift_matrix(...))
    inst = _emd_sgs(8)
    K, tau, M2 = inst.saddle.K, inst.meta["tau"], inst.config.M2
    want = SGSMetric(gram_shift_matrix(K, 0.75 * tau, 1e-6),
                     red_black_partition(8, 8))
    for attr in ("indptr", "indices", "data"):
        assert getattr(M2.kernel.M, attr).tobytes() == \
            getattr(want.kernel.M, attr).tobytes()
    assert len(M2.kernel.groups) == len(want.kernel.groups)
    assert all(np.array_equal(g, h) for g, h in zip(M2.kernel.groups,
                                                    want.kernel.groups))
    assert want.norm_bound(K) is None and M2.norm_bound(K) is not None


class TestInconclusive:
    """An estimate that neither converged nor is certified below 4/3."""

    @staticmethod
    def pencil():
        rng = np.random.default_rng(21)
        n, m = 20, 30
        K = rng.standard_normal((m, n))
        B1, B2 = rng.standard_normal((n, n)), rng.standard_normal((m, m))
        P1, P2 = B1 @ B1.T + n * np.eye(n), B2 @ B2.T + m * np.eye(m)
        s = sla.eigh(K.T @ np.linalg.solve(P2, K), P1, eigvals_only=True)[-1]
        return DenseMetric(P1), DenseMetric(P2 * (s / 0.9)), DenseOperator(K)

    def test_a_generic_pencil_at_a_small_budget(self):
        M1, M2, K = self.pencil()
        rep = check_condition(M1, None, M2, K, max_iter=5)
        assert (rep.verdict, rep.converged, rep.iterations) == (
            "inconclusive", False, 5)
        assert rep.s_hat < 0.9 and rep.s_bar == np.inf and not rep.passed
        assert check_condition(M1, None, M2, K).verdict == "pass-unit"

    def test_solve_refuses_it_unless_overridden(self, monkeypatch):
        M1, M2, K = self.pencil()
        p = SaddleProblem(Zero(K.cols), Linear(np.ones(K.rows)), K)
        cfg = SolverConfig(M1=M1, M2=M2, max_iter=3)
        monkeypatch.setattr(solver, "CHECK_MAX_ITER", 5)
        with pytest.raises(ConfigurationError,
                           match=r"inconclusive: s_hat = 0\.\d+ .* 5 products"
                                 r".*set override"):
            solve(p, cfg)
        cfg.override = True
        rep = solve(p, cfg)
        assert rep.iters == 3 and rep.condition is None


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
