import numpy as np
import pytest

from prepdhg.counterexamples import ToyDynamics
from prepdhg.exceptions import ConfigurationError
from prepdhg.metrics import DiagonalMetric, GramShiftMetric, ScalarMetric
from prepdhg.operators import (BirkhoffConstraint, DenseOperator,
                               GridDivergence, VStack)
from prepdhg.prox import (GroupL12, IndicatorSimplex, L1Norm, Linear,
                          QuadraticShiftNonneg, Zero)
from prepdhg.solver import (HistoryRow, SaddleProblem, SolverConfig, _Engine,
                            configure_ebalm, configure_ebalm_sgs,
                            duality_gap_matrix_game, prepdhg_step, solve,
                            sublinear_diagnostic)
from prepdhg.problems import game_matrix, matrix_game


class TestStep:
    def test_bilinear_toy_single_step(self):
        dyn = ToyDynamics("bilinear", 1.0, 1.0)
        p, cfg = dyn.saddle_problem()
        x1, y1 = prepdhg_step(p, cfg, [1.0], [1.0])
        assert x1 == pytest.approx([0.0])
        assert y1 == pytest.approx([0.0])

    @pytest.mark.parametrize("kind", ["bilinear", "quadratic"])
    def test_step_equals_affine_map(self, kind):
        rng = np.random.default_rng(0)
        for _ in range(25):
            tau = float(rng.random() + 0.1)
            sigma = float(rng.random() + 0.1)
            dyn = ToyDynamics(kind, tau, sigma)
            p, cfg = dyn.saddle_problem()
            z = rng.standard_normal(2)
            x1, y1 = prepdhg_step(p, cfg, [z[0]], [z[1]])
            want = dyn.G @ z
            assert abs(x1[0] - want[0]) <= 1e-14 * (1 + abs(want[0]))
            assert abs(y1[0] - want[1]) <= 1e-14 * (1 + abs(want[1]))

    def test_birkhoff_update_closed_form(self):
        # X+ = Proj_+(X + tau*C - tau*(y1 e^T + e y2^T)) / (1 + tau)
        rng = np.random.default_rng(1)
        n, tau, gamma, theta = 3, 0.8, 1.0, 1e-4
        C = rng.random((n, n))
        K = BirkhoffConstraint(n)
        f = QuadraticShiftNonneg(C.ravel())
        p = SaddleProblem(f=f, gstar=Linear(np.ones(2 * n)), K=K)
        M2 = GramShiftMetric(gamma, tau, K, theta=gamma * tau * theta)
        cfg = SolverConfig(M1=ScalarMetric(1.0 / tau, n * n), M2=M2,
                           override=True)
        X = rng.random((n, n))
        y = rng.standard_normal(2 * n)
        y1, y2 = y[:n], y[n:]
        x_new, y_new = prepdhg_step(p, cfg, X.ravel(), y)
        want = np.maximum(0.0, X + tau * C
                          - tau * (y1[:, None] + y2[None, :])) / (1.0 + tau)
        assert np.allclose(x_new.reshape(n, n), want, atol=1e-13)
        # dual step: y+ = y + (1/(gamma*tau)) (K K^T + theta I)^{-1} (Kz - b)
        z = 2.0 * x_new - X.ravel()
        rhs = K.apply(z) - np.ones(2 * n)
        Kd = K.to_dense()
        Md = Kd @ Kd.T + theta * np.eye(2 * n)
        assert np.allclose(y_new - y,
                           np.linalg.solve(Md, rhs) / (gamma * tau), atol=1e-9)

    def test_zero_f_pure_dual_ascent_step(self):
        rng = np.random.default_rng(2)
        K = DenseOperator(rng.standard_normal((4, 3)))
        p = SaddleProblem(f=Zero(3), gstar=Linear(rng.standard_normal(4)), K=K)
        s = 2.5  # M1 = s*I, e.g. (2*gamma/tau) I
        cfg = SolverConfig(M1=ScalarMetric(s, 3),
                           M2=ScalarMetric(10.0, 4), override=True)
        x = rng.standard_normal(3)
        y = rng.standard_normal(4)
        x_new, _ = prepdhg_step(p, cfg, x, y)
        assert np.allclose(x_new, x - K.apply_adjoint(y) / s)

    def test_unsupported_pair_rejected_at_setup(self):
        rng = np.random.default_rng(3)
        K = DenseOperator(rng.standard_normal((3, 3)))
        p = SaddleProblem(f=IndicatorSimplex(3), gstar=Zero(3), K=K)
        M1 = GramShiftMetric(1.0, 1.0, DenseOperator(np.eye(3)), theta=0.5)
        cfg = SolverConfig(M1=M1, M2=ScalarMetric(1.0, 3), override=True)
        with pytest.raises(ConfigurationError):
            prepdhg_step(p, cfg, np.ones(3) / 3, np.zeros(3))


class TestSolve:
    def test_toy_converges_at_unit_product(self):
        dyn = ToyDynamics("bilinear", 1.0, 1.0)
        p, _ = dyn.saddle_problem()
        cfg = SolverConfig(M1=ScalarMetric(1.0, 1), M2=ScalarMetric(1.0, 1),
                           tol=1e-8, max_iter=100000, x0=[1.0], y0=[1.0])
        rep = solve(p, cfg)
        assert rep.status == "converged"
        assert abs(rep.x_final[0]) <= 1e-8 and abs(rep.y_final[0]) <= 1e-8

    def test_toy_oscillates_at_boundary(self):
        tau = 1.0
        dyn = ToyDynamics("bilinear", tau, 4.0 / 3.0 / tau)
        p, _ = dyn.saddle_problem()
        cfg = SolverConfig(M1=ScalarMetric(1.0 / tau, 1),
                           M2=ScalarMetric(tau / (4.0 / 3.0), 1),
                           tol=1e-8, max_iter=3000, x0=[1.0], y0=[0.0],
                           override=True)
        rep = solve(p, cfg)
        assert rep.status == "max-iter"
        assert np.hypot(rep.x_final[0], rep.y_final[0]) > 0.05

    def test_matrix_game_symmetric_equilibrium(self):
        inst = matrix_game(np.array([[1.0, -1.0], [-1.0, 1.0]]), 1.0, 1.0,
                           tol=1e-9)
        rep = inst.solve()
        assert rep.status == "converged"
        assert np.allclose(rep.x_final, [0.5, 0.5], atol=1e-6)
        assert np.allclose(rep.y_final, [0.5, 0.5], atol=1e-6)
        gap = duality_gap_matrix_game(inst.saddle.K, rep.x_final, rep.y_final)
        assert gap <= 1e-6

    def test_fixed_point_zero_step(self):
        # starting at the saddle point the first step does not move
        K = DenseOperator(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        p = SaddleProblem(f=IndicatorSimplex(2), gstar=IndicatorSimplex(2), K=K)
        cfg = SolverConfig(M1=ScalarMetric(2.0, 2), M2=ScalarMetric(2.0, 2),
                           tol=0.0, max_iter=3, x0=[0.5, 0.5], y0=[0.5, 0.5])
        x1, y1 = prepdhg_step(p, cfg, cfg.x0, cfg.y0)
        assert np.linalg.norm(x1 - cfg.x0) <= 1e-12
        assert np.linalg.norm(y1 - cfg.y0) <= 1e-12

    def test_validation_rejects_failing_pair(self):
        dyn = ToyDynamics("bilinear", 2.0, 2.0 / 3.0 + 0.01)
        p, _ = dyn.saddle_problem()
        cfg = SolverConfig(M1=ScalarMetric(0.5, 1),
                           M2=ScalarMetric(1.0 / (2.0 / 3.0 + 0.01), 1),
                           tol=1e-8, max_iter=10)
        with pytest.raises(ConfigurationError):
            solve(p, cfg)

    def test_converged_means_residual_below_tol(self):
        rng = np.random.default_rng(4)
        inst = matrix_game(rng.random((6, 5)), 0.7, 0.9, tol=1e-7)
        rep = inst.solve()
        assert rep.status == "converged"
        assert rep.stop_residual <= 1e-7
        # running minimum of recorded residuals is reached at termination
        full = [h.rhat_full for h in rep.history]
        assert full[-1] == min(full)


@pytest.mark.parametrize("feas_scale", [-1.0, 0.0, np.nan, np.inf])
def test_feas_scale_must_be_positive_and_finite(feas_scale):
    # with feas_scale = -1 an emd solve stopped as converged at iteration 1
    with pytest.raises(ConfigurationError, match="feas_scale"):
        SolverConfig(M1=ScalarMetric(1.0, 1), M2=ScalarMetric(1.0, 1),
                     feas_scale=feas_scale)


class TestResidualHat:
    def test_saddle_point_start_stops_at_first_step(self):
        # the step does not move, so the full bound is exactly zero; the
        # half bound needs a previous step and is nan on the first
        K = DenseOperator(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        p = SaddleProblem(f=IndicatorSimplex(2), gstar=IndicatorSimplex(2), K=K)
        cfg = SolverConfig(M1=ScalarMetric(2.0, 2), M2=ScalarMetric(2.0, 2),
                           tol=0.0, max_iter=3, x0=[0.5, 0.5], y0=[0.5, 0.5])
        rep = solve(p, cfg)
        assert (rep.status, rep.iters) == ("converged", 1)
        assert rep.stop_residual == 0.0
        assert rep.history[0].rhat_full == 0.0
        assert np.isnan(rep.history[0].rhat_half)

    def test_linear_gstar_stops_on_compact_bound(self):
        # g* = 0 is linear: the step from (1, 1) lands on the saddle point
        # (0, 0), where the full bound is already 0 but the compact bound
        # max(||M1 dx||, ||Kx+ - b||) = 1; the next step makes it 0
        dyn = ToyDynamics("bilinear", 1.0, 1.0)
        p, _ = dyn.saddle_problem()
        cfg = SolverConfig(M1=ScalarMetric(1.0, 1), M2=ScalarMetric(1.0, 1),
                           tol=1e-8, x0=[1.0], y0=[1.0])
        rep = solve(p, cfg)
        assert (rep.status, rep.iters) == ("converged", 2)
        first, last = rep.history
        assert (first.rhat_full, first.rhat_half) == (0.0, 1.0)
        assert (last.rhat_full, last.rhat_half) == (0.0, 0.0)
        assert rep.stop_residual == last.rhat_half

    def test_dominates_true_kkt_residual_linear_g(self):
        # for linear g*, dist(0, dg*(y) - Kx) = ||b - Kx|| exactly
        rng = np.random.default_rng(6)
        K = DenseOperator(rng.standard_normal((4, 6)))
        b = rng.standard_normal(4)
        f = L1Norm(6, 0.4)
        prob, cfg = configure_ebalm(f, K, b, tau=0.7, theta=1e-3, gamma=0.8,
                                    tol=1e-9, max_iter=200000)
        rep = solve(prob, cfg)
        assert rep.status == "converged"
        assert np.linalg.norm(K.apply(rep.x_final) - b) <= 1e-9

    def test_history_row_shape(self):
        inst = matrix_game(np.array([[0.0]]), 0.5, 1.0, tol=1e-10)
        rep = inst.solve()
        assert rep.status == "converged"
        assert rep.iters == 1  # constant game is solved immediately
        assert isinstance(rep.history[0], HistoryRow)


class TestDualityGap:
    def test_symmetric_game_zero_gap(self):
        K = DenseOperator(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert duality_gap_matrix_game(K, [0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_zero_matrix(self):
        K = DenseOperator(np.zeros((3, 2)))
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.random(2)
            x /= x.sum()
            y = rng.random(3)
            y /= y.sum()
            assert duality_gap_matrix_game(K, x, y) == 0.0

    def test_vertex_enumeration_example(self):
        K = DenseOperator(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert duality_gap_matrix_game(K, [0.0, 1.0], [1.0, 0.0]) == \
            pytest.approx(0.0)
        assert duality_gap_matrix_game(K, [1.0, 0.0], [1.0, 0.0]) == \
            pytest.approx(1.0)

    def test_nonnegative_for_feasible_pairs(self):
        rng = np.random.default_rng(8)
        K = DenseOperator(rng.standard_normal((4, 5)))
        for _ in range(100):
            x = rng.random(5)
            x /= x.sum()
            y = rng.random(4)
            y /= y.sum()
            assert duality_gap_matrix_game(K, x, y) >= -1e-12


class TestSublinearDiagnostic:
    def test_constant_history_flags(self):
        hist = [(k, 1.0) for k in range(1, 101)]
        diag = sublinear_diagnostic(hist)
        assert diag.flagged
        scaled = diag.table[:, 1]
        assert np.all(np.diff(scaled) > 0)

    def test_one_over_k_history_clean(self):
        hist = [(k, 1.0 / k) for k in range(1, 201)]
        diag = sublinear_diagnostic(hist)
        assert not diag.flagged
        assert diag.table[-1, 1] <= diag.table[len(diag.table) // 2, 1]

    def test_converged_game_run_clean(self):
        rng = np.random.default_rng(9)
        inst = matrix_game(2 * rng.random((20, 20)) - 1, 0.4, 1.0, tol=1e-6)
        rep = inst.solve()
        assert rep.status == "converged"
        assert not sublinear_diagnostic(rep.history).flagged


class TestConfigureEbalm:
    def test_gamma_one_recovers_balanced_alm(self):
        rng = np.random.default_rng(10)
        K = DenseOperator(rng.standard_normal((3, 5)))
        b = rng.standard_normal(3)
        f = L1Norm(5, 1.0)
        prob, cfg = configure_ebalm(f, K, b, tau=0.6, theta=1e-2, gamma=1.0)
        x = rng.standard_normal(5)
        y = rng.standard_normal(3)
        x1, y1 = prepdhg_step(prob, cfg, x, y)
        Mhat = 0.6 * (K.A @ K.A.T) + 1e-2 * np.eye(3)
        rhs = K.apply(2 * x1 - x) - b
        assert np.allclose(y1 - y, np.linalg.solve(Mhat, rhs), atol=1e-12)

    def test_dual_step_scaling_identity(self):
        rng = np.random.default_rng(11)
        K = DenseOperator(rng.standard_normal((4, 6)))
        b = rng.standard_normal(4)
        gamma = 0.8
        prob, cfg = configure_ebalm(L1Norm(6, 1.0), K, b, tau=0.5,
                                    theta=1e-3, gamma=gamma)
        x = rng.standard_normal(6)
        y = rng.standard_normal(4)
        x1, y1 = prepdhg_step(prob, cfg, x, y)
        red = GramShiftMetric(1.0, 0.5, K, theta=1e-3)  # tau K K^T + theta I
        want = red.solve(K.apply(2 * x1 - x) - b) / gamma
        assert np.allclose(y1 - y, want, atol=1e-12)

    def test_gamma_bound(self):
        K = DenseOperator(np.eye(2))
        f = Zero(2)
        configure_ebalm(f, K, np.zeros(2), 1.0, 1e-3, 0.75)
        with pytest.raises(ConfigurationError):
            configure_ebalm(f, K, np.zeros(2), 1.0, 1e-3, 0.74)

    def test_birkhoff_roundtrip(self):
        K = BirkhoffConstraint(4)
        prob, cfg = configure_ebalm(QuadraticShiftNonneg(np.zeros(16)), K,
                                    np.ones(8), tau=1.0, theta=1e-4, gamma=1.0)
        rng = np.random.default_rng(12)
        r = rng.standard_normal(8)
        assert np.allclose(cfg.M2.apply(cfg.M2.solve(r)), r, atol=1e-10)

    def test_large_operator_factorizes_at_setup(self):
        # with the check overridden, nothing runs M2.solve before the loop;
        # the 4608-row Gram shift must still be factorized at set-up
        K = GridDivergence(48, 96, 1.0)
        rng = np.random.default_rng(13)
        b = K.apply(rng.standard_normal(K.cols))
        prob, cfg = configure_ebalm(L1Norm(K.cols, 0.1), K, b, tau=0.5,
                                    theta=1e-3, gamma=0.6, max_iter=3,
                                    override=True)
        rep = solve(prob, cfg)
        assert rep.status == "max-iter" and rep.iters == 3
        assert np.all(np.isfinite(rep.y_final))

    def test_stacked_operator_builds_from_sparse_form(self):
        # VStack reaches the Gram shift through its children's sparse forms
        K = VStack([GridDivergence(40, 40)] * 2)
        b = K.apply(np.random.default_rng(14).standard_normal(K.cols))
        prob, cfg = configure_ebalm(Zero(K.cols), K, b, tau=0.5, theta=1e-3,
                                    gamma=1.0, max_iter=3, override=True)
        rep = solve(prob, cfg)
        assert rep.status == "max-iter" and rep.iters == 3
        assert np.all(np.isfinite(rep.y_final))


class TestConfigureEbalmSGS:
    def test_one_update_equals_exact_metric_solve(self):
        rng = np.random.default_rng(13)
        K = DenseOperator(rng.standard_normal((6, 8)))
        b = rng.standard_normal(6)
        blocks = [np.array([0, 3]), np.array([1, 4, 5]), np.array([2])]
        prob, cfg = configure_ebalm_sgs(L1Norm(8, 1.0), K, b, tau=0.5,
                                        theta=1e-2, gamma=0.8,
                                        partition=blocks)
        x = rng.standard_normal(8)
        y = rng.standard_normal(6)
        x1, y1 = prepdhg_step(prob, cfg, x, y)
        from helpers import sgs_dense_oracle
        Q = 0.8 * 0.5 * (K.A @ K.A.T) + 1e-2 * np.eye(6)
        dense = sgs_dense_oracle(Q, blocks)
        rhs = K.apply(2 * x1 - x) - b
        assert np.allclose(y1 - y, np.linalg.solve(dense, rhs), atol=1e-10)

    def test_gamma_threshold(self):
        rng = np.random.default_rng(14)
        K = DenseOperator(rng.standard_normal((4, 6)))
        blocks = [np.array([0, 1]), np.array([2, 3])]
        configure_ebalm_sgs(Zero(6), K, np.zeros(4), 0.5, 1e-2, 0.75, blocks)
        with pytest.raises(ConfigurationError):
            configure_ebalm_sgs(Zero(6), K, np.zeros(4), 0.5, 1e-2, 0.749,
                                blocks)

    def test_decoupled_partition_redirects_to_ebalm(self):
        K = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        blocks = [np.array([0]), np.array([1]), np.array([2])]
        with pytest.raises(ConfigurationError, match="configure_ebalm"):
            configure_ebalm_sgs(Zero(3), K, np.zeros(3), 0.5, 1e-2, 1.0,
                                blocks)


def test_blowup_reported_as_diverged():
    dyn = ToyDynamics("bilinear", 1.0, 1.35)
    p, _ = dyn.saddle_problem()
    cfg = SolverConfig(M1=ScalarMetric(1.0, 1), M2=ScalarMetric(1.0 / 1.35, 1),
                       tol=0.0, max_iter=10**6, x0=[1.0], y0=[0.0],
                       override=True)
    rep = solve(p, cfg)
    assert rep.status == "diverged"
    assert rep.iters < 10**6


def test_nan_start_reported_as_diverged_at_first_iteration():
    inst = matrix_game(game_matrix(1, 0, 10, 10, centered=True), 1.0, 1.0,
                       max_iter=3000)
    inst.config.x0 = np.full(10, np.nan)
    rep = inst.solve()
    assert rep.status == "diverged"
    assert rep.iters == 1
    assert rep.history[-1].k == 1


def test_group_weights_rejected_at_engine_setup():
    K = GridDivergence(2, 2, 1.0)
    d = np.ones(K.cols)
    d[0] = 2.0
    p = SaddleProblem(f=GroupL12(2, 2), gstar=Linear(np.zeros(K.rows)), K=K)
    cfg = SolverConfig(M1=DiagonalMetric(d), M2=ScalarMetric(1.0, K.rows),
                       override=True)
    with pytest.raises(ConfigurationError, match="equal metric weights"):
        _Engine(p, cfg)  # set-up alone, before any step
