import warnings

import numpy as np
import pytest

from prepdhg import solver
from prepdhg.counterexamples import ToyDynamics
from prepdhg.exceptions import ConfigurationError
from prepdhg.metrics import DiagonalMetric, GramShiftMetric, ScalarMetric
from prepdhg.operators import (BirkhoffConstraint, DenseOperator,
                               GridDivergence, VStack)
from prepdhg.prox import (GroupL12, IndicatorSimplex, IndicatorSingleton,
                          L1Norm, Linear, QuadraticShiftNonneg, Zero)
from prepdhg.solver import (BLOWUP, HistoryRow, SaddleProblem, SolverConfig,
                            _Engine, configure_ebalm, configure_ebalm_sgs,
                            duality_gap_matrix_game, prepdhg_step, solve,
                            sublinear_diagnostic)
from prepdhg.problems import (emd, game_matrix, matrix_game,
                              random_balanced_grids, red_black_partition)
from test_batch import assert_same_report


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


@pytest.mark.parametrize("name", ["max_iter", "record_every"])
@pytest.mark.parametrize("value", [2.5, 3.0, np.nan, np.inf, "3", 0, -2,
                                   np.int64(0)])
def test_loop_settings_must_be_positive_integers(name, value):
    # max_iter = 2.5 never equals the step count, so a solve ran past it
    with pytest.raises(ConfigurationError, match=name):
        SolverConfig(M1=ScalarMetric(1.0, 1), M2=ScalarMetric(1.0, 1),
                     **{name: value})


@pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3)])
def test_loop_settings_take_python_and_numpy_integers(value):
    p = SaddleProblem(f=L1Norm(1), gstar=Linear([1.0]),
                      K=DenseOperator([[1.0]]))
    cfg = SolverConfig(M1=ScalarMetric(2.0, 1), M2=ScalarMetric(2.0, 1),
                       tol=0.0, max_iter=value, record_every=value, x0=[1.0])
    rep = solve(p, cfg)
    assert (rep.status, rep.iters) == ("max-iter", 3)
    assert [h.k for h in rep.history] == [3]


@pytest.mark.parametrize("side, start", [("x0", np.ones(7)),
                                         ("y0", np.ones(11)),
                                         ("x0", np.ones((2, 10)))])
def test_start_of_the_wrong_length_is_refused_at_setup(side, start,
                                                       monkeypatch):
    inst = matrix_game(game_matrix(1, 0, 10, 10, centered=True), 0.3, 1.0,
                       max_iter=30)
    setattr(inst.config, side, start)
    checked = []
    monkeypatch.setattr(solver, "_checked_condition",
                        lambda p, cfg: checked.append(cfg))
    with pytest.raises(ConfigurationError, match=side):
        inst.solve()
    assert not checked  # refused before the condition check


def test_start_of_column_shape_keeps_working():
    K = game_matrix(1, 0, 10, 10, centered=True)
    want = matrix_game(K, 0.3, 1.0, max_iter=30).solve()
    inst = matrix_game(K, 0.3, 1.0, max_iter=30)
    inst.config.x0 = np.full((10, 1), 0.1)
    inst.config.y0 = np.full(10, 0.1)
    got = inst.solve()
    assert_same_report(got, want)


@pytest.mark.parametrize("tol", [-1e-8, np.nan])
def test_tol_must_be_nonnegative(tol):
    # a NaN tol never meets the stopping test, so the solve ran to max-iter
    with pytest.raises(ConfigurationError, match="tol"):
        SolverConfig(M1=ScalarMetric(1.0, 1), M2=ScalarMetric(1.0, 1), tol=tol)
    K = np.random.default_rng(5).random((10, 10))
    with pytest.raises(ConfigurationError, match="tol"):
        matrix_game(K, 0.3, 1.0, tol=tol, max_iter=3000)


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

    @pytest.mark.parametrize("bad", ["theta", "gamma"])
    def test_nan_parameters_refused(self, bad):
        kw = dict(theta=1e-3, gamma=1.0)
        kw[bad] = np.nan
        with pytest.raises(ConfigurationError, match=f"{bad} = nan"):
            configure_ebalm(Zero(2), DenseOperator(np.eye(2)), np.zeros(2),
                            1.0, **kw)

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

    @pytest.mark.parametrize("bad", ["theta", "gamma"])
    def test_nan_parameters_refused(self, bad):
        K = DenseOperator(np.random.default_rng(14).standard_normal((4, 6)))
        kw = dict(theta=1e-2, gamma=1.0)
        kw[bad] = np.nan
        with pytest.raises(ConfigurationError, match=f"{bad} = nan"):
            configure_ebalm_sgs(Zero(6), K, np.zeros(4), 0.5,
                                partition=[np.array([0, 1]),
                                           np.array([2, 3])], **kw)

    @staticmethod
    def _grid(n):
        """An n x n emd grid's divergence (h = (n - 1)/4), its masses'
        difference and its red-black coloring, at tau = 10^-1.5."""
        r0, r1 = random_balanced_grids(n, n, 0)
        return (GroupL12(n, n), GridDivergence(n, n, (n - 1) / 4),
                (r0 - r1).ravel(), 10 ** -1.5, red_black_partition(n, n))

    @pytest.mark.parametrize("n", [8, 64])
    def test_theta_zero_at_three_quarters_is_refused(self, n):
        # theta = 0 puts the condition value at exactly 1/gamma = 4/3; at 64^2
        # the check read s_hat = 4/3 - 6.9e-9 unconverged and passed it
        f, K, b, tau, blocks = self._grid(n)
        with pytest.raises(ConfigurationError, match=r"4/3 boundary.*theta = 0"):
            configure_ebalm_sgs(f, K, b, tau, 0.0, 0.75, blocks)
        _, cfg = configure_ebalm_sgs(f, K, b, tau, 0.0, 0.75, blocks,
                                     override=True)
        assert cfg.override
        configure_ebalm_sgs(f, K, b, tau, 0.0, 0.8, blocks)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
    def test_gamma_not_positive_and_finite_is_refused_under_override(self, bad):
        f, K, b, tau, blocks = self._grid(8)
        with pytest.raises(ConfigurationError, match=f"gamma = {bad}"):
            configure_ebalm_sgs(f, K, b, tau, 1e-6, bad, blocks,
                                override=True)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("override", [False, True])
    def test_tau_not_positive_and_finite_is_refused(self, bad, override):
        # 0 read "no off-diagonal coupling", -1 "BCD needs positive diagonal
        # entries" and the rest "Q must be symmetric"
        f, K, b, _, blocks = self._grid(8)
        with pytest.raises(ConfigurationError, match=f"tau = {bad}"):
            configure_ebalm_sgs(f, K, b, bad, 1e-6, 1.0, blocks,
                                override=override)

    def test_emd_builds_through_the_helper(self):
        r0, r1 = random_balanced_grids(8, 8, 0)
        inst = emd(r0, r1, 7 / 4, 10 ** -1.5, 0.75, theta=1e-6, tol=3e-5,
                   max_iter=777, record_every=7)
        f, K, b, tau, blocks = self._grid(8)
        _, cfg = configure_ebalm_sgs(f, K, b, tau, 1e-6, 0.75, blocks,
                                     tol=3e-5, max_iter=777)
        got, want = inst.config, cfg
        for name in ("indptr", "indices", "data"):
            assert getattr(got.M2.kernel.M, name).tobytes() == \
                getattr(want.M2.kernel.M, name).tobytes()
        assert all(np.array_equal(g, w) for g, w in
                   zip(got.M2.kernel.groups, want.M2.kernel.groups, strict=True))
        assert got.M1.diagonal().tobytes() == want.M1.diagonal().tobytes()
        assert (got.tol, got.max_iter, got.override) == (3e-5, 777, False)
        assert (want.feas_scale, want.record_every) == (1.0, 1)
        assert got.feas_scale == np.linalg.norm(b) and got.record_every == 7

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


def test_blowup_found_at_the_same_iteration_between_records():
    # with no record due, the whole-block test alone decides when to look
    # for a blown row; the run diverges at the iteration it did when the
    # block test was the maximum magnitude
    dyn = ToyDynamics("bilinear", 1.0, 1.35)
    p, _ = dyn.saddle_problem()
    cfg = SolverConfig(M1=ScalarMetric(1.0, 1), M2=ScalarMetric(1.0 / 1.35, 1),
                       tol=0.0, max_iter=10**6, x0=[1.0], y0=[0.0],
                       override=True, record_every=10**6)
    rep = solve(p, cfg)
    assert (rep.status, rep.iters, len(rep.history)) == ("diverged", 754, 1)
    assert np.abs(rep.y_final).max() > BLOWUP >= np.abs(rep.x_final).max()


def _pinned_solve(side, value, weight=1.0):
    """A solve whose x (or y) iterate is the point c, holding ``value``, at
    every step: its entry is the indicator of {c}, the other side's is Zero
    and K = 0, so it converges at iteration 2 unless c blows up at 1."""
    n = 4
    c = np.array([1.0, -2.0, value, 0.5])
    pin, free = IndicatorSingleton(c), Zero(n)
    f, gstar = (pin, free) if side == "x" else (free, pin)
    p = SaddleProblem(f=f, gstar=gstar, K=DenseOperator(np.zeros((n, n))))
    cfg = SolverConfig(M1=ScalarMetric(weight, n), M2=ScalarMetric(weight, n),
                       tol=0.0, max_iter=100, record_every=100,
                       override=True)
    return solve(p, cfg)


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("value, status, iters", [
    (BLOWUP, "converged", 2),
    (-BLOWUP, "converged", 2),
    (np.nextafter(BLOWUP, np.inf), "diverged", 1),
    (-np.nextafter(BLOWUP, np.inf), "diverged", 1),
    (np.nan, "diverged", 1),
    (np.inf, "diverged", 1),
    (-np.inf, "diverged", 1),
])
def test_blowup_bound_is_exact_between_records(side, value, status, iters):
    # an entry of exactly BLOWUP stays; one ulp past it, NaN or inf blows up
    # at once, though no record is due (0 * inf in K = 0 is NaN)
    with np.errstate(invalid="ignore"):
        rep = _pinned_solve(side, value)
    assert (rep.status, rep.iters) == (status, iters)


@pytest.mark.parametrize("side", ["x", "y"])
def test_blowup_test_overflows_without_a_warning(side):
    # the whole-block test's sum of squares of 1e200 overflows and must not
    # warn; the metric weight keeps the residual bounds' norms finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = _pinned_solve(side, 1e200, weight=1e-200)
    assert (rep.status, rep.iters) == ("diverged", 1)


@pytest.mark.parametrize("side, rhat_half", [("x", np.inf), ("y", np.nan)])
def test_blown_up_norms_overflow_without_a_warning(side, rhat_half):
    # at unit weights the residual's norms of 1e200 overflow to inf: on the
    # step whose blow-up test fails they run with overflow ignored, and the
    # row still reports diverged at once with its bounds as inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = _pinned_solve(side, 1e200, weight=1.0)
    assert (rep.status, rep.iters) == ("diverged", 1)
    assert rep.stop_residual == np.inf
    assert [repr(h[:4]) for h in rep.history] == \
        [repr((1, np.inf, rhat_half, np.nan))]


def test_iterates_near_the_blowup_bound_keep_their_trajectory():
    # scaling b and the start by a power of two scales every iterate, bound
    # and the tolerance of this linear problem exactly.  Scaled so that x
    # ends near 9e11 with no entry past BLOWUP on the way, the squares of x
    # add up past BLOWUP**2, so the steps run the exact per-row test, which
    # must change nothing
    rng = np.random.default_rng(17)
    n = 16
    A = rng.standard_normal((n, n)) / np.sqrt(n) + 2.0 * np.eye(n)
    K = DenseOperator(A)
    L = 1.2 * np.linalg.norm(A, 2)
    x_star = np.full(n, 1.6)
    x0 = x_star + 0.05 * rng.standard_normal(n)

    def problem(scale):
        p = SaddleProblem(f=Zero(n), gstar=Linear(scale * (A @ x_star)), K=K)
        cfg = SolverConfig(M1=ScalarMetric(L, n), M2=ScalarMetric(L, n),
                           tol=scale * 1e-9, max_iter=10**4,
                           record_every=10**4, x0=scale * x0)
        return p, cfg

    p, cfg = problem(1.0)
    base = solve(p, cfg)
    assert base.status == "converged"
    x, y, peak = x0, np.zeros(n), 0.0
    for _ in range(base.iters):
        x, y = prepdhg_step(p, cfg, x, y)
        peak = max(peak, np.abs(x).max(), np.abs(y).max())
    assert np.array_equal(x, base.x_final) and np.array_equal(y, base.y_final)
    scale = 2.0 ** np.floor(np.log2(BLOWUP / peak))
    rep = solve(*problem(scale))
    assert np.all((8e11 < np.abs(rep.x_final)) & (np.abs(rep.x_final) < 1e12))
    assert np.sum(rep.x_final ** 2) >= BLOWUP ** 2
    assert (rep.status, rep.iters) == ("converged", base.iters)
    assert np.array_equal(rep.x_final, scale * base.x_final)
    assert np.array_equal(rep.y_final, scale * base.y_final)
    assert rep.stop_residual == scale * base.stop_residual


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
        _Engine(p, [cfg])  # set-up alone, before any step
