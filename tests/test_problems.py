import re
import warnings

import numpy as np
import pytest

from prepdhg.exceptions import ConfigurationError
from prepdhg.metrics import check_condition
from prepdhg.operators import BirkhoffConstraint, GridDivergence
from prepdhg.problems import (OracleSolution, birkhoff_projection, emd,
                              emd_lp_objective, game_matrix, load_grid,
                              matrix_game, matrix_game_equilibrium,
                              oracle_solve, project_birkhoff_dykstra,
                              random_balanced_grids, random_sparse_system,
                              red_black_partition, tv_least_squares)
from prepdhg.prox import Zero
from prepdhg.solver import configure_ebalm, configure_ebalm_sgs


class TestMatrixGame:
    def test_symmetric_game_reaches_equilibrium(self):
        inst = matrix_game(np.array([[1.0, -1.0], [-1.0, 1.0]]), 1.0, 1.0,
                           tol=1e-9, record_gap=True)
        rep = inst.solve()
        assert rep.status == "converged"
        assert np.allclose(rep.x_final, [0.5, 0.5], atol=1e-6)
        assert rep.history[-1].gap <= 1e-6

    def test_zero_game_all_pairs_optimal(self):
        inst = matrix_game(np.array([[0.0]]), 0.5, 1.0, tol=1e-12)
        rep = inst.solve()
        assert rep.status == "converged"
        assert rep.iters == 1

    def test_gamma_bound_rejected(self):
        K = np.eye(3)
        with pytest.raises(ConfigurationError):
            matrix_game(K, 1.0, 0.75)
        matrix_game(K, 1.0, 0.7501)

    @pytest.mark.parametrize("bad", ["gamma", "tau_tilde"])
    def test_nan_stepsizes_refused(self, bad):
        kw = dict(gamma=1.0, tau_tilde=1.0)
        kw[bad] = np.nan
        with pytest.raises(ConfigurationError, match=f"{bad} = nan"):
            matrix_game(np.eye(3), **kw)

    def test_recommended_config_passes_condition_grid(self):
        rng = np.random.default_rng(0)
        K = rng.standard_normal((6, 5))
        for tt in np.logspace(-0.7, 0.3, 10):
            for gamma in (0.76, 1.0):
                inst = matrix_game(K, float(tt), gamma)
                rep = check_condition(inst.config.M1, inst.saddle.f.sigma,
                                      inst.config.M2, inst.saddle.K)
                assert rep.passed

    def test_oracle_support_enumeration(self):
        x, y, v = matrix_game_equilibrium([[1.0, -1.0], [-1.0, 1.0]])
        assert v == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(x, [0.5, 0.5])
        assert np.allclose(y, [0.5, 0.5])

    def test_oracle_matching_pennies_variants(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            K = rng.standard_normal((3, 3))
            x, y, v = matrix_game_equilibrium(K)
            # equilibrium conditions certified directly
            assert np.max(K @ x) <= v + 1e-8
            assert np.min(K.T @ y) >= v - 1e-8

    def test_oracle_attached_only_at_small_sizes(self):
        small = matrix_game(np.zeros((2, 2)) + np.eye(2), 1.0, 1.0)
        assert small.oracle is not None
        sol = oracle_solve(small)
        assert isinstance(sol, OracleSolution)
        big = matrix_game(np.eye(5), 1.0, 1.0)
        assert big.oracle is None
        with pytest.raises(ConfigurationError):
            oracle_solve(big)

    def test_generators_deterministic(self):
        a = game_matrix(1, 3, 10, 10).A
        b = game_matrix(1, 3, 10, 10).A
        assert np.array_equal(a, b)
        c = game_matrix(1, 3, 10, 10, centered=True).A
        assert np.allclose(c, 2 * a - 1)
        sp4 = game_matrix(4, 0, 30, 40)
        assert sp4.shape == (30, 40)

    def test_generator_refuses_a_size_below_one(self):
        # a size of 0 was read as "the recipe's default" and gave 100x3
        with pytest.raises(ConfigurationError, match="size must be positive"):
            game_matrix(1, 0, 0, 3)
        with pytest.raises(ConfigurationError, match="unknown test id"):
            game_matrix(5, 0)
        assert game_matrix(3, 0, n=7).shape == (500, 7)


class TestBirkhoff:
    def test_projection_of_e11(self):
        C = np.array([[1.0, 0.0], [0.0, 0.0]])
        inst = birkhoff_projection(C, tau=1.0, gamma=1.0, tol=1e-10)
        rep = inst.solve()
        assert rep.status == "converged"
        want = np.array([[0.75, 0.25], [0.25, 0.75]])
        assert np.allclose(rep.x_final.reshape(2, 2), want, atol=1e-6)

    def test_doubly_stochastic_input_is_fixed_point(self):
        n = 4
        rng = np.random.default_rng(2)
        X0 = project_birkhoff_dykstra(rng.random((n, n)))
        inst = birkhoff_projection(X0, tau=0.8, gamma=1.0, tol=1e-9)
        inst.config.x0 = X0.ravel()
        rep = inst.solve()
        assert rep.status == "converged"
        assert rep.iters == 1
        assert rep.stop_residual <= 1e-12

    def test_matches_dykstra_oracle_up_to_n8(self):
        rng = np.random.default_rng(3)
        for n in (3, 5, 8):
            C = rng.random((n, n))
            C = 0.5 * (C + C.T)
            tau = 10 ** 0.4 / np.sqrt(2 * n)
            inst = birkhoff_projection(C, tau=tau, gamma=1.0, tol=1e-10)
            rep = inst.solve()
            assert rep.status == "converged"
            want = project_birkhoff_dykstra(C)
            assert np.allclose(rep.x_final.reshape(n, n), want, atol=1e-6)
            sol = oracle_solve(inst)
            assert sol.objective == pytest.approx(
                inst.objective(rep.x_final), abs=1e-6)

    def test_dykstra_produces_feasible_projection(self):
        rng = np.random.default_rng(4)
        C = rng.standard_normal((6, 6))
        X = project_birkhoff_dykstra(C)
        assert np.all(X >= -1e-13)
        assert np.allclose(X.sum(axis=0), 1.0, atol=1e-10)
        assert np.allclose(X.sum(axis=1), 1.0, atol=1e-10)

    def test_gamma_bound_uses_strong_convexity(self):
        # gamma >= 0.75/(1 + tau/2) is accepted, below it is not
        tau = 1.0
        bound = 0.75 / (1 + tau / 2)
        C = np.eye(3)
        birkhoff_projection(C, tau=tau, gamma=bound, method="ebalm")
        with pytest.raises(ConfigurationError):
            birkhoff_projection(C, tau=tau, gamma=bound - 1e-3, method="ebalm")
        birkhoff_projection(C, tau=tau, gamma=bound + 1e-3, method="pdhg")
        with pytest.raises(ConfigurationError):
            birkhoff_projection(C, tau=tau, gamma=bound - 1e-3, method="pdhg")

    @pytest.mark.parametrize("method", ["ebalm", "pdhg"])
    @pytest.mark.parametrize("bad", ["tau", "theta", "gamma"])
    def test_nan_parameters_refused(self, method, bad):
        # pdhg reads no theta, and NaN passed the old "<= 0" bounds
        kw = dict(tau=1.0, theta=1e-4, gamma=1.0)
        kw[bad] = np.nan
        with pytest.raises(ConfigurationError, match=f"{bad} = nan"):
            birkhoff_projection(np.eye(3), method=method, **kw)

    def test_ebalm_beats_pdhg_iterations(self):
        rng = np.random.default_rng(5)
        n = 20
        C = rng.random((n, n))
        C = 0.5 * (C + C.T)
        tau = 10 ** 0.44 / np.sqrt(2 * n)
        iters = {}
        for name, method, gamma in [
                ("pdhg", "pdhg", 1.0),
                ("ebalm", "ebalm", 0.75 / (1 + tau / 2))]:
            inst = birkhoff_projection(C, tau=tau, gamma=gamma, method=method,
                                       tol=1e-8)
            rep = inst.solve()
            assert rep.status == "converged"
            iters[name] = rep.iters
        assert iters["ebalm"] < iters["pdhg"]

    def test_recommended_config_passes_condition_grid(self):
        C = np.eye(4)
        for tt in np.logspace(0.2, 0.6, 10):
            tau = float(tt) / np.sqrt(8.0)
            for method in ("ebalm", "pdhg"):
                gamma = 0.75 / (1 + tau / 2) if method == "ebalm" \
                    else 0.751 / (1 + tau / 2)
                inst = birkhoff_projection(C, tau=tau, gamma=gamma,
                                           method=method)
                rep = check_condition(inst.config.M1, inst.saddle.f.sigma,
                                      inst.config.M2, inst.saddle.K)
                assert rep.passed, (method, tau, rep.s_hat)


class TestEMD:
    def test_unbalanced_masses_rejected(self):
        with pytest.raises(ConfigurationError):
            emd([[1.0, 0.0]], [[0.0, 0.9]], 1.0, 0.5, 1.0)

    @pytest.mark.parametrize("h", [0.0, -0.5, np.nan, np.inf])
    def test_bad_grid_step_rejected(self, h):
        # a one-column grid's default step (N - 1)/4 is 0, which made the
        # divergence zero: each solve then ran to max_iter at residual 1
        r0, r1 = random_balanced_grids(5, 1, 0)
        with pytest.raises(ConfigurationError, match="grid step h"):
            emd(r0, r1, h, 0.1, 0.75)

    def test_equal_masses_zero_flux(self):
        rng = np.random.default_rng(6)
        r = rng.random((3, 3))
        r /= r.sum()
        inst = emd(r, r, 1.0, 0.3, 0.8)
        rep = inst.solve()
        assert rep.status == "converged"
        assert inst.objective(rep.x_final) <= 1e-10

    @pytest.mark.parametrize("h", [1.0, 0.5])
    def test_unit_mass_one_cell_objective(self, h):
        # moving unit mass one cell costs 1/h; stepsize scales with 1/h
        inst = emd([[1.0, 0.0]], [[0.0, 1.0]], h, tau=2.0 / h, gamma=0.75,
                   tol=5e-6, max_iter=100000)
        rep = inst.solve()
        assert rep.status == "converged"
        assert inst.objective(rep.x_final) == pytest.approx(1.0 / h, abs=1e-4)
        assert oracle_solve(inst).objective == pytest.approx(1.0 / h, abs=1e-5)

    def test_small_grids_match_lp_oracle(self):
        for M, N, seed, tau in [(2, 2, 5, 1.0), (3, 4, 6, 0.6), (4, 4, 7, 0.5)]:
            r0, r1 = random_balanced_grids(M, N, seed)
            h = max((N - 1) / 4.0, 0.25)
            inst = emd(r0, r1, h, tau=tau, gamma=0.8, tol=1e-7,
                       max_iter=400000)
            rep = inst.solve()
            assert rep.status == "converged"
            lp = oracle_solve(inst).objective
            assert inst.objective(rep.x_final) == pytest.approx(lp, abs=1e-4)
            # divergence constraint met to the stopping tolerance
            K, b = inst.saddle.K, inst.saddle.gstar.b
            feas = np.linalg.norm(K.apply(rep.x_final) - b)
            assert feas <= inst.config.tol * max(np.linalg.norm(b), 1.0)

    def test_red_black_partition_decouples_gram_blocks(self):
        from prepdhg.operators import GridDivergence
        for M, N in [(4, 4), (3, 5), (1, 6)]:
            D = GridDivergence(M, N, 1.0).to_dense()
            G = D @ D.T
            for blk in red_black_partition(M, N):
                sub = G[np.ix_(blk, blk)]
                assert np.allclose(sub - np.diag(np.diag(sub)), 0.0)

    def test_sgs_boundary_gamma_validation(self):
        r0, r1 = random_balanced_grids(4, 4, 8)
        emd(r0, r1, 1.0, 0.5, 0.75)  # boundary value accepted
        with pytest.raises(ConfigurationError):
            emd(r0, r1, 1.0, 0.5, 0.749)
        with pytest.raises(ConfigurationError):
            emd(r0, r1, 1.0, 0.5, 0.75, theta=0.0)

    @pytest.mark.parametrize("method", ["sgs", "iebalm"])
    @pytest.mark.parametrize("bad", ["tau", "theta", "gamma"])
    def test_nan_parameters_refused(self, method, bad):
        # NaN passed the old bounds and ended in "BCD needs a finite matrix"
        r0, r1 = random_balanced_grids(4, 4, 8)
        kw = dict(tau=0.5, theta=1e-6, gamma=1.0)
        kw[bad] = np.nan
        with pytest.raises(ConfigurationError, match=f"{bad} = nan"):
            emd(r0, r1, 1.0, method=method, **kw)

    def test_gamma_just_below_bound_flagged_by_checker(self):
        # the overridden 0.749 configuration fails the strict condition;
        # empirical divergence is scale-dependent, the flag is not
        r0, r1 = random_balanced_grids(16, 16, 1)
        inst = emd(r0, r1, 15 / 4, tau=0.05, gamma=0.749, theta=1e-6,
                   override=True)
        rep = check_condition(inst.config.M1, inst.saddle.f.sigma,
                              inst.config.M2, inst.saddle.K)
        assert rep.verdict == "fail"
        assert rep.s_hat > 4.0 / 3.0

    def test_sgs_converges_at_16x16(self):
        r0, r1 = random_balanced_grids(16, 16, 1)
        inst = emd(r0, r1, 15 / 4, tau=0.05, gamma=0.75, theta=1e-6,
                   tol=5e-4, record_every=200)
        rep = inst.solve()
        assert rep.status == "converged"

    def test_recommended_config_passes_condition_grid(self):
        r0, r1 = random_balanced_grids(4, 4, 20)
        for tau in np.logspace(-1.5, 0.5, 10):
            for gamma in (0.75, 1.0):
                inst = emd(r0, r1, 0.75, float(tau), gamma, theta=1e-6)
                rep = check_condition(inst.config.M1, inst.saddle.f.sigma,
                                      inst.config.M2, inst.saddle.K)
                assert rep.passed, (tau, gamma, rep.s_hat)

    def test_inexact_variant_runs_and_is_flagged(self):
        r0, r1 = random_balanced_grids(4, 4, 9)
        inst = emd(r0, r1, 0.75, tau=0.5, gamma=1.0, theta=0.0,
                   method="iebalm", tol=1e-6, max_iter=200000)
        assert inst.config.override
        rep = inst.solve()
        assert rep.status == "converged"
        lp = oracle_solve(inst).objective
        assert inst.objective(rep.x_final) == pytest.approx(lp, abs=1e-3)

    def test_lp_oracle_analytic_case(self):
        # two cells two rows: mass 1/2 moves one cell in each row
        r0 = np.array([[0.5, 0.0], [0.5, 0.0]])
        r1 = np.array([[0.0, 0.5], [0.0, 0.5]])
        assert emd_lp_objective(r0, r1, 1.0) == pytest.approx(1.0, rel=1e-5)


class TestTVLS:
    def test_zero_data_gives_zero_solution(self):
        R = random_sparse_system(16, 36, 0.2, 10)
        inst = tv_least_squares(R, np.zeros(16), 1.0, (6, 6), tau=0.05,
                                gamma=1.0, tol=5e-6)
        rep = inst.solve()
        assert rep.status == "converged"
        assert np.linalg.norm(rep.x_final) <= 1e-10

    def test_data_block_update_closed_form(self):
        # y1+ = (tau ||R||^2 y1 + R(2x+ - x) - b) / (1 + tau ||R||^2)
        rng = np.random.default_rng(11)
        R = random_sparse_system(10, 16, 0.4, 12)
        b = rng.standard_normal(10)
        inst = tv_least_squares(R, b, 0.7, (4, 4), tau=0.3, gamma=1.0)
        from prepdhg.solver import prepdhg_step
        x = rng.standard_normal(16)
        y = 0.1 * rng.standard_normal(10 + 32)
        x1, y1 = prepdhg_step(inst.saddle, inst.config, x, y)
        ts = 0.3 * inst.meta["normR_sq"]
        want = (ts * y[:10] + R.apply(2 * x1 - x) - b) / (1.0 + ts)
        assert np.allclose(y1[:10], want, atol=1e-12)

    def test_primal_step_is_plain_gradient(self):
        rng = np.random.default_rng(12)
        R = random_sparse_system(8, 16, 0.4, 13)
        b = rng.standard_normal(8)
        gamma, tau = 0.9, 0.2
        inst = tv_least_squares(R, b, 1.0, (4, 4), tau=tau, gamma=gamma)
        from prepdhg.solver import prepdhg_step
        x = rng.standard_normal(16)
        y = 0.05 * rng.standard_normal(8 + 32)
        x1, _ = prepdhg_step(inst.saddle, inst.config, x, y)
        want = x - tau / (2 * gamma) * inst.saddle.K.apply_adjoint(y)
        assert np.allclose(x1, want, atol=1e-13)

    def test_gamma_validated(self):
        R = random_sparse_system(8, 16, 0.4, 14)
        with pytest.raises(ConfigurationError):
            tv_least_squares(R, np.zeros(8), 1.0, (4, 4), tau=0.1, gamma=0.74)

    @pytest.mark.parametrize("bad", ["lam", "tau", "theta", "gamma"])
    def test_nan_weights_refused(self, bad):
        # NaN passed the old "<= 0" bounds; lam then failed in the box prox
        R = random_sparse_system(8, 16, 0.4, 14)
        kw = dict(lam=1.0, tau=0.1, theta=1e-3, gamma=1.0)
        kw[bad] = np.nan
        with pytest.raises(ConfigurationError, match=f"{bad} = nan"):
            tv_least_squares(R, np.zeros(8), grid=(4, 4), **kw)

    def test_exact_residual_consistent_with_stop(self):
        rng = np.random.default_rng(15)
        R = random_sparse_system(32, 64, 0.1, 16)
        b = R.apply(rng.random(64))
        inst = tv_least_squares(R, b, 1.0, (8, 8), tau=0.05, gamma=0.75,
                                tol=1e-5, record_every=100)
        rep = inst.solve()
        assert rep.status == "converged"
        res_fn = inst.meta["kkt_residual"]
        K = inst.saddle.K
        final = res_fn(rep.x_final, rep.y_final, K.apply(rep.x_final),
                       K.apply_adjoint(rep.y_final))
        assert final <= 2.0 * rep.stop_residual

    def test_stop_residual_is_kkt_residual_of_final_iterates(self):
        # the loop hands the residual its own products K x and K^T y
        rng = np.random.default_rng(15)
        R = random_sparse_system(32, 64, 0.1, 16)
        b = R.apply(rng.random(64))
        inst = tv_least_squares(R, b, 1.0, (8, 8), tau=0.05, gamma=0.75,
                                tol=1e-5, record_every=100)
        rep = inst.solve()
        x, y, K = rep.x_final, rep.y_final, inst.saddle.K
        res = inst.meta["kkt_residual"](x, y, K.apply(x), K.apply_adjoint(y))
        assert rep.stop_residual == res

    def test_recommended_config_passes_condition_grid(self):
        R = random_sparse_system(16, 36, 0.2, 21)
        b = np.zeros(16)
        for tau in np.logspace(-2, 0, 10):
            for gamma in (0.75, 1.0):
                inst = tv_least_squares(R, b, 1.0, (6, 6), float(tau), gamma)
                rep = check_condition(inst.config.M1, inst.saddle.f.sigma,
                                      inst.config.M2, inst.saddle.K)
                assert rep.passed, (tau, gamma, rep.s_hat)

    def test_tight_gamma_never_slower_small_grid(self):
        rng = np.random.default_rng(17)
        R = random_sparse_system(32, 64, 0.1, 18)
        b = R.apply(rng.random(64))
        for tau in np.logspace(-2, -0.5, 4):
            its = {}
            for gamma in (1.0, 0.75):
                inst = tv_least_squares(R, b, 1.0, (8, 8), tau=float(tau),
                                        gamma=gamma, tol=1e-5,
                                        record_every=1000)
                rep = inst.solve()
                assert rep.status == "converged"
                its[gamma] = rep.iters
            assert its[0.75] <= its[1.0]

    def test_grid_past_the_dense_factorization_size(self):
        # the gradient's Gram shift has dimension 2 * 48 * 48 = 4608
        rng = np.random.default_rng(19)
        R = random_sparse_system(200, 48 * 48, 0.01, 20)
        b = R.apply(rng.random(48 * 48))
        inst = tv_least_squares(R, b, 1.0, (48, 48), tau=0.01, gamma=0.75,
                                max_iter=3)
        rep = inst.solve()
        assert rep.condition.passed
        assert rep.status == "max-iter" and rep.iters == 3
        assert np.all(np.isfinite(rep.x_final))


_R0, _R1 = random_balanced_grids(4, 4, 8)
_R = random_sparse_system(8, 16, 0.3, 0)
_K = GridDivergence(4, 4, 1.0)
_BUILDERS = {
    # name: (builder, the valid value of each numeric parameter, override?)
    "game": (lambda **kw: matrix_game(np.eye(3), **kw),
             dict(tau_tilde=1.0, gamma=1.0), False),
    "birkhoff-ebalm": (lambda **kw: birkhoff_projection(
        np.eye(3), method="ebalm", **kw),
        dict(tau=1.0, theta=1e-4, gamma=1.0), True),
    "birkhoff-pdhg": (lambda **kw: birkhoff_projection(
        np.eye(3), method="pdhg", **kw),
        dict(tau=1.0, theta=1e-4, gamma=1.0), True),
    "emd-sgs": (lambda **kw: emd(_R0, _R1, method="sgs", **kw),
                dict(h=1.0, tau=0.5, theta=1e-6, gamma=1.0), True),
    "emd-iebalm": (lambda **kw: emd(_R0, _R1, method="iebalm", **kw),
                   dict(h=1.0, tau=0.5, theta=1e-6, gamma=1.0), True),
    "tvls": (lambda **kw: tv_least_squares(_R, np.ones(8), grid=(4, 4), **kw),
             dict(lam=1.0, tau=0.01, theta=1e-3, gamma=0.75), True),
    "ebalm": (lambda **kw: configure_ebalm(
        Zero(_K.cols), _K, np.zeros(16), **kw),
        dict(tau=0.5, theta=1e-3, gamma=1.0), True),
    "ebalm-sgs": (lambda **kw: configure_ebalm_sgs(
        Zero(_K.cols), _K, np.zeros(16), partition=red_black_partition(4, 4),
        **kw),
        dict(tau=0.5, theta=1e-3, gamma=1.0), True),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_a_bad_number_builds_or_is_a_configuration_error(name):
    # exceptions.py's promise: a builder refuses each bad value at set-up by
    # ConfigurationError (infinite gamma or a zero tau reached a division),
    # and the refusal names the parameter: an infinite tau or tau_tilde, or
    # a zero or NaN gamma under override, read a metric's or the kernel's
    # general message
    build, valid, has_override = _BUILDERS[name]
    build(**valid)  # the valid values build, so a refusal is the bad value's
    others, unnamed = [], []
    for param in valid:
        for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
            for override in (False, True) if has_override else (False,):
                kw = dict(valid, **{param: bad})
                if has_override:
                    kw["override"] = override
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        build(**kw)
                except ConfigurationError as e:
                    if not re.search(rf"\b{param}\b", str(e)):
                        unnamed.append(f"{param}={bad} override={override}: "
                                       f"{e}")
                except Exception as e:  # noqa: BLE001, the promise's breach
                    others.append(f"{param}={bad} override={override}: {e!r}")
    assert not others
    assert not unnamed


def test_load_grid_roundtrip(tmp_path):
    rng = np.random.default_rng(19)
    G = rng.random((3, 4))
    p_txt = tmp_path / "g.txt"
    np.savetxt(p_txt, G)
    assert np.allclose(load_grid(p_txt), G)
    p_npy = tmp_path / "g.npy"
    np.save(p_npy, G)
    assert np.allclose(load_grid(p_npy), G)
