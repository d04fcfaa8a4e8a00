"""The output checks pass known answers and reject perturbed ones."""

import numpy as np
import pytest
import scipy.sparse as sp

from perfbench import checks


class TestGame:
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    half = np.array([0.5, 0.5])

    def test_value_of_matching_pennies(self):
        assert checks.game_value(self.K) == pytest.approx(0.0, abs=1e-12)

    def test_known_answer_passes(self):
        assert checks.check_game(self.K, self.half, self.half, 0.0, 1e-9) == []

    @pytest.mark.parametrize("x, y, what", [
        ([0.6, 0.4], [0.5, 0.5], "duality gap"),
        ([0.5, 0.5], [0.3, 0.7], "duality gap"),
        ([0.5, 0.6], [0.5, 0.5], "x off the simplex"),
        ([0.5, 0.5], [-0.1, 1.1], "y off the simplex"),
    ])
    def test_perturbed_answer_rejected(self, x, y, what):
        fails = checks.check_game(self.K, np.array(x), np.array(y), 0.0, 1e-3)
        assert any(what in f for f in fails)

    def test_wrong_value_rejected(self):
        fails = checks.check_game(self.K, self.half, self.half, 0.5, 1e-3)
        assert any("below the game value" in f for f in fails)


class TestFlux:
    # 1x2 grid, h = 1: unit mass moves one step right, objective 1
    rho0 = np.array([[1.0, 0.0]])
    rho1 = np.array([[0.0, 1.0]])
    flux = np.array([0.0, 0.0, 1.0, 0.0])  # m1 (all structural zeros), m2

    def test_divergence_stencil(self):
        assert np.array_equal(checks.divergence(self.flux, 1, 2, 1.0),
                              (self.rho0 - self.rho1).ravel())

    def test_known_answer_passes(self):
        lower = checks.flux_lower_bound(self.rho0, self.rho1, 1.0, 64)
        assert lower == pytest.approx(1.0, abs=1e-9)
        assert checks.flux_objective(self.flux, 1, 2) == 1.0
        assert checks.check_flux(self.rho0, self.rho1, 1.0, self.flux, lower,
                                 64, 1e-12, 1e-9) == []

    @pytest.mark.parametrize("flux, what", [
        ([0.0, 0.0, 1.1, 0.0], "feasibility"),
        ([0.0, 0.0, 1.1, 0.0], "objective"),
        ([0.2, 0.0, 1.0, 0.0], "structural-zero"),
    ])
    def test_perturbed_answer_rejected(self, flux, what):
        fails = checks.check_flux(self.rho0, self.rho1, 1.0, np.array(flux),
                                  1.0, 64, 1e-4, 1e-3)
        assert any(what in f for f in fails)

    def test_feasible_detour_rejected(self):
        # 2x2 grid, corner to corner: one L-shaped route costs 2, while
        # splitting over both routes costs 1 + sqrt(1/2)
        rho0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        rho1 = np.array([[0.0, 0.0], [0.0, 1.0]])
        m1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        m2 = np.array([[1.0, 0.0], [0.0, 0.0]])
        route = np.concatenate([m1.ravel(), m2.ravel()])
        lower = checks.flux_lower_bound(rho0, rho1, 1.0, 64)
        assert lower == pytest.approx(1.0 + np.sqrt(0.5), rel=2e-3)
        fails = checks.check_flux(rho0, rho1, 1.0, route, lower, 64, 1e-9, 1e-3)
        assert fails and all("objective" in f for f in fails)


class TestTvls:
    def test_flat_answer_passes(self):
        # lam large: the minimizer is the mean image, D x = 0
        b = np.array([1.0, 2.0, 3.0, 4.0])
        x = np.full(4, b.mean())
        D = checks.forward_difference(2, 2)
        y2 = np.linalg.lstsq(D.T.toarray(), b - x, rcond=None)[0]
        assert checks.check_tvls(sp.identity(4), b, 10.0, (2, 2), x, y2, 1e-9) == []
        fails = checks.check_tvls(sp.identity(4), b, 10.0, (2, 2),
                                  x + [0.1, 0, 0, 0], y2, 1e-6)
        assert any("stationarity" in f for f in fails)

    # 1x2 grid, R = I, b = (0, 3), lam = 1: each pixel moves lam toward
    # the other, x = (1, 2), and the horizontal dual sits at lam*sign(-1)
    b = np.array([0.0, 3.0])
    x = np.array([1.0, 2.0])
    y2 = np.array([0.0, 0.0, -1.0, 0.0])

    def test_known_answer_passes(self):
        assert checks.check_tvls(sp.identity(2), self.b, 1.0, (1, 2), self.x,
                                 self.y2, 1e-12) == []

    @pytest.mark.parametrize("x, y2, what", [
        ([1.0, 2.0], [0.0, 0.0, 1.0, 0.0], "stationarity"),
        ([1.0, 2.0], [0.0, 0.0, -1.5, 0.0], "exceeds lam"),
        # stationary, inside the box, but off lam*sign(Dx) where Dx = -2
        ([0.5, 2.5], [0.0, 0.0, -0.5, 0.0], "sign"),
    ])
    def test_perturbed_answer_rejected(self, x, y2, what):
        fails = checks.check_tvls(sp.identity(2), self.b, 1.0, (1, 2),
                                  np.array(x), np.array(y2), 1e-6)
        assert any(what in f for f in fails)
