import numpy as np
import pytest

from prepdhg.counterexamples import ToyDynamics
from prepdhg.ipadmm import AdmmDriver, AdmmState, equivalence_harness
from prepdhg.metrics import (DenseMetric, DiagonalMetric, ScalarMetric,
                             dense_sqrt)
from prepdhg.operators import BirkhoffConstraint, DenseOperator
from prepdhg.prox import (L1Norm, Linear, QuadraticShift,
                          QuadraticShiftNonneg, Zero)
from prepdhg.solver import SaddleProblem


def small_problem(seed=0, m=5, n=4):
    rng = np.random.default_rng(seed)
    K = DenseOperator(0.4 * rng.standard_normal((m, n)))
    p = SaddleProblem(f=L1Norm(n, 0.3), gstar=Linear(rng.standard_normal(m)),
                      K=K)
    M1 = DiagonalMetric(rng.random(n) + 1.0)
    A = rng.standard_normal((m, m))
    M2 = DenseMetric(A @ A.T + m * np.eye(m))
    return p, M1, M2, rng


class TestStep:
    def test_linear_gstar_keeps_u_at_b(self):
        # g = indicator of {b} (conjugate is linear): the splitting variable
        # is pinned to b at every iteration
        p, M1, M2, rng = small_problem(1)
        drv = AdmmDriver(p, M1, M2)
        st = drv.initial_state(x0=rng.standard_normal(4),
                               lam0=rng.standard_normal(5))
        b = p.gstar.b
        for _ in range(5):
            st = drv.step(st)
            assert np.allclose(st.u, b, atol=1e-12)

    def test_stationary_at_kkt_point(self):
        # build a problem whose solution is known: f quadratic, g singleton
        rng = np.random.default_rng(2)
        m, n = 3, 3
        A = rng.standard_normal((n, n))
        K = DenseOperator(A + n * np.eye(n))  # invertible
        c = rng.standard_normal(n)
        b = rng.standard_normal(n)
        # min 0.5||x-c||^2 s.t. Kx = b: x* solves the KKT system
        x_star = np.linalg.solve(K.A, b)
        y_star = np.linalg.solve(K.A.T, c - x_star)
        p = SaddleProblem(f=QuadraticShift(c), gstar=Linear(b), K=K)
        M2 = DenseMetric(np.eye(n) * 2.0)
        M1 = DiagonalMetric(np.full(n, 3.0))
        S, Sinv = dense_sqrt(M2)
        # transform the saddle point into splitting coordinates
        lam_star = Sinv @ (M2.apply(y_star))
        st = AdmmState(u=b.copy(), x=x_star.copy(), lam=lam_star.copy())
        nxt = AdmmDriver(p, M1, M2).step(st)
        assert np.allclose(nxt.x, st.x, atol=1e-12)
        assert np.allclose(nxt.u, st.u, atol=1e-12)
        assert np.allclose(nxt.lam, st.lam, atol=1e-12)

    def test_residual_decreases_on_random_problem(self):
        p, M1, M2, rng = small_problem(3, m=6, n=4)
        drv = AdmmDriver(p, M1, M2)
        st = drv.initial_state(x0=rng.standard_normal(4))
        _, Sinv = dense_sqrt(M2)
        res = []
        for k in range(100):
            st = drv.step(st)
            res.append(np.linalg.norm(Sinv @ (p.K.apply(st.x) - st.u)))
        assert res[-1] <= 0.2 * res[0]
        assert np.mean(res[-10:]) < np.mean(res[:10])


class TestTransform:
    def test_singleton_case_formula(self):
        p, M1, M2, rng = small_problem(4)
        drv = AdmmDriver(p, M1, M2)
        states = drv.run(3, x0=rng.standard_normal(4))
        pairs = drv.recover(states)
        S, _ = dense_sqrt(M2)
        b = p.gstar.b
        for k, (x, y) in enumerate(pairs):
            st = states[k]
            want = M2.solve(S @ st.lam + p.K.apply(st.x) - b)
            assert np.allclose(y, want, atol=1e-12)

    def test_zero_start_gives_zero_dual(self):
        # lam0 = 0, x0 = 0 and u1 = 0 force y0 = 0
        K = DenseOperator(np.eye(3))
        p = SaddleProblem(f=Zero(3), gstar=Linear(np.zeros(3)), K=K)
        M2 = DenseMetric(2.0 * np.eye(3))
        drv = AdmmDriver(p, DiagonalMetric(np.ones(3)), M2)
        states = drv.run(1)
        assert np.allclose(states[1].u, 0.0)
        pairs = drv.recover(states)
        assert np.allclose(pairs[0][1], 0.0)

    def test_roundtrip_recovers_admm_state(self):
        # forward transform then the reverse formulas give back (u, lam)
        p, M1, M2, rng = small_problem(5, m=6, n=5)
        drv = AdmmDriver(p, M1, M2)
        states = drv.run(20, x0=rng.standard_normal(5),
                         lam0=rng.standard_normal(6))
        pairs = drv.recover(states)
        S, Sinv = dense_sqrt(M2)
        for k in range(1, len(pairs)):
            x_prev, y_prev = pairs[k - 1]
            x_cur, _ = pairs[k]
            lam = Sinv @ p.K.apply(x_cur - x_prev) + S @ y_prev
            u = S @ states[k - 1].lam + p.K.apply(x_prev) - M2.apply(y_prev)
            assert np.allclose(lam, states[k].lam, atol=1e-12)
            assert np.allclose(u, states[k].u, atol=1e-12)


def test_classical_admm_reduction():
    """With M1 = K^T M2^{-1} K the proximal term vanishes: the x-update is
    the plain augmented-Lagrangian minimization, solved densely here."""
    rng = np.random.default_rng(6)
    m = n = 4
    K = DenseOperator(rng.standard_normal((m, n)) + 2 * np.eye(n))
    c = rng.standard_normal(n)
    p = SaddleProblem(f=QuadraticShift(c), gstar=Linear(rng.standard_normal(m)),
                      K=K)
    A2 = rng.standard_normal((m, m))
    M2 = DenseMetric(A2 @ A2.T + m * np.eye(m))
    M1 = DenseMetric(K.A.T @ np.linalg.solve(M2.A, K.A))
    drv = AdmmDriver(p, M1, M2)
    st = drv.initial_state(x0=rng.standard_normal(n),
                           lam0=rng.standard_normal(m))
    S, _ = dense_sqrt(M2)
    nxt = drv.step(st)
    # oracle: argmin 0.5||x-c||^2 + <lam, M2^{-1/2}Kx> + 0.5||Kx-u||^2_{M2^{-1}}
    M2inv = np.linalg.inv(M2.A)
    H = np.eye(n) + K.A.T @ M2inv @ K.A
    rhs = c - K.A.T @ np.linalg.solve(S, st.lam) + K.A.T @ M2inv @ nxt.u
    x_want = np.linalg.solve(H, rhs)
    assert np.allclose(nxt.x, x_want, atol=1e-10)


class TestEquivalenceHarness:
    def test_bilinear_toy(self):
        dyn = ToyDynamics("bilinear", 0.5, 0.5)
        p, cfg = dyn.saddle_problem()
        res = equivalence_harness(p, cfg.M1, cfg.M2, iters=100, tol=1e-10,
                                  x0=[0.7], lam0=[0.3])
        assert res.passed
        assert res.max_deviation <= 1e-10

    def test_random_dense_l1_linear(self):
        p, M1, M2, rng = small_problem(7, m=10, n=8)
        res = equivalence_harness(p, M1, M2, iters=100, tol=1e-10,
                                  x0=rng.standard_normal(8),
                                  lam0=rng.standard_normal(10))
        assert res.passed

    def test_birkhoff_instance(self):
        n = 4
        K = BirkhoffConstraint(n)
        rng = np.random.default_rng(8)
        C = rng.random((n, n))
        p = SaddleProblem(f=QuadraticShiftNonneg(C.ravel()),
                          gstar=Linear(np.ones(2 * n)), K=K)
        M1 = ScalarMetric(1.0 / 0.7, n * n)
        # diagonal entries large enough that the pair satisfies the
        # convergence condition, keeping the compared trajectories bounded
        M2 = DiagonalMetric(8.0 + 2.0 * rng.random(2 * n))
        res = equivalence_harness(p, M1, M2, iters=100, tol=1e-10,
                                  x0=np.full(n * n, 1.0 / n))
        assert res.passed

    def test_perturbed_transform_fails(self):
        p, M1, M2, rng = small_problem(9)
        res = equivalence_harness(p, M1, M2, iters=50, tol=1e-10,
                                  transform_perturbation=1e-6)
        assert not res.passed
        assert res.max_deviation > 1e-10
