"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The speedup comparisons (criterion 8) sweep the full seeded
parameter grids and are the only long-running part.
"""

import os
import time

import numpy as np
import pytest
import scipy.linalg as sla

import prepdhg as pd
from prepdhg.cli import build_parser, main, sweep_cells
from prepdhg.counterexamples import ToyDynamics, classify, eig2, \
    rho2_boundary_scan
from prepdhg.ipadmm import equivalence_harness
from prepdhg.metrics import DiagonalMetric, ScalarMetric, \
    build_diag_preconditioner, check_condition
from prepdhg.operators import BirkhoffConstraint, DenseOperator
from prepdhg.prox import (IndicatorNonneg, L1Norm, Linear, QuadraticShift,
                          QuadraticShiftNonneg)
from prepdhg.solver import (SaddleProblem, prepdhg_step, solve,
                            sublinear_diagnostic)
from prepdhg.solver import SolverConfig, configure_ebalm_sgs
from helpers import random_partition, sgs_dense_oracle

WORKERS = min(os.cpu_count() or 1, 4)


def report(num, detail):
    print(f"\nACCEPTANCE {num}: PASS - {detail}")


def test_criterion_01_tightness_boundary_eigenvalues():
    t0 = time.perf_counter()
    mu1, mu2 = eig2(ToyDynamics("bilinear", 2.0, 2.0 / 3.0).G)
    assert abs(mu1 - (-1.0)) <= 1e-12
    assert abs(mu2 - (1.0 / 3.0)) <= 1e-12
    report(1, f"eigenvalues ({mu1.real:+.15f}, {mu2.real:+.15f}) "
              f"[{time.perf_counter() - t0:.3f}s]")


def test_criterion_02_divergence_convergence_dichotomy():
    t0 = time.perf_counter()
    x0 = np.array([1.0, 0.0])

    def dyn(product):
        tau = 1.2
        return ToyDynamics("bilinear", tau, product / tau)

    res_in = classify(dyn(1.32), x0, max_iter=100000)
    assert res_in.verdict == "converges-to-zero"
    assert res_in.final_norm <= 1e-8 and res_in.iterations <= 100000

    res_on = classify(dyn(4.0 / 3.0), x0, max_iter=100000)
    assert res_on.verdict == "oscillates"
    assert 0.1 <= res_on.final_norm <= 10.0

    res_out = classify(dyn(1.34), x0, max_iter=100000)
    assert res_out.verdict == "diverges"
    assert res_out.final_norm > 1e12

    table = rho2_boundary_scan(1.0, [0.3, 0.4, 0.49, 0.5, 0.51, 0.6, 0.7])
    at_half = table[np.isclose(table[:, 0], 0.5), 2][0]
    assert abs(at_half - 1.0) <= 1e-10
    assert np.all(table[table[:, 0] < 0.5, 2] <= 1.0 + 1e-12)
    assert np.all(table[table[:, 0] > 0.5, 2] > 1.0)
    report(2, f"in/on/out verdicts {res_in.verdict}/{res_on.verdict}/"
              f"{res_out.verdict}; |mu|(rho3=1/2) = {at_half:.12f} "
              f"[{time.perf_counter() - t0:.2f}s]")


def test_criterion_03_equivalence_certificates():
    t0 = time.perf_counter()
    dyn = ToyDynamics("bilinear", 0.5, 0.5)
    p, cfg = dyn.saddle_problem()
    res_a = equivalence_harness(p, cfg.M1, cfg.M2, iters=100, tol=1e-10,
                                x0=[0.7], lam0=[0.3])
    assert res_a.passed

    rng = np.random.default_rng(2024)
    K = DenseOperator(0.4 * rng.standard_normal((10, 8)))
    pb = SaddleProblem(f=L1Norm(8, 0.3), gstar=Linear(rng.standard_normal(10)),
                       K=K)
    # metrics sized so the pair satisfies the convergence condition and the
    # compared trajectories stay bounded over the horizon
    M1 = DiagonalMetric(3.0 + rng.random(8))
    M2 = DiagonalMetric(3.0 + rng.random(10))
    assert check_condition(M1, None, M2, K).passed
    res_b = equivalence_harness(pb, M1, M2, iters=100, tol=1e-10,
                                x0=rng.standard_normal(8),
                                lam0=rng.standard_normal(10))
    assert res_b.passed

    n = 4
    Kb = BirkhoffConstraint(n)
    C = rng.random((n, n))
    pc = SaddleProblem(f=QuadraticShiftNonneg(C.ravel()),
                       gstar=Linear(np.ones(2 * n)), K=Kb)
    res_c = equivalence_harness(pc, ScalarMetric(1.0 / 0.7, n * n),
                                DiagonalMetric(8.0 + 2.0 * rng.random(2 * n)),
                                iters=100, tol=1e-10,
                                x0=np.full(n * n, 1.0 / n))
    assert res_c.passed
    report(3, "max deviations "
              f"{res_a.max_deviation:.2e}/{res_b.max_deviation:.2e}/"
              f"{res_c.max_deviation:.2e} over 100 iterations "
              f"[{time.perf_counter() - t0:.2f}s]")


def test_criterion_04_moreau_identity_suite():
    t0 = time.perf_counter()
    n = 7
    c = np.linspace(-1.0, 1.0, n)
    cases = [
        ("l1", L1Norm(n, 0.7), lambda v, d: np.clip(v, -0.7, 0.7)),
        ("nonneg", IndicatorNonneg(n), lambda v, d: np.minimum(v, 0.0)),
        ("quadratic", QuadraticShift(c),
         lambda v, d: ((1.0 / d) * v - c) / (1.0 / d + 1.0)),
    ]
    rng = np.random.default_rng(99)
    worst = 0.0
    for name, f, conj_prox in cases:
        for _ in range(1000):
            x = 3.0 * rng.standard_normal(n)
            d = rng.random(n) + 0.05
            resid = np.linalg.norm(x - f.prox(x, d)
                                   - conj_prox(d * x, d) / d)
            bound = 1e-10 * (1.0 + np.linalg.norm(x))
            assert resid <= bound, name
            worst = max(worst, resid / bound)
    report(4, f"3000 identity checks, worst residual at {worst:.2e} of the "
              f"allowance [{time.perf_counter() - t0:.2f}s]")


def test_criterion_05_condition_checker_vs_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(512)
    worst = 0.0
    for trial in range(50):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        K = DenseOperator(rng.standard_normal((m, n)))
        d1 = rng.random(n) + 0.3
        d2 = rng.random(m) + 0.3
        sig = rng.random(n) * (trial % 2)
        rep = check_condition(DiagonalMetric(d1), sig, DiagonalMetric(d2), K,
                              tol=1e-14, max_iter=50000)
        A = np.diag(d1 + sig / 2.0)
        C = K.A.T @ np.diag(1.0 / d2) @ K.A
        want = sla.eigh(C, A, eigvals_only=True)[-1]
        rel = abs(rep.s_hat - want) / want
        assert rel <= 1e-8
        worst = max(worst, rel)
    K = DenseOperator(rng.random((9, 8)))  # nonnegative: bound is attained
    verdicts = {}
    for g1g2 in (0.76, 0.74):
        g = np.sqrt(g1g2)
        M1, M2 = build_diag_preconditioner(K, 1.0, 0.0, g, g)
        verdicts[g1g2] = check_condition(M1, None, M2, K)
    assert verdicts[0.76].passed
    assert verdicts[0.74].verdict == "fail"
    report(5, f"50 oracle matches (worst rel err {worst:.2e}); "
              f"0.76 -> {verdicts[0.76].verdict}, 0.74 -> fail "
              f"[{time.perf_counter() - t0:.2f}s]")


def test_criterion_06_sgs_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(640)
    worst = 0.0
    for trial in range(20):
        nblocks = int(rng.integers(2, 5))
        dim_n = int(rng.integers(2 * nblocks, 13))
        dim_m = int(rng.integers(nblocks + 1, 13))
        assert dim_m + dim_n <= 48
        K = DenseOperator(rng.standard_normal((dim_m, dim_n)))
        b = rng.standard_normal(dim_m)
        blocks = random_partition(rng, dim_m, nblocks)
        tau, theta, gamma = 0.5 + rng.random(), 10.0 ** -rng.integers(1, 4), \
            0.75 + 0.5 * rng.random()
        prob, cfg = configure_ebalm_sgs(L1Norm(dim_n, 1.0), K, b, tau, theta,
                                        gamma, blocks)
        x = rng.standard_normal(dim_n)
        y = rng.standard_normal(dim_m)
        x1, y1 = prepdhg_step(prob, cfg, x, y)
        Q = gamma * tau * (K.A @ K.A.T) + theta * np.eye(dim_m)
        dense = sgs_dense_oracle(Q, blocks)
        rhs = K.apply(2 * x1 - x) - b
        dev = np.max(np.abs((y1 - y) - np.linalg.solve(dense, rhs)))
        assert dev <= 1e-10
        worst = max(worst, dev)
    report(6, f"20 sweep-vs-exact-solve identities, worst deviation "
              f"{worst:.2e} [{time.perf_counter() - t0:.2f}s]")


def test_criterion_07_oracle_equivalence_small_instances():
    t0 = time.perf_counter()
    # doubly-stochastic projection, n = 2 closed case
    C2 = np.array([[1.0, 0.0], [0.0, 0.0]])
    inst = pd.birkhoff_projection(C2, tau=1.0, gamma=1.0, tol=1e-10)
    rep = inst.solve()
    want = np.array([[0.75, 0.25], [0.25, 0.75]])
    assert rep.status == "converged"
    assert np.max(np.abs(rep.x_final.reshape(2, 2) - want)) <= 1e-6

    rng = np.random.default_rng(7)
    bk_dev = 0.0
    for n in (3, 5, 8):
        C = rng.random((n, n))
        C = 0.5 * (C + C.T)
        inst = pd.birkhoff_projection(C, tau=10 ** 0.4 / np.sqrt(2 * n),
                                      gamma=1.0, tol=1e-10)
        repn = inst.solve()
        assert repn.status == "converged"
        Xo = pd.project_birkhoff_dykstra(C)
        bk_dev = max(bk_dev, float(np.max(np.abs(
            repn.x_final.reshape(n, n) - Xo))))
        assert bk_dev <= 1e-6

    # minimal-flux objective vs the LP oracle on tiny grids
    emd_dev = 0.0
    cases = [((1, 2), 10, 2.0, 5e-6), ((3, 3), 11, 0.8, 1e-7),
             ((4, 4), 12, 0.5, 1e-7)]
    for (M, N), seed, tau, tol in cases:
        if (M, N) == (1, 2):
            r0 = np.array([[1.0, 0.0]])
            r1 = np.array([[0.0, 1.0]])
        else:
            r0, r1 = pd.random_balanced_grids(M, N, seed)
        h = 1.0 if M == 1 else (N - 1) / 4.0
        inst = pd.emd(r0, r1, h, tau=tau, gamma=0.8, tol=tol,
                      max_iter=400000, record_every=1000)
        repe = inst.solve()
        assert repe.status == "converged"
        lp = pd.oracle_solve(inst).objective
        dev = abs(inst.objective(repe.x_final) - lp)
        assert dev <= 1e-4
        emd_dev = max(emd_dev, dev)

    # symmetric matrix game equilibrium
    gi = pd.matrix_game(np.array([[1.0, -1.0], [-1.0, 1.0]]), 1.0, 1.0,
                        tol=1e-9)
    repg = gi.solve()
    assert repg.status == "converged"
    gap = pd.duality_gap_matrix_game(gi.saddle.K, repg.x_final, repg.y_final)
    assert gap <= 1e-6
    x_star, y_star, v = pd.matrix_game_equilibrium([[1.0, -1.0], [-1.0, 1.0]])
    assert np.max(np.abs(repg.x_final - x_star)) <= 1e-6
    assert abs(v) <= 1e-12
    report(7, f"projection dev {bk_dev:.2e} (<=1e-6), flux-vs-LP dev "
              f"{emd_dev:.2e} (<=1e-4), game gap {gap:.2e} (<=1e-6) "
              f"[{time.perf_counter() - t0:.1f}s]")


def _sweep_game(seeds, gammas, tau_exps, tol=1e-5):
    # each seed's cells as WORKERS row-block solves, on a pool of WORKERS
    args = build_parser().parse_args(
        ["game", "--test", "1", "--m", "100", "--n", "100", "--centered",
         "--seeds", str(seeds), "--tol", repr(tol), "--max-iter", str(10 ** 6),
         "--record-every", str(10 ** 9), "--workers", str(WORKERS)])
    cells = [(g, float(10.0 ** e)) for g in gammas for e in tau_exps]
    return sweep_cells(args, cells)


def _best_tau_mean_iters(results, gamma):
    sel = [r for r in results if r.gamma == gamma]
    taus = sorted({r.tau for r in sel})
    means = {t: np.mean([r.iters for r in sel if r.tau == t]) for t in taus}
    best = min(means, key=lambda t: (means[t], t))
    return best, means[best]


_GAME_RESULTS = {}


def test_criterion_08a_matrix_game_speedup():
    t0 = time.perf_counter()
    tau_exps = np.arange(-0.7, -0.3 + 0.005, 0.01)
    results = _sweep_game(5, [1.0, 0.751], tau_exps)
    assert all(r.status == "converged" for r in results)
    tb1, it1 = _best_tau_mean_iters(results, 1.0)
    tbt, itt = _best_tau_mean_iters(results, 0.751)
    saved = (it1 - itt) / it1 * 100.0
    elapsed = time.perf_counter() - t0
    assert saved >= 10.0, f"saved only {saved:.1f}%"
    assert elapsed < 300.0
    _GAME_RESULTS["best_tau_tight"] = tbt
    report("8a", f"game 100x100, 5 seeds, 41-point grid: best-tau iters "
                 f"{it1:.0f} (gamma=1) vs {itt:.0f} (gamma=0.751), saved "
                 f"{saved:.1f}% (>=10%) [{elapsed:.0f}s]")


def test_criterion_08b_birkhoff_speedup():
    t0 = time.perf_counter()
    iters = {"pdhg": {}, "ebalm": {}}
    for seed in range(3):
        rng = np.random.default_rng(seed)
        C = rng.random((50, 50))
        C = 0.5 * (C + C.T)
        for e in np.arange(0.2, 0.6 + 0.005, 0.01):
            tau = float(10.0 ** e) / np.sqrt(100.0)
            for method, gamma in (("pdhg", 1.0),
                                  ("ebalm", 0.75 / (1 + tau / 2))):
                inst = pd.birkhoff_projection(C, tau=tau, gamma=gamma,
                                              theta=1e-4, method=method,
                                              tol=1e-8, record_every=10 ** 9)
                rep = inst.solve()
                assert rep.status == "converged"
                iters[method].setdefault(round(e, 3), []).append(rep.iters)
    best = {m: min(np.mean(v) for v in iters[m].values()) for m in iters}
    saved = (best["pdhg"] - best["ebalm"]) / best["pdhg"] * 100.0
    elapsed = time.perf_counter() - t0
    assert saved >= 15.0, f"saved only {saved:.1f}%"
    report("8b", f"projection n=50: best-tau iters {best['pdhg']:.0f} (scalar "
                 f"gamma=1) vs {best['ebalm']:.0f} (Gram metric, tight gamma), "
                 f"saved {saved:.1f}% (>=15%) [{elapsed:.0f}s]")


def test_criterion_08c_tvls_dominance_on_shared_grid():
    t0 = time.perf_counter()
    R = pd.random_sparse_system(128, 256, 0.05, 0)
    rng = np.random.default_rng(7919)
    b = R.apply(rng.random(256))
    rows = []
    for tau in np.logspace(-2.0, -0.5, 5):
        its = {}
        for gamma in (1.0, 0.75):
            inst = pd.tv_least_squares(R, b, 1.0, (16, 16), tau=float(tau),
                                       gamma=gamma, theta=1e-3, tol=5e-6,
                                       max_iter=200000, record_every=10 ** 9)
            rep = inst.solve()
            assert rep.status == "converged"
            its[gamma] = rep.iters
        assert its[0.75] <= its[1.0], f"tau={tau}: {its}"
        rows.append((tau, its[1.0], its[0.75]))
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"tau={t:.3g}: {a}->{b}" for t, a, b in rows)
    report("8c", f"TV-LS 16x16, gamma=3/4 never slower ({detail}) "
                 f"[{elapsed:.0f}s]")


def test_criterion_09_sublinear_diagnostic_on_game_run():
    t0 = time.perf_counter()
    tau_tilde = _GAME_RESULTS.get("best_tau_tight", 10 ** -0.5)
    K = pd.game_matrix(1, 0, centered=True)
    inst = pd.matrix_game(K, tau_tilde, 0.751, tol=1e-5, record_every=1)
    rep = inst.solve()
    assert rep.status == "converged"
    diag = sublinear_diagnostic(rep.history)
    assert not diag.flagged
    scaled = diag.table[:, 1]
    quarter = scaled[len(scaled) // 4]
    report(9, f"sqrt(t)*min-residual at T is {scaled[-1]:.3e} vs "
              f"{quarter:.3e} at T/4 (ratio {scaled[-1] / quarter:.2f} <= 1.2) "
              f"[{time.perf_counter() - t0:.0f}s]")


def test_criterion_10_determinism_byte_identical(tmp_path):
    t0 = time.perf_counter()
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = main(["game", "--test", "1", "--m", "12", "--n", "12",
                     "--centered", "--gamma", "1.0,0.8",
                     "--tau-exp=-0.6:0.1:-0.3", "--tol", "1e-5", "--seeds",
                     "3", "--workers", "2", "--record-every", "100",
                     "--out", str(out)])
        assert code == 0
        outs.append((out / "summary.csv").read_bytes())
    assert outs[0] == outs[1]
    for name in ("c1", "c2"):
        out = tmp_path / name
        assert main(["counterexample", "--kind", "bilinear", "--taus",
                     "1.2,4/3", "--out", str(out)]) == 0
        outs.append((out / "counterexample.csv").read_bytes())
    assert outs[2] == outs[3]
    report(10, f"summary CSVs byte-identical across reruns "
               f"[{time.perf_counter() - t0:.0f}s]")
