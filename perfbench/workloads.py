"""The benchmark's three workloads.

Each workload makes its inputs from the run seed, then runs identical rounds
until the run's time is spent.  A round is a fixed set of operations (sweep
cells or solves); every operation is checked with ``checks`` and counted as
failed when its status is not ``converged`` or its check fails.

Why these three: each puts most of its loop time in a different layer of
prepdhg (dense K products and ``project_simplex`` behind the CLI process
pool; the sGS dual metric solve; the coordinate-descent box update), so an
optimisation of one layer shows on one workload and is predicted to leave
the others unchanged.

Seeds.  A fresh random instance per seed moves the iteration count far more
than any bound a regression check could use: over twelve 16x16 random mass
grids the sGS solve took 9,921 to 28,666 iterations.  Iteration counts are
smooth in the stepsize, so each seed shifts the stepsize grid of a fixed
reference instance by a seeded fraction of a grid step instead.  The
reference instances are drawn by the benchmark from BASE_SEED with numpy;
prepdhg receives only the arrays and the stepsizes.
"""

import io
import os
import shutil
import statistics
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

import numpy as np
import scipy.sparse as sp

from prepdhg import cli, problems

from . import checks

BASE_SEED = 0


@dataclass
class Round:
    """Timings and counts of one round; ``fails`` maps each failed
    operation to what went wrong with it."""

    wall_s: float
    setup_s: float
    loop_s: float
    iters: int
    attempted: int
    fails: Dict[str, List[str]] = field(default_factory=dict)
    fingerprint: tuple = ()
    bytes_written: int = 0


def _jitter(seed, step):
    """Seeded shift of a log10 stepsize grid, within half a grid step."""
    return float(np.random.default_rng(seed).uniform(-0.5, 0.5)) * step


def _recording(tracer):
    return nullcontext() if tracer is None else tracer.recording()


def _build_and_solve(build, tracer=None):
    """Build an instance and solve it; return the report, the wall seconds
    and the set-up seconds (build plus the part of solve before its loop,
    whose time the last history row records)."""
    with _recording(tracer):
        t0 = perf_counter()
        inst = build()
        t1 = perf_counter()
        rep = inst.solve()
        t2 = perf_counter()
    return rep, t2 - t0, t2 - t0 - rep.history[-1].elapsed_s


# -- game-sweep --------------------------------------------------------------

@dataclass(frozen=True)
class GameSweep:
    """``prepdhg game`` sweep of one centered uniform game through cli.main.

    Recipe 1 of ``game_matrix`` draws K from numpy's default_rng(cli_seed);
    the CLI offers no way to pass K in, so the benchmark draws the same
    matrix itself for its checks, and a check cell whose iteration count
    differs from the sweep's shows that the two matrices differ.
    """

    name = "game-sweep"
    m: int = 100
    n: int = 100
    gammas: tuple = (1.0, 0.751)
    tau_center: float = -0.45  # log10; between the best tau of each gamma
    tau_step: float = 0.03
    ntau: int = 11
    tol: float = 1e-5
    record_every: int = 100
    cli_seed: int = 0
    workers: int = 2
    gap_bound: float = 1e-4

    def make_inputs(self, seed):
        rng = np.random.default_rng(self.cli_seed)
        K = 2.0 * rng.random((self.m, self.n)) - 1.0
        lo = self.tau_center + _jitter(seed, self.tau_step) \
            - self.tau_step * (self.ntau - 1) / 2
        hi = lo + self.tau_step * (self.ntau - 1)
        return {"K": K, "tau_exp": f"{lo!r}:{self.tau_step!r}:{hi!r}",
                "value": checks.game_value(K)}

    def argv(self, inp, out, workers):
        return ["game", "--test", "1", "--m", str(self.m), "--n", str(self.n),
                "--centered", "--gamma", ",".join(repr(g) for g in self.gammas),
                f"--tau-exp={inp['tau_exp']}", "--tol", repr(self.tol),
                "--seeds", "1", "--workers", str(workers),
                "--record-every", str(self.record_every),
                "--emit", "csv,ratio", "--out", out]

    def run_round(self, inp, out_dir, tracer=None):
        out = os.path.join(out_dir, self.name)
        shutil.rmtree(out, ignore_errors=True)
        # traced runs keep every cell in this process, where the spans are
        workers = 1 if tracer is not None \
            else min(self.workers, len(os.sched_getaffinity(0)))
        argv = self.argv(inp, out, workers)
        with _recording(tracer), redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(argv)
            wall = perf_counter() - t0
        fails = {}
        if code != 0:
            fails["sweep"] = [f"cli.main exited with {code}"]
        cells = _read_csv(os.path.join(out, "summary.csv"))
        if len(cells) != len(self.gammas) * self.ntau:
            fails.setdefault("sweep", []).append(
                f"{len(cells)} cells, expected {len(self.gammas) * self.ntau}")
        loop = 0.0
        iters = 0
        for c in cells:
            iters += int(c["iters"])
            tag = _tag(c)
            runs = _read_csv(os.path.join(out, f"run_{tag}.csv"))
            loop += float(runs[-1]["elapsed_s"])
            if c["status"] != "converged" or not float(c["final_rhat_full"]) <= self.tol:
                fails[tag] = [f"{c['status']}, residual {c['final_rhat_full']}"]
        best = {float(r["gamma"]): float(r["best_tau"])
                for r in _read_csv(os.path.join(out, "ratio.csv"))}
        for g in self.gammas:
            # re-solve each gamma's best-tau cell here to check (x, y)
            rep = problems.matrix_game(inp["K"], best[g], g, tol=self.tol,
                                       record_every=self.record_every).solve()
            cell = [c for c in cells
                    if float(c["gamma"]) == g and float(c["tau"]) == best[g]]
            bad = checks.check_game(inp["K"], rep.x_final, rep.y_final,
                                    inp["value"], self.gap_bound)
            if rep.status != "converged":
                bad.append(rep.status)
            if [int(c["iters"]) for c in cell] != [rep.iters]:
                bad.append(f"check solve took {rep.iters} iterations, "
                           f"the sweep cell {[c['iters'] for c in cell]}")
            if bad:
                fails.setdefault(_tag(cell[0]) if cell else f"gamma={g!r}",
                                 []).extend(bad)
        setup = sum(self._cell_setup(inp["K"], float(c["tau"]), float(c["gamma"]))
                    for c in cells)
        written = sum(e.stat().st_size for e in os.scandir(out))
        return Round(wall, setup, loop, iters, len(cells), fails,
                     tuple(int(c["iters"]) for c in cells), written)

    def _cell_setup(self, K, tau, gamma):
        """Build plus pre-loop time of one sweep cell, run here for one
        iteration: the set-up the sweep repeats in every cell.  It takes a
        few milliseconds, so the median of three repeats is reported."""
        return statistics.median(_build_and_solve(lambda: problems.matrix_game(
            K, tau, gamma, tol=self.tol, max_iter=1))[2] for _ in range(3))


def _tag(cell):
    return f"s{cell['seed']}_g{cell['gamma']}_t{cell['tau']}"


def _read_csv(path):
    with open(path) as fh:
        head, *rows = fh.read().splitlines()
    keys = head.split(",")
    return [dict(zip(keys, r.split(","))) for r in rows]


# -- emd-sgs -----------------------------------------------------------------

@dataclass(frozen=True)
class EmdSgs:
    """One minimal-flux solve with the sGS dual metric at gamma = 3/4."""

    name = "emd-sgs"
    M: int = 16
    N: int = 16
    gamma: float = 0.75
    theta: float = 1e-6
    tau_exp: float = -1.5
    tau_step: float = 0.02
    tol: float = 5e-5
    record_every: int = 100
    ndir: int = 64
    feas_bound: float = 1e-4  # solver stops at relative feasibility <= tol
    slack: float = 1e-3

    @property
    def h(self):
        return (self.N - 1) / 4.0  # the CLI's default grid step

    def make_inputs(self, seed):
        rng = np.random.default_rng(BASE_SEED)
        rho0 = rng.random((self.M, self.N))
        rho1 = rng.random((self.M, self.N))
        rho0, rho1 = rho0 / rho0.sum(), rho1 / rho1.sum()
        tau = 10.0 ** (self.tau_exp + _jitter(seed, self.tau_step))
        lower = checks.flux_lower_bound(rho0, rho1, self.h, self.ndir)
        return {"rho0": rho0, "rho1": rho1, "tau": tau, "lower": lower}

    def run_round(self, inp, out_dir, tracer=None):
        rep, wall, setup = _build_and_solve(lambda: problems.emd(
            inp["rho0"], inp["rho1"], self.h, inp["tau"], self.gamma,
            theta=self.theta, method="sgs", tol=self.tol,
            record_every=self.record_every), tracer)
        bad = [] if rep.status == "converged" else [rep.status]
        bad += checks.check_flux(inp["rho0"], inp["rho1"], self.h, rep.x_final,
                                 inp["lower"], self.ndir, self.feas_bound,
                                 self.slack)
        fails = {"solve": bad} if bad else {}
        return Round(wall, setup, rep.history[-1].elapsed_s, rep.iters, 1, fails,
                     (rep.iters, rep.x_final.tobytes()))


# -- tvls-bcd ----------------------------------------------------------------

@dataclass(frozen=True)
class TvlsBcd:
    """TV least-squares solves over a few stepsizes at gamma = 3/4."""

    name = "tvls-bcd"
    M: int = 16
    N: int = 16
    rows: int = 128
    density: float = 0.05
    lam: float = 1.0
    gamma: float = 0.75
    theta: float = 1e-3
    tau_exps: tuple = (-2.25, -2.0, -1.75)
    tau_step: float = 0.02
    tol: float = 5e-6
    record_every: int = 100
    stat_bound: float = 5e-5  # ten times the solver tolerance

    def make_inputs(self, seed):
        n = self.M * self.N
        rng = np.random.default_rng(BASE_SEED)
        R = sp.random(self.rows, n, density=self.density, random_state=rng,
                      data_rvs=rng.random, format="csr")
        x_true = np.random.default_rng(BASE_SEED + 7919).random(n)
        shift = _jitter(seed, self.tau_step)
        return {"R": R, "b": R @ x_true,
                "taus": [10.0 ** (e + shift) for e in self.tau_exps]}

    def run_round(self, inp, out_dir, tracer=None):
        wall = setup = loop = 0.0
        iters = 0
        fails = {}
        finger = []
        for tau in inp["taus"]:
            rep, w, su = _build_and_solve(lambda: problems.tv_least_squares(
                inp["R"], inp["b"], self.lam, (self.M, self.N), tau,
                self.gamma, theta=self.theta, tol=self.tol,
                record_every=self.record_every), tracer)
            wall += w
            setup += su
            loop += rep.history[-1].elapsed_s
            iters += rep.iters
            finger.append((rep.iters, rep.x_final.tobytes()))
            bad = [] if rep.status == "converged" else [rep.status]
            bad += checks.check_tvls(inp["R"], inp["b"], self.lam,
                                     (self.M, self.N), rep.x_final,
                                     rep.y_final[self.rows:], self.stat_bound)
            if bad:
                fails[f"tau={tau!r}"] = bad
        return Round(wall, setup, loop, iters, len(inp["taus"]), fails,
                     tuple(finger))


WORKLOADS = {w.name: w for w in (GameSweep(), EmdSgs(), TvlsBcd())}
