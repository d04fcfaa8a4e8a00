"""Benchmark harness: parameter sweeps, CSV/SVG emission, ratio tables.

Subcommands: game | birkhoff | emd | tvls | counterexample | check.
argparse parses every value and reads every input file once, before any
work: a bad value or file exits 1 with one line naming it.  A sweep then
builds every seed x gamma x tau cell before any solve and before a worker
pool starts, so a value that a problem builder refuses exits 1 the same
way.  A builder makes its seed's shared inputs once (the game's K and
its memoized ||K||^2, birkhoff's C, emd's grids, tvls's R and b).  Each
seed deals its cells out, interleaved, into min(workers, cells) tasks, and
a task is one row-block solve (``solver.solve_batch``), equal cell for cell
to the serial solves.  A summary CSV (byte-stable across reruns of the
same seeded config, and across worker counts), per-run residual CSVs, a
saved-iteration ratio table against the gamma = 1 baseline, and optional
SVG convergence plots are written under the output directory.
"""

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .counterexamples import ToyDynamics, classify, eig2, rho2_boundary_scan
from .exceptions import ConfigurationError
from .metrics import DiagonalMetric, ScalarMetric, check_condition
from .operators import load_dense, load_sparse
from .problems import (birkhoff_projection, emd, game_matrix, load_grid,
                       matrix_game, random_balanced_grids,
                       random_sparse_system, tv_least_squares)
from .solver import HistoryRow, solve_batch

RATIO_BASELINE_GAMMA = 1.0


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def parse_number(token: str) -> float:
    """Float literal or a fraction like 4/3."""
    token = token.strip()
    if "/" in token:
        try:
            return float(Fraction(token))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {token!r}") from None
    return float(token)


def parse_number_list(text: str):
    return [parse_number(t) for t in text.split(",") if t.strip()]


def parse_gamma_rules(text: str):
    """Comma list of numbers and the named rule 'tight' (birkhoff's gamma)."""
    return [t.strip() if t.strip() == "tight" else parse_number(t)
            for t in text.split(",") if t.strip()]


def parse_log_range(text: str):
    """'a:step:b' -> 10**a, 10**(a+step), ..., 10**b (log10 sweep)."""
    parts = text.split(":")
    if len(parts) == 1:
        return [10.0 ** parse_number(parts[0])]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be a:step:b, got {text!r}")
    a, step, b = (parse_number(p) for p in parts)
    if step <= 0:
        raise argparse.ArgumentTypeError("range step must be positive")
    exps = np.arange(a, b + step * 0.5, step)
    return [float(10.0 ** e) for e in exps]


def parse_positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def parse_grid_size(text: str):
    """'M,N' -> (M, N), both positive."""
    M, N = (int(v) for v in text.split(","))
    if M < 1 or N < 1:
        raise argparse.ArgumentTypeError(
            f"grid dimensions must be positive, got {text!r}")
    return M, N


def parse_flux_grid_size(text: str):
    """A grid size with at least two nodes, so that a flux has an edge."""
    M, N = parse_grid_size(text)
    if M * N < 2:
        raise argparse.ArgumentTypeError(
            f"grid must have at least two nodes, got {text!r}")
    return M, N


def _positive_finite(text: str, what: str) -> float:
    """A positive, finite number; ``what`` names it in the error."""
    value = parse_number(text)
    if not 0.0 < value < float("inf"):  # NaN fails too
        raise argparse.ArgumentTypeError(
            f"{what} must be positive and finite, got {text!r}")
    return value


def parse_grid_step(text: str) -> float:
    return _positive_finite(text, "grid step")


def parse_lam(text: str) -> float:
    return _positive_finite(text, "lam")


def parse_density(text: str) -> float:
    """A sparse matrix's density: a number in (0, 1]."""
    density = float(text)
    if not 0.0 < density <= 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(
            f"density must lie in (0, 1], got {text!r}")
    return density


def load_vector(path):
    """A whitespace text file's numbers, flattened."""
    return np.loadtxt(path, ndmin=1).ravel()


def load_operator(path):
    """A Matrix Market (.mtx) or whitespace text operator."""
    return load_sparse(path) if path.endswith(".mtx") else load_dense(path)


def parse_config_text(text: str) -> dict:
    """Flat key = value lines; '#' starts a comment."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {ln}: expected key = value")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


#: the on/off flags; a config file turns one on with a true value
_SWITCHES = ("allow-diverge", "centered")


def _apply_config_file(args):
    """Splice the --config file's entries in after the subcommand.

    Each ``key = value`` entry becomes a ``--key=value`` token (an on/off
    flag becomes ``--key`` when its value is true and is dropped otherwise).
    The tokens go before the explicit flags, so argparse checks the file's
    values like any flag's and the explicit flags win.
    """
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(args)
    command = next((i for i, a in enumerate(args) if not a.startswith("-")), None)
    if not known.config or command is None:
        return args  # argparse reports a missing subcommand
    try:
        with open(known.config) as fh:
            values = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from None
    tokens = []
    for key, val in values.items():
        key = key.replace("_", "-")
        if key == "config":
            raise ConfigurationError("a config file cannot name another")
        if key not in _SWITCHES:
            tokens.append(f"--{key}={val}")
        elif val.lower() in ("1", "true", "yes", "on"):
            tokens.append(f"--{key}")
    return args[:command + 1] + tokens + args[command + 1:]


@dataclass
class CellResult:
    seed: int
    gamma: float
    tau: float
    iters: int
    status: str
    final_full: float
    final_half: float
    history: list
    has_gap: bool
    #: gamma as configured: the value, or a rule (birkhoff's "tight"
    #: resolves to a different gamma at each tau)
    gamma_config: object


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_run_outputs(outdir, tag, res: CellResult, emit):
    if "csv" in emit:
        cols = [c for c in HistoryRow._fields if c != "gap" or res.has_gap]
        _write_csv(os.path.join(outdir, f"run_{tag}.csv"), cols,
                   ([getattr(h, c) for c in cols] for h in res.history))
    if "svg" in emit:
        ks = [h.k for h in res.history if np.isfinite(h.rhat_full) and h.rhat_full > 0]
        vs = [np.log10(h.rhat_full) for h in res.history
              if np.isfinite(h.rhat_full) and h.rhat_full > 0]
        if ks:
            write_svg(os.path.join(outdir, f"run_{tag}.svg"), ks, vs,
                      title=f"run {tag}", xlabel="iteration",
                      ylabel="log10 residual")


def write_svg(path, xs, ys, title="", xlabel="", ylabel=""):
    """Minimal polyline plot, no plotting dependency."""
    W, H, pad = 640, 480, 60
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (W - 2 * pad)

    def sy(y):
        return H - pad - (y - y0) / (y1 - y0) * (H - 2 * pad)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{pad}" y1="{H - pad}" x2="{W - pad}" y2="{H - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H - pad}" stroke="black"/>',
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>',
        f'<text x="{W / 2:.0f}" y="{H - pad / 3:.0f}" text-anchor="middle">{xlabel}</text>',
        f'<text x="{pad / 3:.0f}" y="{H / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 {pad / 3:.0f} {H / 2:.0f})">{ylabel}</text>',
        f'<text x="{W / 2:.0f}" y="{pad / 2:.0f}" text-anchor="middle">{title}</text>',
        f'<text x="{pad}" y="{H - pad + 15}" font-size="10">{x0:.3g}</text>',
        f'<text x="{W - pad}" y="{H - pad + 15}" font-size="10" text-anchor="end">{x1:.3g}</text>',
        f'<text x="{pad - 5}" y="{H - pad}" font-size="10" text-anchor="end">{y0:.3g}</text>',
        f'<text x="{pad - 5}" y="{pad}" font-size="10" text-anchor="end">{y1:.3g}</text>',
        "</svg>",
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _write_summary(outdir, results):
    rows = [(r.seed, r.gamma, r.tau, r.iters, r.status, r.final_full,
             r.final_half) for r in results]
    _write_csv(os.path.join(outdir, "summary.csv"),
               ["seed", "gamma", "tau", "iters", "status",
                "final_rhat_full", "final_rhat_half"], rows)


def _write_ratio(outdir, results):
    """Saved-iteration ratio against the gamma = 1 baseline at best tau,
    one row per configured gamma (numbers ascending, then named rules)."""
    gammas = sorted({r.gamma_config for r in results},
                    key=lambda g: (isinstance(g, str), g))
    taus = sorted({r.tau for r in results})
    mean_iters = {}
    for g in gammas:
        for t in taus:
            sel = [r.iters for r in results
                   if r.gamma_config == g and r.tau == t]
            if sel:
                mean_iters[(g, t)] = float(np.mean(sel))
    best = {}
    for g in gammas:
        cand = [(mean_iters[(g, t)], t) for t in taus if (g, t) in mean_iters]
        if cand:
            best[g] = min(cand)
    rows = []
    base = best.get(RATIO_BASELINE_GAMMA)
    for g in gammas:
        it, t = best[g]
        if base is None:
            ratio = float("nan")
        else:
            ratio = (base[0] - it) / base[0] * 100.0
        rows.append((g, t, it, ratio))
    _write_csv(os.path.join(outdir, "ratio.csv"),
               ["gamma", "best_tau", "iters_mean", "ratio_pct"], rows)
    return rows


def _finish_sweep(args, results, emit):
    results.sort(key=lambda r: (r.seed, r.gamma, r.tau))
    os.makedirs(args.out, exist_ok=True)
    for r in results:
        tag = f"s{r.seed}_g{_fmt(r.gamma)}_t{_fmt(r.tau)}"
        _write_run_outputs(args.out, tag, r, emit)
    _write_summary(args.out, results)
    if "ratio" in emit:
        rows = _write_ratio(args.out, results)
        for g, t, it, ratio in rows:
            g = g if isinstance(g, str) else f"{g:g}"
            print(f"gamma={g} best_tau={t:.6g} iters={it:.1f} ratio={ratio:.1f}%")
    diverged = [r for r in results if r.status == "diverged"]
    if diverged and not args.allow_diverge:
        print(f"{len(diverged)} run(s) diverged", file=sys.stderr)
        return 2
    return 0


# -- sweeps: game | birkhoff | emd | tvls -----------------------------------

def _stop(args):
    """The stopping and recording settings every sweep's solves share."""
    return dict(tol=args.tol, max_iter=args.max_iter,
                record_every=args.record_every)


def _game_cells(args, seed, cells):
    K = game_matrix(args.test, seed, args.m, args.n, centered=args.centered)
    return [matrix_game(K, tau_tilde, gamma, record_gap=True, **_stop(args))
            for gamma, tau_tilde in cells]


def _birkhoff_cells(args, seed, cells):
    C = np.random.default_rng(seed).random((args.n, args.n))
    C = 0.5 * (C + C.T)
    insts = []
    for gamma, tau_tilde in cells:
        tau = tau_tilde / np.sqrt(2.0 * args.n)
        if gamma == "tight":
            gamma = 0.751 / (1.0 + tau / 2.0)
        insts.append(birkhoff_projection(C, tau, gamma, theta=args.theta,
                                         method=args.method, **_stop(args)))
    return insts


def _emd_cells(args, seed, cells):
    if (args.rho0 is None) != (args.rho1 is None):
        raise ConfigurationError("--rho0 and --rho1 must be given together")
    rho0, rho1 = (random_balanced_grids(*args.size, seed) if args.rho0 is None
                  else (args.rho0, args.rho1))
    if rho0.shape != rho1.shape:
        raise ConfigurationError(f"--rho0 and --rho1 differ in shape: "
                                 f"{rho0.shape} and {rho1.shape}")
    if args.h is None and rho0.shape[1] == 1:
        raise ConfigurationError("a one-column grid has no default step "
                                 "((N - 1)/4 is 0); give --h")
    h = (rho0.shape[1] - 1) / 4.0 if args.h is None else args.h
    return [emd(rho0, rho1, h, tau, gamma, theta=args.theta,
                method=args.method, bcd_epochs=args.bcd_epochs,
                override=args.allow_diverge, **_stop(args))
            for gamma, tau in cells]


def _tvls_cells(args, seed, cells):
    M, N = args.size
    n = M * N
    R = args.r
    if R is None:
        if args.m_rows is None and n < 2:
            raise ConfigurationError("a one-pixel --size has no default row "
                                     "count; give --m-rows or --r")
        R = random_sparse_system(n // 2 if args.m_rows is None else args.m_rows,
                                 n, args.density, seed)
    elif R.cols != n:
        raise ConfigurationError(f"--r has {R.cols} columns, but --size has "
                                 f"{n} pixels")
    b = R.apply(np.random.default_rng(seed + 7919).random(n))
    return [tv_least_squares(R, b, args.lam, (M, N), tau, gamma,
                             theta=args.theta, bcd_epochs=args.bcd_epochs,
                             **_stop(args))
            for gamma, tau in cells]


def _solve_cells(seed, cells, insts):
    """The results of one seed's ``cells`` from their instances, solved as
    one row block by ``solve_batch``."""
    reps = solve_batch(insts[0].saddle, [inst.config for inst in insts])
    return [CellResult(seed, inst.meta["gamma"], tau, rep.iters, rep.status,
                       rep.history[-1].rhat_full, rep.history[-1].rhat_half,
                       rep.history, inst.config.gap_fn is not None, gamma)
            for (gamma, tau), inst, rep in zip(cells, insts, reps)]


def _build_and_solve(args, seed, cells):
    return _solve_cells(seed, cells, args.build(args, seed, cells))


def sweep_cells(args, cells):
    """Every seed's ``cells`` ((gamma, tau) pairs), solved.

    ``args.build(args, seed, cells)``, the sweep's ``_<problem>_cells``,
    makes a seed's shared inputs once and returns one ProblemInstance per
    cell.  Every seed's cells are built first, here, so a builder's refusal
    ends the sweep before any solve and before a pool starts.  Each seed
    then deals its cells out in turn into ``min(args.workers, len(cells))``
    tasks, so that every task holds a like mix of the grid.  With one worker
    the instances built here are solved; a pool's workers rebuild their own
    tasks, since instances hold closures.
    """
    nb = min(args.workers, len(cells))
    built = [args.build(args, seed, cells) for seed in range(args.seeds)]
    tasks = [(seed, cells[i::nb]) for seed in range(args.seeds)
             for i in range(nb)]
    workers = min(args.workers, len(tasks))
    if workers <= 1:
        return [res for seed, insts in enumerate(built)  # one task a seed
                for res in _solve_cells(seed, cells, insts)]
    del built
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [res for task in pool.map(partial(_build_and_solve, args),
                                         *zip(*tasks), chunksize=1)
                for res in task]


def run_sweep(args):
    """Solve every (seed, gamma, tau) cell of one problem; write the outputs."""
    if args.workers < 1:
        raise ConfigurationError("--workers must be at least 1")
    if args.seeds < 1:
        raise ConfigurationError("--seeds must be at least 1")
    emit = args.emit.split(",")
    if not set(emit) <= {"csv", "ratio", "svg"}:
        raise ConfigurationError(f"--emit takes csv, ratio and svg, not {args.emit!r}")
    taus = getattr(args, "taus", None) or args.tau_exp
    grid = [(g, t) for g in args.gamma for t in taus]
    if not grid:
        raise ConfigurationError("the gamma and tau lists give an empty grid")
    return _finish_sweep(args, sweep_cells(args, grid), emit)


# -- counterexample ---------------------------------------------------------

def run_counterexample(args):
    os.makedirs(args.out, exist_ok=True)
    rows = []
    if args.kind == "bilinear":
        for prod in args.taus:
            t = float(np.sqrt(prod))
            dyn = ToyDynamics("bilinear", t, prod / t)
            mu1, mu2 = eig2(dyn.G)
            res = classify(dyn, np.array([1.0, 0.0]), max_iter=args.max_iter)
            print(f"tau*sigma={prod:.12g}: eigenvalues ({mu1:.12g}, {mu2:.12g}) "
                  f"verdict={res.verdict} final_norm={res.final_norm:.6g}")
            rows.append((prod, mu1.real, mu1.imag, mu2.real, mu2.imag,
                         res.verdict, res.final_norm))
        _write_csv(os.path.join(args.out, "counterexample.csv"),
                   ["tau_sigma", "mu1_re", "mu1_im", "mu2_re", "mu2_im",
                    "verdict", "final_norm"], rows)
    else:
        table = rho2_boundary_scan(args.tau, args.rho3)
        for rho3, sigma, dom in table:
            print(f"rho3={rho3:.6g} sigma={sigma:.6g} dominant_abs={dom:.12g}")
            rows.append((rho3, sigma, dom))
        _write_csv(os.path.join(args.out, "counterexample.csv"),
                   ["rho3", "sigma", "dominant_abs"], rows)
    return 0


# -- check ------------------------------------------------------------------

def _metric(vals, dim):
    """A metric file's values: one number is a scalar metric of ``dim``."""
    return ScalarMetric(float(vals[0]), dim) if vals.size == 1 \
        else DiagonalMetric(vals)


def run_check(args):
    K = args.k
    report = check_condition(_metric(args.m1, K.cols), args.sigma_f,
                             _metric(args.m2, K.rows), K)
    print(f"s_hat = {report.s_hat:.12g}")
    print(f"s_bar = {report.s_bar:.12g}")
    print(f"threshold = {report.threshold:.12g}")
    print(f"margin = {report.margin:.12g}")
    print(f"verdict = {report.verdict}")
    print(f"converged = {report.converged}")
    print(f"iterations = {report.iterations}")
    return 0


#: the flags every sweep takes
_SWEEP_FLAGS = {
    "--tol": dict(type=float, default=1e-6),
    "--max-iter": dict(type=int, default=1000000),
    "--seeds": dict(type=int, default=1),
    "--out": dict(default="out"),
    "--emit": dict(default="csv,ratio"),
    "--workers": dict(type=int, default=os.cpu_count() or 1),
    "--record-every": dict(type=int, default=100),
    "--allow-diverge": dict(action="store_true"),
}


def _add_common(p, flags=tuple(_SWEEP_FLAGS)):
    """``--config`` and those of the sweep flags the subcommand reads."""
    p.add_argument("--config", help="flat key = value file; flags override")
    for flag in flags:
        p.add_argument(flag, **_SWEEP_FLAGS[flag])


def build_parser():
    ap = _Parser(prog="prepdhg", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("game", help="matrix game sweep")
    _add_common(g)
    g.add_argument("--test", type=int, default=1, help="generator recipe 1-4")
    g.add_argument("--m", type=parse_positive_int)
    g.add_argument("--n", type=parse_positive_int)
    g.add_argument("--centered", action="store_true",
                   help="zero-mean uniform for recipe 1")
    g.add_argument("--gamma", type=parse_number_list, default="1.0,0.751")
    g.add_argument("--tau-exp", type=parse_log_range, default="-0.7:0.01:-0.3",
                   help="log10 range a:step:b for tau_tilde")
    g.set_defaults(func=run_sweep, build=_game_cells, tol=1e-5)

    bk = sub.add_parser("birkhoff", help="doubly-stochastic projection sweep")
    _add_common(bk)
    bk.add_argument("--n", type=parse_positive_int, default=50)
    bk.add_argument("--method", choices=["ebalm", "pdhg"], default="ebalm")
    bk.add_argument("--gamma", type=parse_gamma_rules, default="1.0,tight",
                    help="comma list of values or 'tight' (= 0.751/(1+tau/2))")
    bk.add_argument("--tau-exp", type=parse_log_range, default="0.2:0.01:0.6")
    bk.add_argument("--theta", type=float, default=1e-4)
    bk.set_defaults(func=run_sweep, build=_birkhoff_cells, tol=1e-8)

    em = sub.add_parser("emd", help="minimal-flux transport sweep")
    _add_common(em)
    em.add_argument("--size", type=parse_flux_grid_size, default="16,16",
                    help="grid M,N")
    em.add_argument("--h", type=parse_grid_step,
                    help="grid step (default (N-1)/4, N the grid's columns)")
    em.add_argument("--rho0", type=load_grid, help="source grid file")
    em.add_argument("--rho1", type=load_grid, help="target grid file")
    em.add_argument("--method", choices=["sgs", "iebalm"], default="sgs")
    em.add_argument("--gamma", type=parse_number_list, default="1.0,0.75")
    em.add_argument("--taus", type=parse_number_list, help="comma list of tau values")
    em.add_argument("--tau-exp", type=parse_log_range, default="-2:0.25:-1")
    em.add_argument("--theta", type=float, default=1e-6)
    em.add_argument("--bcd-epochs", type=int, default=2)
    em.set_defaults(func=run_sweep, build=_emd_cells, tol=5e-5,
                    max_iter=200000)

    tv = sub.add_parser("tvls", help="TV-regularized least squares sweep")
    _add_common(tv)
    tv.add_argument("--size", type=parse_grid_size, default="16,16",
                    help="pixel grid M,N")
    tv.add_argument("--m-rows", type=parse_positive_int)
    tv.add_argument("--density", type=parse_density, default=0.05)
    tv.add_argument("--r", type=load_sparse, help="system matrix .mtx")
    tv.add_argument("--lam", type=parse_lam, default=1.0)
    tv.add_argument("--gamma", type=parse_number_list, default="1.0,0.75")
    tv.add_argument("--taus", type=parse_number_list)
    tv.add_argument("--tau-exp", type=parse_log_range, default="-2.5:0.25:-1.5")
    tv.add_argument("--theta", type=float, default=1e-3)
    tv.add_argument("--bcd-epochs", type=int, default=2)
    tv.set_defaults(func=run_sweep, build=_tvls_cells, tol=5e-6)

    ce = sub.add_parser("counterexample", help="2x2 tightness certificates")
    _add_common(ce, ("--out", "--max-iter"))
    ce.add_argument("--kind", choices=["bilinear", "quadratic"],
                    default="bilinear")
    ce.add_argument("--taus", type=parse_number_list, default="4/3",
                    help="bilinear: comma list of tau*sigma products")
    ce.add_argument("--tau", type=parse_number, default="1.0",
                    help="quadratic: tau value")
    ce.add_argument("--rho3", type=parse_number_list, default="0.4,0.5,0.6",
                    help="quadratic: comma list of rho3 values")
    ce.set_defaults(func=run_counterexample, max_iter=100000)

    ck = sub.add_parser("check", help="convergence-condition check")
    _add_common(ck, ())
    ck.add_argument("--m1", type=load_vector, required=True,
                    help="scalar/diagonal file")
    ck.add_argument("--m2", type=load_vector, required=True,
                    help="scalar/diagonal file")
    ck.add_argument("--k", type=load_operator, required=True,
                    help="operator file (.mtx or text)")
    ck.add_argument("--sigma-f", type=load_vector)
    ck.set_defaults(func=run_check)
    return ap


def main(argv=None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(_apply_config_file(args_list))
        except OSError as exc:  # an input file that a flag's type reads
            raise ConfigurationError(f"cannot read input file: {exc}") from None
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
