"""prepdhg benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload game-sweep --seed 0 --seconds 30 --trace 0

Runs identical rounds of the workload until ``--seconds`` is spent (at least
one round), checks every operation, and prints a machine block, a per-round
log and, as the last line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` installs span wrappers around each prepdhg layer and reports
the per-layer metrics instead.  See perfbench/README.md.
"""

import os

# One BLAS thread per process, set before numpy loads; the game sweep's
# worker processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _import_program():
    """Import prepdhg from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    try:
        import prepdhg
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import prepdhg from {src}: {exc}")
    if Path(prepdhg.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: prepdhg was imported from {prepdhg.__file__}, "
                 f"not from {src}")


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine_block():
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _commit(),
    }


def peak_rss_mb():
    """Peak resident set of this process and of its waited-for children."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_rounds(workload, inp, seconds, out_dir, tracer=None, on_round=None):
    """Whole rounds until the next one would end past ``seconds``."""
    rounds = []
    begin = perf_counter()
    while True:
        # each round starts from a collected heap, so the previous round's
        # garbage does not add to the peak resident set
        gc.collect()
        r0 = perf_counter()
        rounds.append(workload.run_round(inp, str(out_dir), tracer))
        if on_round is not None:
            on_round(rounds[-1])
        now = perf_counter()
        if now - begin + (now - r0) > seconds:
            return rounds


def end_to_end(rounds, rss_mb):
    med = statistics.median
    return {
        "wall_s": (med(r.wall_s for r in rounds), "s"),
        "setup_s": (med(r.setup_s for r in rounds), "s"),
        "iters": (rounds[0].iters, "iterations"),
        "us_per_iter": (med(1e6 * r.loop_s / r.iters for r in rounds), "us"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(summaries, rounds):
    """Per-round means of the traced totals (all rounds are identical work)."""
    n = len(summaries)

    def mean(get):
        return sum(get(s) for s in summaries) / n

    def span(kind, i):
        return mean(lambda s: s["spans"][kind][i])

    iters = mean(lambda s: s["iters"])
    loop_calls = span("operators.apply", 1) + span("operators.adjoint", 1)
    return {
        "problems.build_s": (span("problems.build", 0), "s"),
        "operators.spectral_norm_s": (span("operators.spectral_norm", 0), "s"),
        "operators.apply_calls": (span("operators.apply", 1), "count"),
        "operators.adjoint_calls": (span("operators.adjoint", 1), "count"),
        "operators.apply_s": (span("operators.apply", 0), "s"),
        "operators.adjoint_s": (span("operators.adjoint", 0), "s"),
        "operators.calls_per_iter": (loop_calls / iters if iters else 0.0, "calls/iter"),
        "prox.calls": (span("prox.prox", 1), "count"),
        "prox.s": (span("prox.prox", 0), "s"),
        "metrics.solve_calls": (span("metrics.solve", 1), "count"),
        "metrics.solve_s": (span("metrics.solve", 0), "s"),
        "metrics.apply_calls": (span("metrics.apply", 1), "count"),
        "metrics.apply_s": (span("metrics.apply", 0), "s"),
        "metrics.check_s": (span("metrics.check", 0), "s"),
        "metrics.check_iters": (mean(lambda s: s["check_iters"]), "count"),
        "metrics.check_converged": (mean(lambda s: s["check_converged"]), "count"),
        "solver.bcd_calls": (span("solver.bcd", 1), "count"),
        "solver.bcd_s": (span("solver.bcd", 0), "s"),
        "solver.iters": (iters, "count"),
        "solver.setup_s": (mean(lambda s: s["setup_s"]), "s"),
        "solver.loop_s": (mean(lambda s: s["loop_s"]), "s"),
        "solver.self_s": (mean(lambda s: s["self_s"]), "s"),
        "cli.self_s": (span("cli.main", 0), "s"),
        "cli.bytes_written": (sum(r.bytes_written for r in rounds) / len(rounds), "bytes"),
    }


def main(argv=None):
    _import_program()
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    print("machine " + json.dumps(machine_block()), flush=True)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


def run(workload, seed, seconds, traced, out_dir=OUT_DIR, log=print):
    """One run of ``workload``; returns the result object."""
    from perfbench import trace

    t_inputs = perf_counter()
    inp = workload.make_inputs(seed)
    log(f"inputs {workload.name} seed={seed} made in "
        f"{perf_counter() - t_inputs:.3f} s")
    tracer = summaries = uninstall = None
    if traced:
        tracer = trace.Tracer()
        summaries = []
        uninstall = trace.install(tracer)

    def on_round(r):
        fails = "; ".join(f"{op}: {', '.join(m)}" for op, m in r.fails.items())
        log(f"round {workload.name} wall_s={r.wall_s:.4f} setup_s={r.setup_s:.4f} "
            f"loop_s={r.loop_s:.4f} iters={r.iters} attempted={r.attempted} "
            f"failed={len(r.fails)}" + (f" [{fails}]" if fails else ""))
        if tracer is not None:
            summaries.append(tracer.summary())
            tracer.clear()

    try:
        rounds = run_rounds(workload, inp, seconds, out_dir, tracer, on_round)
    finally:
        if uninstall is not None:
            uninstall()
    rss = peak_rss_mb()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.fails) for r in rounds)
    # every round is the same deterministic work, so outputs must repeat
    correct = all(r.fingerprint == rounds[0].fingerprint for r in rounds)
    log(f"workload {workload.name}: rounds={len(rounds)} attempted={attempted} "
        f"failed={failed} outputs_repeat={correct}")
    metrics = per_layer(summaries, rounds) if traced else end_to_end(rounds, rss)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
