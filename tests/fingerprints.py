"""The fingerprint set: solves whose trajectories a change must keep.

For each named solve the set records its iteration count, status, the hex
of its ``stop_residual``, the SHA-256 of its final x and y and of its
history rows (k, rhat_full, rhat_half, gap, without ``elapsed_s``), and
stores the final iterates themselves, so that a move at rounding level can
be measured.  The solves are those of the benchmark's three workloads and
two small emd ones:

- emd-sgs at seeds 0/5/11 and tvls-bcd at seeds 0/3/11, each at its three
  stepsizes, on the benchmark's inputs;
- the game-sweep argv's cells at seeds 0 and 11, solved as one row block
  here (each row equals its serial solve bit for bit, so also the sweep's
  cells at any worker count);
- the 8x8 emd sGS and iebalm solves of ``tests/test_sweeps.py`` and the
  cells of ``prepdhg emd --size 8,8``.

``fingerprints.json`` and ``fingerprints.npz`` next to this file hold the
set; ``tests/test_fingerprints.py`` checks it.  A change that moves
trajectories at rounding level regenerates the set, from the repository
root, with

    PYTHONPATH=src:. python tests/fingerprints.py

and records the max |delta| the test prints.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:  # perfbench, for the benchmark's inputs
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from prepdhg import cli, problems, solver  # noqa: E402

JSON_PATH = HERE / "fingerprints.json"
NPZ_PATH = HERE / "fingerprints.npz"


def _emd_sgs(seed):
    """The emd-sgs solve at ``seed``, on ``EmdSgs.make_inputs``'s arrays
    without its lower bound for the check, an LP that takes 0.6 s."""
    w = workloads.WORKLOADS["emd-sgs"]
    rng = np.random.default_rng(workloads.BASE_SEED)
    rho0, rho1 = rng.random((w.M, w.N)), rng.random((w.M, w.N))
    rho0, rho1 = rho0 / rho0.sum(), rho1 / rho1.sum()
    tau = 10.0 ** (w.tau_exp + workloads._jitter(seed, w.tau_step))
    return problems.emd(rho0, rho1, w.h, tau, w.gamma, theta=w.theta,
                        method="sgs", tol=w.tol,
                        record_every=w.record_every).solve()


def _tvls_bcd(seed):
    w = workloads.WORKLOADS["tvls-bcd"]
    inp = w.make_inputs(seed)
    return [problems.tv_least_squares(
        inp["R"], inp["b"], w.lam, (w.M, w.N), tau, w.gamma, theta=w.theta,
        tol=w.tol, record_every=w.record_every).solve() for tau in inp["taus"]]


def _sweep_insts(argv, seed=0):
    """The instances of a sweep argv's cells at CLI seed ``seed``, with
    their tags."""
    args = cli.build_parser().parse_args(argv)
    taus = getattr(args, "taus", None) or args.tau_exp
    grid = [(g, t) for g in args.gamma for t in taus]
    return args.build(args, seed, grid), [f"g{g!r}_t{t!r}" for g, t in grid]


def _game_sweep():
    w = workloads.WORKLOADS["game-sweep"]
    insts, names = [], []
    for seed in (0, 11):
        argv = w.argv(w.make_inputs(seed), "unused", 1)
        got, tags = _sweep_insts(argv)
        insts += got
        names += [f"game-sweep/seed{seed}/{t}" for t in tags]
    reps = solver.solve_batch(insts[0].saddle, [i.config for i in insts])
    return dict(zip(names, reps))


def _emd_8x8():
    rng = np.random.default_rng(0)
    r0, r1 = rng.random((8, 8)), rng.random((8, 8))
    r0, r1 = r0 / r0.sum(), r1 / r1.sum()
    out = {f"emd-8x8/{method}": problems.emd(
        r0, r1, 7 / 4, 10 ** -1.5, gamma, method=method, max_iter=3000,
        record_every=7).solve()
        for method, gamma in (("sgs", 0.75), ("iebalm", 1.0))}
    insts, tags = _sweep_insts(["emd", "--size", "8,8", "--out", "unused"])
    reps = solver.solve_batch(insts[0].saddle, [i.config for i in insts])
    out.update((f"cli-emd-8x8/{t}", r) for t, r in zip(tags, reps))
    return out


def reports():
    """Every solve of the set, by name."""
    out = {f"emd-sgs/seed{s}": _emd_sgs(s) for s in (0, 5, 11)}
    for s in (0, 3, 11):
        out.update((f"tvls-bcd/seed{s}/tau{i}", r)
                   for i, r in enumerate(_tvls_bcd(s)))
    out.update(_game_sweep())
    out.update(_emd_8x8())
    return out


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()
                          ).hexdigest()


def fingerprint(rep):
    """The record of one report: everything but its iterates."""
    history = np.array([h[:4] for h in rep.history], dtype=float)
    return {"iters": rep.iters, "status": rep.status,
            "stop_residual": float(rep.stop_residual).hex(),
            "x_sha256": _sha(rep.x_final), "y_sha256": _sha(rep.y_final),
            "history_sha256": _sha(history)}


def regenerate():
    reps = reports()
    JSON_PATH.write_text(json.dumps(
        {name: fingerprint(r) for name, r in reps.items()}, indent=1) + "\n")
    arrays = {}
    for name, r in reps.items():
        arrays[f"{name}/x"], arrays[f"{name}/y"] = r.x_final, r.y_final
    np.savez_compressed(NPZ_PATH, **arrays)
    print(f"{len(reps)} solves written to {JSON_PATH.name} and "
          f"{NPZ_PATH.name}")


if __name__ == "__main__":
    regenerate()
