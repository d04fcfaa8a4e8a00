"""Tiny-size runs of each workload, traced and untraced."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import prepdhg
from perfbench import run
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    """The workload at a size that runs in about a second."""
    w = WORKLOADS[name]
    if name == "game-sweep":
        return replace(w, m=8, n=8, gammas=(1.0, 0.8), tau_center=-0.4,
                       tau_step=0.2, ntau=3, workers=1)
    if name == "emd-sgs":
        return replace(w, M=4, N=4, tau_exp=-1.0)
    return replace(w, M=4, N=4, rows=8, density=0.5, tau_exps=(-1.0,))


LOOP_PARTS = ("operators.apply_s", "operators.adjoint_s", "prox.s",
              "metrics.solve_s", "metrics.apply_s", "solver.bcd_s",
              "solver.self_s")


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run(name, tmp_path):
    res = run.run(tiny(name), 3, 0.0, False, out_dir=tmp_path,
                  log=lambda *_: None)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        got = res["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"] and got["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_accounts_for_the_loop(name, tmp_path):
    solve = prepdhg.solver.solve
    res = run.run(tiny(name), 3, 0.0, True, out_dir=tmp_path,
                  log=lambda *_: None)
    assert prepdhg.solver.solve is solve  # wrappers removed again
    assert res["correct"] and res["failed"] == 0
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(m) == [s["name"] for s in SPEC["per_layer"]]
    assert sum(m[k] for k in LOOP_PARTS) == pytest.approx(m["solver.loop_s"],
                                                          rel=1e-9)
    assert 0 <= m["solver.self_s"] <= m["solver.loop_s"]
    assert m["solver.iters"] > 0 and m["operators.apply_calls"] > 0


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                          "emd-sgs", "--seed", "0", "--seconds", "1",
                          "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
