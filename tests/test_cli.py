import argparse
import os

import numpy as np
import pytest

from prepdhg import cli, metrics, operators
from prepdhg.cli import (_SWITCHES, _apply_config_file, build_parser, main,
                         parse_config_text, parse_log_range, parse_number)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestParsing:
    def test_fractions(self):
        assert parse_number("4/3") == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert parse_number("0.751") == 0.751

    def test_log_range(self):
        vals = parse_log_range("-0.7:0.2:-0.3")
        assert np.allclose(vals, [10 ** -0.7, 10 ** -0.5, 10 ** -0.3])
        assert parse_log_range("-0.5") == [10 ** -0.5]

    def test_config_roundtrip(self):
        cfg = {"gamma": "1.0,0.751", "tol": "1e-5", "seeds": "3"}
        text = "gamma = 1.0,0.751\nseeds = 3\ntol = 1e-5\n"
        assert parse_config_text(text) == cfg
        # comments and blanks are tolerated
        assert parse_config_text("# note\n\na = 1\n") == {"a": "1"}


class TestGameSweep:
    def run_small(self, tmp_path, name, extra=()):
        out = tmp_path / name
        code = main([
            "game", "--test", "1", "--m", "8", "--n", "8", "--centered",
            "--gamma", "1.0,0.8", "--tau-exp=-0.6:0.2:-0.2",
            "--tol", "1e-5", "--seeds", "2", "--workers", "1",
            "--record-every", "50", "--out", str(out), *extra,
        ])
        return code, out

    def test_outputs_and_headers(self, tmp_path):
        code, out = self.run_small(tmp_path, "a", ("--emit", "csv,ratio,svg"))
        assert code == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == \
            "seed,gamma,tau,iters,status,final_rhat_full,final_rhat_half"
        assert len(summary) == 1 + 2 * 2 * 3  # seeds x gammas x taus
        ratio = (out / "ratio.csv").read_text().splitlines()
        assert ratio[0] == "gamma,best_tau,iters_mean,ratio_pct"
        runs = sorted(p for p in os.listdir(out) if p.startswith("run_"))
        csvs = [p for p in runs if p.endswith(".csv")]
        svgs = [p for p in runs if p.endswith(".svg")]
        assert len(csvs) == 12 and len(svgs) == 12
        head = (out / csvs[0]).read_text().splitlines()[0]
        assert head == "k,rhat_full,rhat_half,gap,elapsed_s"
        assert (out / svgs[0]).read_text().startswith("<svg")

    def test_ratio_arithmetic_matches_definition(self, tmp_path):
        code, out = self.run_small(tmp_path, "b")
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        recs = [r.split(",") for r in rows]
        iters = {}
        for seed, gamma, tau, it, status, _, _ in recs:
            iters.setdefault((float(gamma), float(tau)), []).append(int(it))
        means = {k: np.mean(v) for k, v in iters.items()}
        best = {}
        for (g, t), m in means.items():
            if g not in best or m < best[g][0]:
                best[g] = (m, t)
        base = best[1.0][0]
        ratio_rows = (out / "ratio.csv").read_text().splitlines()[1:]
        for row in ratio_rows:
            g, t, it, pct = (float(v) for v in row.split(","))
            assert it == pytest.approx(best[g][0])
            assert pct == pytest.approx((base - it) / base * 100.0, abs=1e-9)

    def test_summary_byte_identical_across_reruns(self, tmp_path):
        _, out1 = self.run_small(tmp_path, "c1")
        _, out2 = self.run_small(tmp_path, "c2")
        assert read(out1 / "summary.csv") == read(out2 / "summary.csv")
        assert read(out1 / "ratio.csv") == read(out2 / "ratio.csv")

    def test_workers_do_not_change_results(self, tmp_path):
        outs = []
        for w in ("1", "2", "3"):
            code, out = self.run_small(tmp_path, f"w{w}", ("--workers", w))
            assert code == 0
            outs.append(out)
        first = outs[0]
        runs = sorted(p for p in os.listdir(first) if p.startswith("run_"))
        assert len(runs) == 12
        for out in outs[1:]:
            assert read(first / "summary.csv") == read(out / "summary.csv")
            assert read(first / "ratio.csv") == read(out / "ratio.csv")
            assert sorted(p for p in os.listdir(out)
                          if p.startswith("run_")) == runs
            for run in runs:  # every column but the last, elapsed_s
                assert [r.rsplit(",", 1)[0] for r in
                        (first / run).read_text().splitlines()] == \
                    [r.rsplit(",", 1)[0] for r in
                     (out / run).read_text().splitlines()]

    def test_a_batch_estimates_the_norm_once(self, tmp_path, monkeypatch):
        # a batch's cells share K, and each scalar-pair check reads the
        # estimate memoized on it: one power iteration per seed's batch
        runs = []
        power = operators._power_iteration
        monkeypatch.setattr(operators, "_power_iteration",
                            lambda *a: runs.append(a) or power(*a))
        monkeypatch.setattr(metrics, "_generalized_lanczos",
                            lambda *a: pytest.fail("the check iterated"))
        code, one = self.run_small(tmp_path, "one")
        assert code == 0 and len(runs) == 2  # --seeds 2, --workers 1
        code, two = self.run_small(tmp_path, "two", ("--workers", "2"))
        assert code == 0
        assert read(one / "summary.csv") == read(two / "summary.csv")
        assert read(one / "ratio.csv") == read(two / "ratio.csv")

    @pytest.mark.parametrize("flag", ["--workers", "--seeds"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_counts_below_one_rejected(self, tmp_path, capsys, flag, value):
        code, out = self.run_small(tmp_path, "z", (flag, value))
        assert code == 1
        assert f"{flag} must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [("--tau-exp=-0.3:0.01:-0.7",),
                                       ("--gamma", ""), ("--gamma", ",")])
    def test_empty_grid_rejected(self, tmp_path, capsys, extra):
        code, out = self.run_small(tmp_path, "z", extra)
        assert code == 1
        assert "empty grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("emit", ["cvs", "csv,svgs", "", "csv,"])
    def test_unknown_emit_rejected(self, tmp_path, capsys, emit):
        code, out = self.run_small(tmp_path, "z", ("--emit", emit))
        assert code == 1
        assert "--emit takes csv, ratio and svg" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_file_values_applied_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 8\nn = 8\ncentered = true\ngamma = 1.0,0.8\n"
                       "tau-exp = -0.5\ntol = 1e-4\nseeds = 1\n"
                       "record-every = 50\nworkers = 1\n")
        out1 = tmp_path / "o1"
        assert main(["game", "--config", str(cfg), "--out", str(out1)]) == 0
        rows = (out1 / "summary.csv").read_text().splitlines()
        assert len(rows) == 1 + 2  # one seed, two gammas, one tau
        # explicit flag overrides the file value
        out2 = tmp_path / "o2"
        assert main(["game", "--config", str(cfg), "--seeds", "2",
                     "--out", str(out2)]) == 0
        assert len((out2 / "summary.csv").read_text().splitlines()) == 1 + 4

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not-a-flag = 3\n")
        assert main(["game", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("line", ["tol = abc", "seeds = 2.5"])
    def test_malformed_value_exits_one(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["game", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["game", "--config", str(tmp_path / "none.cfg")]) == 1

    def test_required_flags_and_snake_case_keys_from_file(self, tmp_path,
                                                          capsys):
        (tmp_path / "k.txt").write_text("1 0\n0 1\n")
        (tmp_path / "m.txt").write_text("1\n")
        (tmp_path / "s.txt").write_text("2\n2\n")
        cfg = tmp_path / "check.cfg"
        cfg.write_text(f"k = {tmp_path / 'k.txt'}\nm1 = {tmp_path / 'm.txt'}\n"
                       f"m2 = {tmp_path / 'm.txt'}\n"
                       f"sigma_f = {tmp_path / 's.txt'}\n")
        assert main(["check", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        # sigma_f = 2 halves s = ||K||^2 / (1 + 2/2)
        assert "s_hat = 0.5\n" in out and "verdict = pass" in out

    @pytest.mark.parametrize("value, on", [("false", False), ("0", False),
                                           ("yes", True), ("1", True)])
    def test_switch_values(self, tmp_path, value, on):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"m = 4\ncentered = {value}\n")
        args = build_parser().parse_args(
            _apply_config_file(["game", "--config", str(cfg)]))
        assert (args.centered, args.m) == (on, 4)

    def test_every_on_off_flag_is_a_switch(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {opt[2:] for p in sub.choices.values() for a in p._actions
                 if isinstance(a, argparse._StoreTrueAction)
                 for opt in a.option_strings}
        assert flags == set(_SWITCHES)

    def test_bad_flag_exits_one(self):
        assert main(["game", "--no-such-flag"]) == 1
        assert main([]) == 1

    def test_config_without_subcommand_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seeds = 1\n")
        assert main([f"--config={cfg}"]) == 1
        assert "required: command" in capsys.readouterr().err

    def test_non_sweeps_take_only_the_flags_they_read(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: {o for a in p._actions for o in a.option_strings
                        if o.startswith("--")} - {"--help"}
                 for name, p in sub.choices.items()}
        assert flags["check"] == {"--config", "--m1", "--m2", "--k",
                                  "--sigma-f"}
        assert flags["counterexample"] == {"--config", "--out", "--max-iter",
                                           "--kind", "--taus", "--tau",
                                           "--rho3"}
        assert main(["counterexample", "--seeds", "2"]) == 1


class TestCounterexampleCommand:
    def test_bilinear_boundary_report(self, tmp_path, capsys):
        out = tmp_path / "ce"
        code = main(["counterexample", "--kind", "bilinear",
                     "--taus", "4/3", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "oscillates" in text
        rows = (out / "counterexample.csv").read_text().splitlines()
        assert rows[0].startswith("tau_sigma,mu1_re")
        vals = rows[1].split(",")
        assert float(vals[1]) == pytest.approx(-1.0, abs=1e-9)
        assert float(vals[3]) == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert vals[5] == "oscillates"

    def test_quadratic_scan(self, tmp_path, capsys):
        out = tmp_path / "ce2"
        code = main(["counterexample", "--kind", "quadratic", "--tau", "1.0",
                     "--rho3", "0.4,0.5,0.6", "--out", str(out)])
        assert code == 0
        rows = (out / "counterexample.csv").read_text().splitlines()[1:]
        doms = [float(r.split(",")[2]) for r in rows]
        assert doms[0] <= 1.0 + 1e-12
        assert doms[1] == pytest.approx(1.0, abs=1e-10)
        assert doms[2] > 1.0


class TestCheckCommand:
    def test_reports_verdict(self, tmp_path, capsys):
        np.savetxt(tmp_path / "m1.txt", np.full(2, 2.0))
        np.savetxt(tmp_path / "m2.txt", np.full(2, 2.0))
        np.savetxt(tmp_path / "K.txt", np.eye(2))
        code = main(["check", "--m1", str(tmp_path / "m1.txt"),
                     "--m2", str(tmp_path / "m2.txt"),
                     "--k", str(tmp_path / "K.txt")])
        assert code == 0
        text = capsys.readouterr().out
        assert "s_hat = 0.25" in text
        assert "verdict = pass-unit" in text

    def test_reports_an_inconclusive_estimate(self, tmp_path, capsys):
        # singular values 1e-6 apart: the memoized power estimate stops at
        # its cap unconverged, and a scalar pair has no certificate
        np.savetxt(tmp_path / "m.txt", np.ones(1))
        np.savetxt(tmp_path / "K.txt", np.diag([1.0, 1.0 - 1e-6]))
        code = main(["check", "--m1", str(tmp_path / "m.txt"),
                     "--m2", str(tmp_path / "m.txt"),
                     "--k", str(tmp_path / "K.txt")])
        assert code == 0
        text = capsys.readouterr().out
        assert "s_bar = inf\n" in text and "verdict = inconclusive\n" in text
        assert "converged = False\n" in text

    def test_matrix_market_operator(self, tmp_path, capsys):
        import scipy.sparse as sp
        from scipy.io import mmwrite
        rng = np.random.default_rng(0)
        K = sp.random(4, 3, density=0.8, random_state=rng)
        mmwrite(tmp_path / "K.mtx", K)
        np.savetxt(tmp_path / "m1.txt", np.full(3, 1.0))
        np.savetxt(tmp_path / "m2.txt", np.full(4, 1.0))
        code = main(["check", "--m1", str(tmp_path / "m1.txt"),
                     "--m2", str(tmp_path / "m2.txt"),
                     "--k", str(tmp_path / "K.mtx")])
        assert code == 0
        assert "verdict" in capsys.readouterr().out

    def test_reports_the_operator_applications(self, tmp_path, capsys):
        # a non-constant diagonal takes the generalized estimate; its
        # iterations, the applications of K^T M2^{-1} K, follow converged
        K = np.random.default_rng(4).standard_normal((5, 4))
        m1, m2 = np.linspace(1.0, 2.0, 4), np.full(5, 3.0)
        for name, a in (("K", K), ("m1", m1), ("m2", m2)):
            np.savetxt(tmp_path / f"{name}.txt", a)
        code = main(["check", "--m1", str(tmp_path / "m1.txt"),
                     "--m2", str(tmp_path / "m2.txt"),
                     "--k", str(tmp_path / "K.txt")])
        assert code == 0
        rep = metrics.check_condition(metrics.DiagonalMetric(m1), None,
                                      metrics.DiagonalMetric(m2),
                                      operators.DenseOperator(K))
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [f"converged = {rep.converged}",
                              f"iterations = {rep.iterations}"]
        assert rep.converged and 1 <= rep.iterations <= 4


def test_diverging_run_exit_code(tmp_path):
    # EMD with gamma far below the bound and divergence not allowed
    out = tmp_path / "d"
    code = main(["emd", "--size", "4,4", "--method", "sgs", "--gamma", "0.4",
                 "--taus", "0.5", "--theta", "1e-6", "--seeds", "1",
                 "--max-iter", "2000", "--allow-diverge", "--out", str(out),
                 "--record-every", "100"])
    assert code in (0, 2)  # allow-diverge permits any outcome


def test_birkhoff_command_tight_gamma(tmp_path):
    out = tmp_path / "bk"
    code = main(["birkhoff", "--n", "12", "--method", "ebalm",
                 "--gamma", "1.0,tight", "--tau-exp", "0.3:0.15:0.6",
                 "--tol", "1e-8", "--seeds", "1", "--workers", "1",
                 "--record-every", "50", "--out", str(out)])
    assert code == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 3
    assert all(r.split(",")[4] == "converged" for r in rows)


def test_birkhoff_tight_gamma_converges(tmp_path):
    # "tight" is 0.751/(1 + tau/2) for either method; on the bound
    # 0.75/(1 + tau/2) itself these ebalm cells need ~500k iterations
    out = tmp_path / "bk"
    assert main(["birkhoff", "--n", "5", "--tau-exp=0.2:0.1:0.4",
                 "--max-iter", "20000", "--seeds", "1", "--workers", "1",
                 "--record-every", "1000", "--out", str(out)]) == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 3
    assert all(r.split(",")[4] == "converged" for r in rows)


def test_birkhoff_ratio_one_row_per_configured_gamma(tmp_path):
    # "tight" resolves to a different gamma at each tau; summary.csv keeps
    # the resolved values, ratio.csv has one row for the configuration
    out = tmp_path / "bk"
    code = main(["birkhoff", "--n", "5", "--tau-exp=0.2:0.1:0.4",
                 "--max-iter", "300", "--seeds", "1", "--workers", "1",
                 "--out", str(out)])
    assert code == 0
    ratio = (out / "ratio.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in ratio] == ["1", "tight"]
    gammas = {r.split(",")[1] for r in
              (out / "summary.csv").read_text().splitlines()[1:]}
    assert len(gammas) == 1 + 3


def test_birkhoff_empty_gamma_list_rejected(tmp_path, capsys):
    out = tmp_path / "bk"
    assert main(["birkhoff", "--n", "3", "--gamma", "", "--tau-exp", "0.2",
                 "--workers", "1", "--out", str(out)]) == 1
    assert "empty grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["game", "--gamma", "abc"], "--gamma"),
    (["game", "--gamma", "1/0"], "--gamma"),
    (["game", "--tau-exp=abc"], "--tau-exp"),
    (["birkhoff", "--gamma", "abc"], "--gamma"),
    (["emd", "--size", "16"], "--size"),
    (["emd", "--h", "abc"], "--h"),
    (["tvls", "--taus", "x"], "--taus"),
    (["counterexample", "--taus", "abc"], "--taus"),
    (["counterexample", "--tau", "abc"], "--tau"),
    (["counterexample", "--rho3", "abc"], "--rho3"),
    (["game", "--m", "0", "--n", "3"], "--m"),
    (["game", "--n", "-2"], "--n"),
    (["birkhoff", "--n", "0"], "--n"),
    (["tvls", "--density", "2"], "--density"),
    (["tvls", "--density", "0"], "--density"),
    (["tvls", "--density", "nan"], "--density"),
    (["tvls", "--lam", "nan"], "--lam"),
    (["tvls", "--lam", "0"], "--lam"),
    (["tvls", "--lam", "inf"], "--lam"),
])
def test_malformed_value_exits_one_naming_the_flag(tmp_path, capsys, argv,
                                                   flag):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("h", [["--h", "0"], ["--h", "-1"], ["--h", "nan"],
                               ["--h", "inf"], ["--h=-inf"], ["--h", "0/4"]])
def test_a_bad_grid_step_exits_one_naming_h(tmp_path, capsys, h):
    # h = 0 made the divergence zero: each cell ran to --max-iter at
    # residual 1 and the sweep exited 0
    out = tmp_path / "o"
    assert main(["emd"] + h + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "argument --h: grid step must be positive and finite" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("rng, reason", [("-1:1", "range must be a:step:b"),
                                         ("-1:0:1", "range step must be positive")])
def test_bad_log_range_keeps_its_reason(tmp_path, capsys, rng, reason):
    out = tmp_path / "o"
    assert main(["game", f"--tau-exp={rng}", "--out", str(out)]) == 1
    assert f"argument --tau-exp: {reason}" in capsys.readouterr().err
    assert not out.exists()


_NO_STEP = ("configuration error: a one-column grid has no default step "
            "((N - 1)/4 is 0); give --h")


@pytest.mark.parametrize("argv, reason", [
    (["tvls", "--m-rows", "0"], "argument --m-rows: expected a positive integer"),
    (["tvls", "--size", "0,4"], "argument --size: grid dimensions must be positive"),
    (["emd", "--size", "0,4"], "argument --size: grid dimensions must be positive"),
    (["emd", "--size", "1,1"], "argument --size: grid must have at least two nodes"),
    (["emd", "--rho0", "{d}/square.txt", "--rho1", "{d}/row.txt"],
     "configuration error: --rho0 and --rho1 differ in shape"),
    (["tvls", "--size", "1,1"],
     "configuration error: a one-pixel --size has no default row count; "
     "give --m-rows or --r"),
    (["emd", "--size", "5,1"], _NO_STEP),
    (["emd", "--rho0", "{d}/column.npy", "--rho1", "{d}/column.npy"], _NO_STEP),
    (["emd", "--rho0", "{d}/one.txt", "--rho1", "{d}/one.txt", "--h", "1"],
     "configuration error: grid must have at least two nodes"),
])
def test_builder_errors_surface_before_any_cell(tmp_path, capsys, monkeypatch,
                                                argv, reason):
    # each of these was refused by the problem builder, inside a cell, but
    # a one-column emd grid without --h: its default step was 0, and its
    # cells ran to --max-iter
    cells = []
    monkeypatch.setattr(cli, "_solve_cells", lambda *a: cells.append(a))
    (tmp_path / "square.txt").write_text("1 2\n3 4\n")
    (tmp_path / "row.txt").write_text("1 2 3 4\n")
    (tmp_path / "one.txt").write_text("1\n")
    np.save(tmp_path / "column.npy", np.full((5, 1), 0.2))
    out = tmp_path / "o"
    argv = [a.format(d=tmp_path) for a in argv]
    assert main(argv + ["--taus", "0.03", "--workers", "1",
                        "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err
    assert not cells and not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["emd", "--theta", "nan", "--size", "4,4"], "theta = nan"),
    (["emd", "--taus", "nan", "--size", "4,4"], "tau = nan"),
    (["emd", "--gamma", "nan", "--size", "4,4"], "gamma = nan"),
    (["emd", "--gamma", "nan", "--size", "4,4", "--allow-diverge"],
     "gamma = nan"),
    (["emd", "--method", "iebalm", "--theta", "nan", "--size", "4,4"],
     "theta = nan"),
    (["emd", "--method", "iebalm", "--taus", "nan", "--size", "4,4"],
     "tau = nan"),
    (["emd", "--method", "iebalm", "--gamma", "nan", "--size", "4,4"],
     "gamma = nan"),
    (["game", "--test", "5"], "test id 5"),
    (["tvls", "--theta", "nan"], "theta = nan"),
    (["emd", "--theta", "-1"], "theta = -1"),
    (["birkhoff", "--theta", "nan"], "theta = nan"),
    (["tvls", "--bcd-epochs", "0"], "epochs"),
    (["game", "--tol", "nan"], "tol"),
    (["game", "--record-every", "0"], "record_every"),
    (["game", "--gamma", "nan"], "gamma = nan"),
    (["game", "--tau-exp=nan"], "tau_tilde = nan"),
    (["tvls", "--gamma", "nan"], "gamma = nan"),
    # an infinite gamma reached a division by zero
    (["game", "--m", "4", "--n", "4", "--gamma", "inf", "--tau-exp=-0.5"],
     "gamma = inf"),
    (["birkhoff", "--method", "pdhg", "--gamma", "inf"], "gamma = inf"),
    (["birkhoff", "--gamma", "inf"], "gamma = inf"),
])
def test_builder_refusals_come_before_the_pool(tmp_path, capsys, monkeypatch,
                                               argv, named):
    # every cell is built before any solve: a refused value ends the sweep
    # with one line that names it, before a worker pool exists
    monkeypatch.setattr(cli, "ProcessPoolExecutor",
                        lambda *a, **k: pytest.fail("a pool started"))
    out = tmp_path / "o"
    assert main(argv + ["--workers", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("configuration error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--size", "5,1", "--h", "0.25"],
    ["--rho0", "{d}/col0.npy", "--rho1", "{d}/col1.npy", "--h", "0.25"],
    ["--size", "5,1", "--rho0", "{d}/row0.npy", "--rho1", "{d}/row1.npy"],
])
def test_a_one_column_emd_grid_runs_with_a_step(tmp_path, argv):
    # the default step reads the columns of the grid solved: files' over
    # --size's
    rng = np.random.default_rng(4)
    for i in (0, 1):
        col = rng.random((5, 1))
        np.save(tmp_path / f"col{i}.npy", col / col.sum())
        np.save(tmp_path / f"row{i}.npy", (col / col.sum()).T)
    out = tmp_path / "o"
    argv = [a.format(d=tmp_path) for a in argv]
    assert main(["emd"] + argv + ["--taus", "0.1", "--gamma", "1.0",
                                  "--max-iter", "20000", "--workers", "1",
                                  "--out", str(out)]) == 0
    assert "converged" in read(out / "summary.csv").decode()


def test_a_one_node_tvls_grid_is_accepted():
    # the TV least-squares builder solves a one-pixel problem
    assert build_parser().parse_args(["tvls", "--size", "1,1"]).size == (1, 1)


def test_a_one_node_tvls_grid_runs_with_a_row_count(tmp_path):
    assert main(["tvls", "--size", "1,1", "--m-rows", "1", "--density", "1.0",
                 "--taus", "0.03", "--workers", "1", "--emit", "csv",
                 "--out", str(tmp_path / "o")]) == 0


class TestInputFiles:
    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "grid.txt").write_text("1 2\n3 4\n")
        (tmp_path / "k.txt").write_text("1 0\n0 1\n")
        (tmp_path / "m.txt").write_text("1\n")
        return tmp_path

    @pytest.mark.parametrize("argv", [
        ["emd", "--rho0", "{d}/none.txt", "--rho1", "{d}/grid.txt"],
        ["emd", "--rho0", "{d}/grid.txt", "--rho1", "{d}/none.npy"],
        ["tvls", "--r", "{d}/none.mtx"],
        ["check", "--m1", "{d}/none.txt", "--m2", "{d}/m.txt", "--k", "{d}/k.txt"],
        ["check", "--m1", "{d}/m.txt", "--m2", "{d}/none.txt", "--k", "{d}/k.txt"],
        ["check", "--m1", "{d}/m.txt", "--m2", "{d}/m.txt", "--k", "{d}/none.txt"],
        ["check", "--m1", "{d}/m.txt", "--m2", "{d}/m.txt", "--k", "{d}/none.mtx"],
        ["check", "--m1", "{d}/m.txt", "--m2", "{d}/m.txt", "--k", "{d}/k.txt",
         "--sigma-f", "{d}/none.txt"],
    ])
    def test_missing_file_is_a_configuration_error(self, files, capsys, argv):
        argv = [a.format(d=files) for a in argv]
        if argv[0] != "check":
            argv += ["--out", str(files / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read input file")
        assert "none." in err and "Traceback" not in err
        assert not (files / "o").exists()

    @pytest.mark.parametrize("flag, other", [("--rho0", "--rho1"),
                                             ("--rho1", "--rho0")])
    def test_one_grid_file_without_the_other_rejected(self, files, capsys,
                                                      flag, other):
        out = files / "o"
        assert main(["emd", flag, str(files / "grid.txt"), "--out",
                     str(out)]) == 1
        assert "configuration error: --rho0 and --rho1 must be given " \
               "together" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, text", [("--m1", "1 1 1\n"),
                                            ("--sigma-f", "2\n2\n2\n")])
    def test_check_dimension_mismatch_rejected(self, files, capsys, flag,
                                               text):
        (files / "bad.txt").write_text(text)
        argv = {"--m1": str(files / "m.txt"), "--m2": str(files / "m.txt"),
                "--k": str(files / "k.txt"), flag: str(files / "bad.txt")}
        assert main(["check"] + [v for kv in argv.items() for v in kv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["nan\n1\n", "inf\n1\n", "-1\n1\n"])
    def test_check_sigma_f_must_be_nonnegative_and_finite(self, files, capsys,
                                                          text):
        (files / "s.txt").write_text(text)
        assert main(["check", "--m1", str(files / "m.txt"), "--m2",
                     str(files / "m.txt"), "--k", str(files / "k.txt"),
                     "--sigma-f", str(files / "s.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: sigma must be")
        assert "Traceback" not in err


def _summary_at_workers(argv, out):
    """summary.csv and ratio.csv bytes of ``argv`` at one, two and three
    workers, and every run_*.csv but its elapsed_s column; every cell must
    have converged."""
    sums = []
    for w in ("1", "2", "3"):
        assert main(argv + ["--workers", w, "--out", str(out / w)]) == 0
        runs = sorted(p for p in os.listdir(out / w) if p.startswith("run_"))
        sums.append((read(out / w / "summary.csv"),
                     read(out / w / "ratio.csv"),
                     {run: [r.rsplit(",", 1)[0] for r in
                            (out / w / run).read_text().splitlines()]
                      for run in runs}))
        rows = sums[-1][0].decode().splitlines()[1:]
        assert rows and all(r.split(",")[4] == "converged" for r in rows)
        assert len(runs) == len(rows)
    assert sums[0] == sums[1] == sums[2]
    return out / "1"


@pytest.mark.parametrize("method", ["ebalm", "pdhg"])
def test_birkhoff_sweep_at_workers(tmp_path, method):
    _summary_at_workers(["birkhoff", "--n", "5", "--method", method,
                         "--tau-exp=0.2:0.1:0.4", "--max-iter", "20000",
                         "--seeds", "2", "--record-every", "1000"], tmp_path)


def test_emd_sweep_on_grid_files(tmp_path):
    rng = np.random.default_rng(3)
    rho0, rho1 = rng.random((4, 4)), rng.random((4, 4))
    np.savetxt(tmp_path / "rho0.txt", rho0)
    np.save(tmp_path / "rho1.npy", rho1 * rho0.sum() / rho1.sum())
    _summary_at_workers(["emd", "--size", "4,4", "--rho0",
                         str(tmp_path / "rho0.txt"), "--rho1",
                         str(tmp_path / "rho1.npy"), "--gamma", "1.0,0.8",
                         "--taus", "0.1,0.3", "--seeds", "2"], tmp_path)


def test_tvls_sweep_on_a_matrix_market_system(tmp_path, capsys):
    import scipy.sparse as sp
    from scipy.io import mmwrite
    R = sp.random(8, 16, density=0.3, format="csr",
                  random_state=np.random.default_rng(5))
    mmwrite(tmp_path / "R.mtx", R)
    out = _summary_at_workers(["tvls", "--size", "4,4", "--r",
                               str(tmp_path / "R.mtx"), "--gamma", "1.0,0.75",
                               "--taus", "0.03", "--seeds", "2"], tmp_path)
    # a system of other than one column per pixel is refused, not solved
    assert main(["tvls", "--size", "3,3", "--r", str(tmp_path / "R.mtx"),
                 "--taus", "0.03", "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == ("configuration error: --r has 16 "
                                       "columns, but --size has 9 pixels\n")
    assert not (tmp_path / "bad").exists()
    # a problem without a duality gap writes no gap column
    run = next(p for p in os.listdir(out) if p.endswith(".csv")
               and p.startswith("run_"))
    assert (out / run).read_text().splitlines()[0] == \
        "k,rhat_full,rhat_half,elapsed_s"


def test_a_tvls_sweep_estimates_the_norm_of_r_once_per_seed(tmp_path,
                                                            monkeypatch):
    # a seed's cells share R and b, and every cell reads the estimate of
    # ||R||^2 memoized on R
    runs = []
    power = operators._power_iteration
    monkeypatch.setattr(operators, "_power_iteration",
                        lambda *a: runs.append(a[0]) or power(*a))
    assert main(["tvls", "--size", "4,4", "--gamma", "1.0,0.75",
                 "--taus", "0.01,0.03", "--seeds", "2", "--workers", "1",
                 "--max-iter", "50", "--emit", "csv",
                 "--out", str(tmp_path / "o")]) == 0
    assert len(runs) == 2 and runs[0] is not runs[1]
    assert all((op.rows, op.cols) == (8, 16) for op in runs)
