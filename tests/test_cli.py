import csv
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from proxflow.cli import main

from test_snapshot import check_seeded, common

ROOT = Path(__file__).resolve().parents[1]


class TestTables:
    def test_ppm_only_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["tables", "--only", "ppm", "--out", str(out1)]) == 0
        assert main(["tables", "--only", "ppm", "--out", str(out2)]) == 0
        assert (out1 / "table2.csv").read_bytes() == (out2 / "table2.csv").read_bytes()
        assert (out1 / "table3.csv").read_bytes() == (out2 / "table3.csv").read_bytes()

    def test_run_json_names_the_one_kernel(self, tmp_path):
        assert main(["tables", "--only", "ppm", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "run.json").read_text())["kernel_backend"] == "fallback"

    def test_ppm_row_counts(self, tmp_path):
        out = tmp_path / "t"
        assert main(["tables", "--only", "ppm", "--out", str(out)]) == 0
        table2 = (out / "table2.csv").read_text().splitlines()
        table3 = (out / "table3.csv").read_text().splitlines()
        assert len(table2) == 1 + 4  # (beta in {1,10}) x (L in {2,10})
        assert len(table3) == 1 + 8  # (m in {4,20}) x (beta in {1,10}) x L
        assert all(line.endswith(",1") for line in table2[1:])

    def test_default_run_full_row_counts(self, tmp_path, capsys):
        out = tmp_path / "full"
        assert main(["tables", "--out", str(out), "--jobs", "4"]) == 0
        # 16 cells miss the paper's value and pass only through the oracle
        assert capsys.readouterr().out == (
            "table2: 12 rows, 11 reproduced, 1 oracle_escaped, "
            "table3: 24 rows, 9 reproduced, 15 oracle_escaped, failures: 0\n"
        )
        meta = json.loads((out / "run.json").read_text())
        assert [meta[f"{k}_{t}"] for t in ("table2", "table3") for k in
                ("rows", "reproduced", "oracle_escaped")] == [12, 11, 1, 24, 9, 15]
        table2 = (out / "table2.csv").read_text().splitlines()
        table3 = (out / "table3.csv").read_text().splitlines()
        assert len(table2) == 1 + 12
        assert len(table3) == 1 + 24
        # every row passes outright or carries a logged oracle discrepancy
        assert all(line.endswith(",1") for line in table2[1:] + table3[1:])
        # every computed value matches the benchmark snapshot (read only)
        snapshot = common.load_snapshot()["tables"]
        for name in ("table2", "table3"):
            with open(out / f"{name}.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == len(snapshot[name])
            for row, want in zip(rows, snapshot[name]):
                for key in ("computed_alpha", "computed_rho"):
                    if key in want:
                        assert float(row[key]) == pytest.approx(float(want[key]), abs=1e-9)

    @pytest.mark.parametrize("only, cells", [(None, 24), ("ppm", 8)], ids=["all", "ppm"])
    def test_each_bound_is_computed_once(self, tmp_path, monkeypatch, only, cells):
        # table 2 is read off table 3's m = 4 cells, so each table-3 cell
        # asks for its bound once and no cell is computed twice
        from proxflow import spectral

        calls = []
        bound = spectral.max_stable_alpha

        def counting(*args):
            calls.append(args)
            return bound(*args)

        # every module that binds the function counts, as in perfbench's tracer
        for name, module in list(sys.modules.items()):
            if name.startswith("proxflow") and vars(module).get("max_stable_alpha") is bound:
                monkeypatch.setattr(module, "max_stable_alpha", counting)
        argv = ["tables", "--jobs", "1", "--out", str(tmp_path / "t")]
        assert main(argv + (["--only", only] if only else [])) == 0
        assert len(calls) == cells

    def test_tolerance_failure_exits_4_with_outputs(self, tmp_path, monkeypatch):
        import proxflow.cli as cli

        # single-step rows carry no oracle escape: a wrong reference
        # value must surface as exit code 4 (rows still written)
        monkeypatch.setitem(
            cli.TABLE2_REFERENCE, ("ppm", 1.0), {2.0: 0.9, 10.0: 0.9}
        )
        out = tmp_path / "bad"
        assert main(["tables", "--only", "ppm", "--out", str(out)]) == 4
        assert (out / "table2.csv").exists()


class TestRun:
    def test_l1_trace_cardinality(self, tmp_path):
        out = tmp_path / "l1"
        code = main(
            [
                "run", "l1", "--tau", "1,2,3", "--seed", "7", "--iters", "60",
                "--p", "20", "--q", "40", "--out", str(out),
            ]
        )
        assert code == 0
        text = (out / "l1_traces.csv").read_text().splitlines()
        taus = {line.split(",")[2] for line in text[1:]}
        assert taus == {"1", "2", "3"}
        ET.parse(out / "l1.svg")
        meta = json.loads((out / "run.json").read_text())
        assert meta["config"]["seed"] == 7

    def test_explicit_zero_dimension_is_rejected(self, tmp_path):
        # an explicit 0 reaches the generator instead of the default 50
        assert main(["run", "l1", "--p", "0", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "l1", "--iters", "-2", "--p", "10", "--q", "20"], ">= 0, got -2"),
            (["run", "altproj", "--iters", "-2", "--n", "16", "--d", "4"], ">= 0, got -2"),
            (["run", "matfac", "--iters", "-2", "--n", "20"], ">= 0, got -2"),
            (["accel", "--iters", "0"], ">= 1 to fit a rate, got 0"),
        ],
        ids=["l1", "altproj", "matfac", "accel"],
    )
    def test_bad_iteration_count_exits_2_and_writes_nothing(
        self, tmp_path, capsys, argv, message
    ):
        out = tmp_path / "o"
        assert main([*argv, "--jobs", "1", "--out", str(out)]) == 2
        assert f"iterations must be {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_tau_list_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "altproj", "--tau", "", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, resolved",
        [
            (
                ["l1", "--p", "10", "--q", "20", "--iters", "10"],
                {"lam": 0.01, "beta": 1.0, "m": 4, "tau": [1, 2, 3],
                 "spectrum": "uniform"},
            ),
            (
                ["lsp", "--p", "10", "--q", "20", "--iters", "10"],
                {"theta": 5.0, "beta": 1.0, "m": 4, "tau": [1, 2, 3]},
            ),
            (
                ["altproj", "--iters", "10", "--n", "16", "--d", "4"],
                {"sigma": 0.5, "tau": [1, 2, 3]},
            ),
            (
                ["matfac", "--iters", "10", "--n", "20"],
                {"alpha": 0.1, "rank": 10, "tau": [1, 2, 3]},
            ),
        ],
        ids=["l1", "lsp", "altproj", "matfac"],
    )
    def test_run_json_echoes_resolved_defaults(self, tmp_path, argv, resolved):
        out = tmp_path / "o"
        assert main(["run", *argv, "--out", str(out)]) in (0, 3)
        config = json.loads((out / "run.json").read_text())["config"]
        assert {k: config.get(k) for k in resolved} == resolved
        # the inner step size is computed from the problem, so not echoed
        assert argv[0] == "matfac" or "alpha" not in config

    def test_invalid_experiment_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "bogus", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_divergent_inner_step_exit_code_with_outputs(self, tmp_path):
        out = tmp_path / "div"
        code = main(
            [
                "run", "l1", "--tau", "1", "--iters", "40", "--alpha", "1e8",
                "--p", "10", "--q", "20", "--out", str(out),
            ]
        )
        assert code == 3
        assert (out / "l1_traces.csv").exists()

    def test_matfac_runs(self, tmp_path):
        out = tmp_path / "mf"
        code = main(
            [
                "run", "matfac", "--tau", "1,4", "--iters", "25", "--n", "30",
                "--rank", "3", "--out", str(out),
            ]
        )
        assert code in (0, 3)
        assert (out / "matfac_traces.csv").exists()

    def test_run_json_reports_fixed_at_per_tau(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "altproj", "--iters", "5", "--n", "20", "--d", "4",
                     "--out", str(out)]) == 0
        # no altproj window repeats itself
        assert json.loads((out / "run.json").read_text())["fixed_at"] == {
            "1": None, "2": None, "3": None
        }

    def test_run_json_counts_nonpositive_gaps_per_tau(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "l1", "--p", "20", "--q", "40", "--seed", "5", "--iters",
                     "400", "--out", str(out)]) == 0
        counts = json.loads((out / "run.json").read_text())["nonpositive_gaps"]
        gaps = _trace_rows(out / "l1_traces.csv", "objective_gap")
        assert counts == {
            str(tau): sum(value <= 0 for _, value, _ in rows) for tau, rows in gaps.items()
        }
        # the runs of taus 2 and 3 reach objectives at or below the
        # reference run's F*, and the log-scale plot leaves those points out
        assert counts == {"1": 0, "2": 35, "3": 96}

    def test_lsp_stationary_start_plots_on_linear_axis(self, tmp_path):
        # seed 1: x0 = 0 is already stationary, so every epsilon_beta is 0
        out = tmp_path / "lsp"
        code = main(["run", "lsp", "--seed", "1", "--iters", "50", "--out", str(out)])
        assert code == 0
        ET.parse(out / "lsp.svg")
        assert (out / "run.json").exists()

    @pytest.mark.parametrize("seed, stationary", [(1, True), (0, False)])
    def test_run_json_says_whether_the_lsp_start_is_stationary(self, tmp_path, seed, stationary):
        # at the defaults, x0 = 0 is stationary on seed 1 and not on seed 0
        out = tmp_path / "lsp"
        assert main(["run", "lsp", "--seed", str(seed), "--iters", "50", "--jobs", "1",
                     "--out", str(out)]) == 0
        starts = {tau: rows[0] for tau, rows in
                  _trace_rows(out / "lsp_traces.csv", "epsilon_beta").items()}
        assert {tau: (k, value == 0.0) for tau, (k, value, _) in starts.items()} == {
            tau: (0, stationary) for tau in (1, 2, 3)
        }
        assert json.loads((out / "run.json").read_text())["start_stationary"] == {
            "1": stationary, "2": stationary, "3": stationary
        }

    def test_lsp_tol_met_at_the_start_takes_no_step(self, tmp_path):
        # seed 3: x0 = 0 is stationary, so each tau stops at k = 0
        out = tmp_path / "lsp"
        assert main(["run", "lsp", "--tol", "1e-8", "--seed", "3", "--out", str(out)]) == 0
        eps = _trace_rows(out / "lsp_traces.csv", "epsilon_beta")
        assert eps == {tau: [(0, 0.0, 0)] for tau in (1, 2, 3)}
        objective = _trace_rows(out / "lsp_traces.csv", "objective")
        assert [[k for k, _, _ in rows] for rows in objective.values()] == [[0]] * 3

    def test_altproj_sigma_flag(self, tmp_path):
        out = tmp_path / "ap"
        code = main(
            [
                "run", "altproj", "--sigma", "0.4", "--tau", "1,2", "--iters",
                "40", "--n", "40", "--d", "8", "--out", str(out),
            ]
        )
        assert code == 0
        ET.parse(out / "altproj.svg")


class TestConfigPrecedence:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iters": 15, "seed": 9, "n": 24, "d": 6}))
        out = tmp_path / "o"
        code = main(
            [
                "run", "altproj", "--config", str(cfg), "--seed", "3",
                "--tau", "1", "--out", str(out),
            ]
        )
        assert code == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["config"]["iters"] == 15  # from config
        assert meta["config"]["seed"] == 3  # flag wins

    @pytest.mark.parametrize(
        "config",
        [{"iter": 5}, {"iters": "10x"}, {"iters": 2.5}, {"tau": ""}, {"spectrum": "bogus"}],
        ids=["unknown-key", "bad-int", "float-for-int", "empty-list", "bad-choice"],
    )
    def test_config_errors_are_usage_errors(self, tmp_path, config):
        # a key that names no option, or a value its option's flag would
        # reject, exits 2 before anything runs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main(["run", "altproj", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [None, "{bad"], ids=["missing", "not-json"])
    def test_unreadable_config_file_is_usage_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["accel", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"config file {cfg}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["figure1", "--m-list", "4", "--l-list", "2", "--beta-points", "3"],
             "--tau", "1,1"),
            (["figure1", "--l-list", "2", "--beta-points", "3"], "--m-list", "4,1,4"),
            (["figure1", "--m-list", "4", "--beta-points", "3"], "--l-list", "2,2.0"),
            (["run", "altproj"], "--tau", "2,2"),
        ],
        ids=["figure1-tau", "m-list", "l-list", "run-tau"],
    )
    def test_repeated_list_value_is_usage_error(
        self, tmp_path, capsys, argv, flag, value, source
    ):
        # a repeated value would compute and write the same curve or run twice
        if source == "flag":
            argv = [*argv, flag, value]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:]: value}))
            argv = [*argv, "--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"argument {flag}: repeated value" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv, flag, prefix",
        [
            (["run", "l1"], "--beta", ""),
            (["figure1"], "--alpha", ""),
            (["run", "l1"], "--alpha", ""),
            (["figure1"], "--beta-min", ""),
            (["figure1"], "--beta-max", ""),
            (["run", "l1"], "--lambda", ""),
            (["run", "lsp"], "--theta", ""),
            (["run", "altproj"], "--sigma", ""),
            (["accel"], "--rho", ""),
            (["run", "l1"], "--tol", ""),
            (["figure1"], "--l-list", "2,"),
            (["accel"], "--angles", "0.5,"),
        ],
    )
    def test_non_finite_float_is_usage_error(
        self, tmp_path, capsys, argv, flag, prefix, value, source
    ):
        # a NaN or inf would reach the computation (figure1 --l-list nan
        # would write CSV rows with radius inf before failing), so every
        # float option rejects it before anything is written
        if source == "flag":
            # --flag=-inf: a separate "-inf" would be taken for a flag
            argv = [*argv, f"{flag}={prefix}{value}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:]: prefix + value}))
            argv = [*argv, "--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_keys_by_dest_or_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"lambda": 0.02, "tau": "1,2", "iters": 5, "p": 10, "q": 20})
        )
        out = tmp_path / "o"
        assert main(["run", "l1", "--config", str(cfg), "--out", str(out)]) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert (config["lam"], config["tau"], config["iters"]) == (0.02, [1, 2], 5)

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PROXFLOW_SEED", "41")
        out = tmp_path / "env"
        main(["run", "altproj", "--tau", "1", "--iters", "5", "--n", "16",
              "--d", "4", "--out", str(out)])
        meta = json.loads((out / "run.json").read_text())
        assert meta["config"]["seed"] == 41

    def test_env_seed_not_an_integer_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # a negative seed fails here too, not in numpy's seed check
        for seed in ("abc", "-5"):
            monkeypatch.setenv("PROXFLOW_SEED", seed)
            with pytest.raises(SystemExit) as exc:
                main(["accel", "--out", str(tmp_path / "o")])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"PROXFLOW_SEED must be a non-negative integer, got {seed!r}" in err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv, flag, value, message",
        [
            (["accel"], "--seed", "-5", "must be at least 0, got -5"),
            (["run", "l1"], "--seed", "-5", "must be at least 0, got -5"),
            (["figure1"], "--beta-min", "0", "must be > 0"),
            (["figure1"], "--beta-min", "-1", "must be > 0"),
            (["figure1"], "--beta-max", "-0.0", "must be > 0"),
        ],
        ids=["accel-seed", "run-seed", "beta-min-0", "beta-min-negative", "beta-max"],
    )
    def test_out_of_range_value_names_its_flag(
        self, tmp_path, capsys, argv, flag, value, message, source
    ):
        # numpy would reject these later without naming the option, after a
        # RuntimeWarning from geomspace for a negative beta bound
        if source == "flag":
            argv = [*argv, f"{flag}={value}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:]: value}))
            argv = [*argv, "--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}" in err
        assert "Warning" not in err
        assert not (tmp_path / "o").exists()


COMMON_FLAGS = {"--out", "--jobs", "--config", "--seed"}
RUN_FLAGS = COMMON_FLAGS | {
    "--tau", "--beta", "--m", "--alpha", "--lambda", "--theta", "--sigma", "--rank",
    "--iters", "--tol", "--p", "--q", "--n", "--d", "--spectrum",
}
# argv and the exact set of flags, per command and per run experiment
OPTION_SURFACES = {
    "tables": (["tables"], COMMON_FLAGS | {"--only"}),
    "figure1": (["figure1"], COMMON_FLAGS | {
        "--tau", "--m-list", "--l-list", "--alpha", "--beta-min", "--beta-max", "--beta-points",
    }),
    **{f"run_{e}": (["run", e], RUN_FLAGS) for e in ("l1", "lsp", "altproj", "matfac")},
    "accel": (["accel"], COMMON_FLAGS | {"--rho", "--angles", "--iters"}),
}


def _config_keys(flags):
    """A config key is an option's flag name or its dest."""
    names = {flag[2:] for flag in flags}
    return names | {name.replace("-", "_") for name in names} | (
        {"lam"} if "lambda" in names else set()
    )


class TestOptionSurface:
    @pytest.mark.parametrize("name", sorted(OPTION_SURFACES))
    def test_exact_flags_and_config_keys(self, name, tmp_path, monkeypatch, capsys):
        import proxflow.cli as cli

        argv, flags = OPTION_SURFACES[name]
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
        assert listed == flags | {"--help"}

        # every key of the command is accepted (null leaves it unset); the
        # command itself is replaced, since only the options are under test
        seen = []
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", seen.append)
        cfg = tmp_path / "cfg.json"
        keys = _config_keys(flags)
        cfg.write_text(json.dumps(dict.fromkeys(keys)))
        main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert len(seen) == 1

        # an unknown key or flag, or one of another command, exits 2, also
        # where it is a prefix of the command's own flag (--m of --m-list)
        others = set().union(*(f for _, f in OPTION_SURFACES.values())) - flags
        for key in ["bogus", *sorted(_config_keys(others) - keys)]:
            cfg.write_text(json.dumps({key: None}))
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--config", str(cfg)])
            assert exc.value.code == 2
        for flag in ["--bogus", *sorted(others)]:
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, "1"])
            assert exc.value.code == 2
        assert len(seen) == 1

    @pytest.mark.parametrize(
        "argv",
        [["figure1", "--m", "4"], ["run", "l1", "--lam", "0.1"], ["tables", "--jo", "1"]],
        ids=["figure1-m", "run-lam", "tables-jo"],
    )
    def test_abbreviated_flag_is_usage_error(self, tmp_path, monkeypatch, argv):
        import proxflow.cli as cli

        seen = []
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", seen.append)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert seen == []


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-3", "x"])
    @pytest.mark.parametrize("command", ["tables", "figure1", "accel"])
    def test_jobs_not_a_positive_int_is_usage_error(self, tmp_path, capsys, command, jobs):
        with pytest.raises(SystemExit) as exc:
            main([command, "--jobs", jobs, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": jobs}))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("points", [0, -1])
    def test_beta_points_not_a_positive_int_is_usage_error(self, tmp_path, capsys, points):
        with pytest.raises(SystemExit) as exc:
            main(["figure1", "--beta-points", str(points), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--beta-points" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta_points": points}))
        with pytest.raises(SystemExit) as exc:
            main(["figure1", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--beta-points" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_default_jobs_per_command(self, monkeypatch):
        import proxflow.cli as cli

        seen = []
        for command in ("tables", "figure1", "run", "accel"):
            monkeypatch.setattr(cli, f"cmd_{command}", seen.append)
        for argv in (["tables"], ["figure1"], ["run", "l1"], ["accel"]):
            main(argv)
        assert [args.jobs for args in seen] == [cli.CPUS, cli.CPUS, cli.CPUS, 1]
        assert cli.CPUS == len(os.sched_getaffinity(0))

    def test_tables_identical_at_one_and_two_jobs(self, tmp_path):
        outs = {jobs: tmp_path / f"j{jobs}" for jobs in (1, 2)}
        for jobs, out in outs.items():
            assert main(["tables", "--only", "ppm", "--jobs", str(jobs), "--out", str(out)]) == 0
            assert json.loads((out / "run.json").read_text())["workers"] == jobs
        for name in ("table2.csv", "table3.csv"):
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes()

    def test_figure1_identical_at_one_and_two_jobs(self, tmp_path):
        outs = {jobs: tmp_path / f"j{jobs}" for jobs in (1, 2)}
        for jobs, out in outs.items():
            assert main(["figure1", "--jobs", str(jobs), "--out", str(out)]) == 0
            assert json.loads((out / "run.json").read_text())["workers"] == jobs
        names = sorted(p.name for p in outs[1].glob("figure1_*"))
        assert len(names) == 12
        assert sorted(p.name for p in outs[2].glob("figure1_*")) == names
        for name in names:
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes()

    def test_no_more_workers_than_work_units(self, tmp_path):
        # two panels of two taus each are two work units, one per panel
        out = tmp_path / "o"
        assert main(["figure1", "--tau", "1,2", "--m-list", "1,4", "--l-list", "2",
                     "--beta-points", "3", "--jobs", "3", "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["workers"] == 2

    def test_worker_exception_reraised_in_item_order(self):
        from proxflow.cli import _parallel
        from proxflow.multistep import DivergenceError

        def square(i):
            if i >= 2:
                raise DivergenceError(f"item {i}")
            return i * i

        assert _parallel(square, [0, 1], 2) == ([0, 1], 2)
        assert _parallel(square, [1], 3) == ([1], 1)
        with pytest.raises(DivergenceError, match=r"^item 2$"):
            _parallel(square, list(range(5)), 2)

    def test_workers_exit_with_the_command(self, tmp_path):
        # in a fresh interpreter, which has no other child processes; the
        # failing figure1 raises in the workers, the failing tables exits 4
        code = (
            "import contextlib, io, json, os, sys\n"
            "import proxflow.cli as cli\n"
            "def run(argv):\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main([*argv, '--out', sys.argv[1]])\n"
            "    return [code, err.getvalue(), 'multiprocessing' in sys.modules]\n"
            "bad_alpha = ['figure1', '--alpha', '-1', '--beta-points', '3', '--jobs']\n"
            "runs = [run([*bad_alpha, '1']), run([*bad_alpha, '2'])]\n"
            "runs.append(run(['figure1', '--beta-points', '3', '--jobs', '2']))\n"
            "cli.TABLE2_REFERENCE[('ppm', 1.0)] = {2.0: 0.9, 10.0: 0.9}\n"
            "runs.append(run(['tables', '--only', 'ppm', '--jobs', '2'])[:1])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    runs.append('child process left')\n"
            "except ChildProcessError:\n"
            "    pass\n"
            "print(json.dumps(runs))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "o")],
            env=env, check=True, capture_output=True, text=True, timeout=600,
        )
        runs = json.loads(proc.stdout)
        assert "child process left" not in runs
        serial, pooled, ok, failed = runs
        # --jobs 1 creates no pool; --jobs 2 re-raises the workers' error
        assert serial == [2, "error: alpha and beta must be > 0\n", False]
        assert pooled == [2, serial[1], True]
        assert ok == [0, "", True]
        assert failed == [4]


# small instances of each experiment, with no diverged or stopped tau
RUN_SMALL = {
    "l1": ["--p", "20", "--q", "40", "--iters", "300"],
    "lsp": ["--p", "10", "--q", "25", "--iters", "200"],
    "altproj": ["--n", "40", "--d", "10", "--iters", "60"],
    "matfac": ["--n", "20", "--rank", "4", "--iters", "60"],
}


def _run_outputs(out, experiment):
    """run.json without workers and jobs, the walltime-free trace digest
    and the SVG bytes."""
    meta = json.loads((out / "run.json").read_text())
    meta.pop("workers")
    meta["config"].pop("jobs")
    return meta, common.trace_digest(out / f"{experiment}_traces.csv"), (
        out / f"{experiment}.svg"
    ).read_bytes()


def _trace_rows(path, metric):
    """{tau: [(k, value, diverged flag)]} of one metric of a trace CSV."""
    rows = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["metric_name"] == metric:
                rows.setdefault(int(row["tau"]), []).append(
                    (int(row["k"]), float(row["metric_value"]), int(row["diverged"]))
                )
    return rows


class TestRunJobs:
    """``run`` computes its taus (and F* of l1) on the fork pool."""

    @pytest.mark.parametrize("experiment", sorted(RUN_SMALL))
    def test_identical_at_one_and_two_jobs(self, tmp_path, experiment):
        # the same --out, so run.json's config differs only in jobs
        out, seen = tmp_path / "o", {}
        for jobs in (1, 2):
            argv = ["run", experiment, *RUN_SMALL[experiment], "--jobs", str(jobs)]
            assert main([*argv, "--out", str(out)]) == 0
            assert json.loads((out / "run.json").read_text())["workers"] == jobs
            seen[jobs] = _run_outputs(out, experiment)
        assert seen[1] == seen[2]

    @pytest.mark.parametrize(
        "argv, jobs, workers",
        [
            (["l1", "--tau", "1"], 3, 2),  # the reference run and one tau
            (["l1", "--tau", "1", "--tol", "1e-3"], 2, 1),  # F* first, then one tau
            (["lsp", "--tau", "1,2,3"], 2, 2),
            (["altproj", "--tau", "1,2,3"], 4, 3),
            (["matfac", "--tau", "2"], 4, 1),
        ],
        ids=["l1", "l1-tol", "lsp", "altproj", "matfac"],
    )
    def test_workers_are_jobs_capped_by_units(self, tmp_path, argv, jobs, workers):
        out = tmp_path / "o"
        small = RUN_SMALL[argv[0]]
        assert main(["run", *argv, *small, "--jobs", str(jobs), "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["workers"] == workers

    def test_l1_tol_stops_each_tau_on_the_gap_to_f_star(self, tmp_path):
        from proxflow.experiments import gen_sensing, reference_optimum

        f_star = reference_optimum(gen_sensing(20, 40, "uniform", 0), 0.01, 1.0)
        out, seen = tmp_path / "o", {}
        for jobs in (1, 2):
            argv = ["run", "l1", "--p", "20", "--q", "40", "--tol", "1e-6", "--jobs", str(jobs)]
            assert main([*argv, "--out", str(out)]) == 0
            assert json.loads((out / "run.json").read_text())["f_star"] == f_star
            gaps = _trace_rows(out / "l1_traces.csv", "objective_gap")
            assert sorted(gaps) == [1, 2, 3]
            for rows in gaps.values():
                # the run stops at the first gap at or below the tolerance
                assert rows[-1][0] < 2000 and rows[-1][1] <= 1e-6
                assert all(value > 1e-6 for _, value, _ in rows[:-1])
            seen[jobs] = _run_outputs(out, "l1")
        assert seen[1] == seen[2]

    def test_diverged_taus_exit_3_with_partial_traces(self, tmp_path):
        out, seen = tmp_path / "o", {}
        for jobs in (1, 2):
            argv = ["run", "l1", "--tau", "1,2", "--iters", "40", "--alpha", "1e8",
                    "--p", "10", "--q", "20", "--jobs", str(jobs)]
            assert main([*argv, "--out", str(out)]) == 3
            gaps = _trace_rows(out / "l1_traces.csv", "objective_gap")
            for rows in gaps.values():
                assert rows[-1][0] < 40 and rows[-1][2] == 1
            assert sorted(gaps) == [1, 2]
            seen[jobs] = _run_outputs(out, "l1")
        assert seen[1] == seen[2]

    def test_workers_exit_with_the_command(self, tmp_path):
        # in a fresh interpreter, which has no other child processes: exit
        # 0, a usage error raised by the reference unit (2) and divergence (3)
        code = (
            "import contextlib, io, json, os, sys\n"
            "import proxflow.cli as cli\n"
            "def run(argv):\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):\n"
            "        argv = ['run', 'l1', '--p', '10', '--q', '20', '--iters', '40', *argv]\n"
            "        code = cli.main([*argv, '--jobs', '2', '--out', sys.argv[1]])\n"
            "    return [code, err.getvalue()]\n"
            "runs = [run([]), run(['--beta', '-1']), run(['--alpha', '1e8'])]\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    runs.append('child process left')\n"
            "except ChildProcessError:\n"
            "    pass\n"
            "print(json.dumps(runs))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "o")],
            env=env, check=True, capture_output=True, text=True, timeout=600,
        )
        assert json.loads(proc.stdout) == [
            [0, ""], [2, "error: beta must be > 0, got -1.0\n"], [3, ""]
        ]

    def test_killed_worker_raises_instead_of_hanging(self, tmp_path):
        # a unit that kills its own worker, as an OOM kill would, breaks the
        # pool: _parallel and the command raise, and no worker is left
        code = (
            "import json, os, signal, sys\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "import proxflow.cli as cli\n"
            "import proxflow.experiments as experiments\n"
            "def unit(i):\n"
            "    if i == 1:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return i\n"
            "def raised(call):\n"
            "    try:\n"
            "        call()\n"
            "    except BrokenProcessPool:\n"
            "        return True\n"
            "    return False\n"
            "runs = [raised(lambda: cli._parallel(unit, [0, 1, 2, 3], 2))]\n"
            "experiments.altproj_trace = lambda pair, xi, iterations: unit(len(xi))\n"
            "argv = ['run', 'altproj', '--n', '16', '--d', '4', '--jobs', '2']\n"
            "runs.append(raised(lambda: cli.main([*argv, '--out', sys.argv[1]])))\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    runs.append('child process left')\n"
            "except ChildProcessError:\n"
            "    pass\n"
            "print(json.dumps(runs))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "o")],
            env=env, check=True, capture_output=True, text=True, timeout=120,
        )
        assert json.loads(proc.stdout) == [True, True]


class TestAccel:
    def test_rho_quarter(self, tmp_path, capsys):
        out = tmp_path / "acc"
        assert main(["accel", "--rho", "0.25", "--iters", "150", "--out", str(out)]) == 0
        text = (out / "accel.csv").read_text().splitlines()
        assert len(text) == 3
        captured = capsys.readouterr().out
        assert "tuned-2step" in captured
        ET.parse(out / "accel.svg")

    def test_bad_rho_is_usage_error(self, tmp_path):
        assert main(["accel", "--rho", "1.5", "--out", str(tmp_path)]) == 2

    def test_angles_may_repeat(self, tmp_path):
        # principal angles can repeat, as in the pair --rho builds
        out = tmp_path / "acc"
        assert main(["accel", "--angles", "0.5,0.5,0.5", "--iters", "40",
                     "--out", str(out)]) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert config["angles"] == [0.5, 0.5, 0.5]


class TestFigure1:
    def test_panel_outputs(self, tmp_path):
        out = tmp_path / "fig"
        code = main(
            [
                "figure1", "--tau", "1,2", "--m-list", "4", "--l-list", "2",
                "--beta-points", "6", "--out", str(out), "--jobs", "2",
            ]
        )
        assert code == 0
        assert (out / "figure1_L2_m4.csv").exists()
        ET.parse(out / "figure1_L2_m4.svg")

    def test_unplottable_panel_writes_no_file(self, tmp_path, capsys):
        # at alpha = 1e308 every radius is inf, so the panel has no point
        out = tmp_path / "fig"
        code = main(
            [
                "figure1", "--alpha", "1e308", "--tau", "3", "--m-list", "4", "--l-list",
                "2", "--beta-points", "3", "--out", str(out),
            ]
        )
        assert code == 2
        assert "metric 'radius' has no plottable points" in capsys.readouterr().err
        assert list(tmp_path.glob("**/figure1_*")) == []


@pytest.mark.parametrize("name", sorted(common.SEEDED))
def test_seed0_trace_bit_identical_to_snapshot(name, tmp_path):
    # the snapshot was recorded at the default --jobs; one process computes
    # every tau in turn and must give the same bits
    check_seeded(name, 0, 1, tmp_path, "--jobs", "1")


@pytest.mark.parametrize("name", sorted(n for n in common.SEEDED if n.startswith("run_")))
def test_seed0_trace_bit_identical_to_snapshot_at_two_blas_threads(name, tmp_path):
    # the forked workers of run (default --jobs) keep the parent's BLAS
    # thread count, and so its bits; OpenBLAS gives bit-different traces
    # at 1 and 2 threads
    check_seeded(name, 0, 2, tmp_path)


def test_stationary_lsp_start_bit_identical_to_snapshot(tmp_path):
    # seed 1 starts at a stationary point, so taus 1, 2 and 3 reuse a fixed
    # point from steps 3, 4 and 5 on
    check_seeded("run_lsp", 1, 1, tmp_path)
    fixed_at = json.loads((tmp_path / "run.json").read_text())["fixed_at"]
    assert fixed_at == {"1": 3, "2": 4, "3": 5}


def test_import_loads_no_unneeded_modules():
    # xml.sax pulls in urllib.request, http.client, ssl and email, and
    # multiprocessing is needed only by a worker pool, and concurrent.futures
    # loads logging; a run with --jobs 1 needs none of them
    code = (
        "import contextlib, io, json, sys\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    import proxflow.cli\n"
        "heavy = ('xml.sax', 'urllib.request', 'concurrent.futures', 'multiprocessing')\n"
        "print(json.dumps([buf.getvalue(), [m for m in heavy if m in sys.modules]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert json.loads(proc.stdout) == ["", []]
