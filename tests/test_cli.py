import csv
import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from proxflow.cli import main

ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT = ROOT / "perfbench" / "snapshot" / "snapshot.json"


class TestTables:
    def test_ppm_only_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["tables", "--only", "ppm", "--out", str(out1)]) == 0
        assert main(["tables", "--only", "ppm", "--out", str(out2)]) == 0
        assert (out1 / "table2.csv").read_bytes() == (out2 / "table2.csv").read_bytes()
        assert (out1 / "table3.csv").read_bytes() == (out2 / "table3.csv").read_bytes()

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
        snapshot = json.loads(SNAPSHOT.read_text(encoding="utf-8"))["tables"]
        for name in ("table2", "table3"):
            with open(out / f"{name}.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == len(snapshot[name])
            for row, want in zip(rows, snapshot[name]):
                for key in ("computed_alpha", "computed_rho"):
                    if key in want:
                        assert float(row[key]) == pytest.approx(float(want[key]), abs=1e-9)

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

    def test_lsp_stationary_start_plots_on_linear_axis(self, tmp_path):
        # seed 1: x0 = 0 is already stationary, so every epsilon_beta is 0
        out = tmp_path / "lsp"
        code = main(["run", "lsp", "--seed", "1", "--iters", "50", "--out", str(out)])
        assert code == 0
        ET.parse(out / "lsp.svg")
        assert (out / "run.json").exists()

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


SEEDED = {
    "run_l1": (["run", "l1"], "l1_traces.csv"),
    "run_lsp": (["run", "lsp"], "lsp_traces.csv"),
    "run_altproj": (["run", "altproj"], "altproj_traces.csv"),
    "run_matfac": (["run", "matfac"], "matfac_traces.csv"),
    "accel": (["accel"], "accel_traces.csv"),
}


def _trace_digest(path):
    """sha256 of a trace CSV with the walltime_s column removed."""
    h = hashlib.sha256()
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        drop = header.index("walltime_s")
        for row in [header, *rows]:
            del row[drop]
            h.update((",".join(row) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seed0_trace_bit_identical_to_snapshot(name, tmp_path):
    # the benchmark snapshot's single-thread digests; OpenBLAS gives
    # bit-different traces at other thread counts
    args, trace_file = SEEDED[name]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PROXFLOW_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    subprocess.run(
        [sys.executable, "-m", "proxflow.cli", *args, "--seed", "0",
         "--out", str(tmp_path)],
        env=env, check=True, capture_output=True, timeout=600,
    )
    snapshot = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    want = snapshot["seeded"]["1"][name]["0"]["digest"]
    assert _trace_digest(tmp_path / trace_file) == want
