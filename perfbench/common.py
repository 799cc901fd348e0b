"""Commands, child processes and output checks shared by the benchmark scripts.

Every proxflow command runs in a fresh child interpreter with the package
taken from ``src/`` (it is not installed) and BLAS pinned to a fixed thread
count, because OpenBLAS gives bit-different trace CSVs at 1 and 2 threads.
Outputs are compared with the snapshot in ``perfbench/snapshot``, which was
recorded from the commit that introduced the benchmark.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SNAPSHOT = BENCH / "snapshot"

# The snapshot holds one reference output per (command, seed) for these
# seeds; the workload seed picks program seeds from this range.
SNAPSHOT_SEEDS = 8
SNAPSHOT_THREADS = (1, 2)
TOLERANCE = 1e-9

TABLES = ("tables", ["tables", "--jobs", "1"])
FIGURE1 = ("figure1", ["figure1", "--tau", "1,2,3,4", "--beta-points", "100"])
SEEDED = {
    "accel": ["accel"],
    "run_l1": ["run", "l1"],
    "run_lsp": ["run", "lsp"],
    "run_altproj": ["run", "altproj"],
    "run_matfac": ["run", "matfac"],
}
TRACE_FILES = {
    "accel": "accel_traces.csv",
    "run_l1": "l1_traces.csv",
    "run_lsp": "lsp_traces.csv",
    "run_altproj": "altproj_traces.csv",
    "run_matfac": "matfac_traces.csv",
}


def blas_threads():
    """BLAS threads for every child: at most 2 and at most nproc."""
    return min(2, len(os.sched_getaffinity(0)))


def child_env(threads):
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("PROXFLOW_", "PYTHON", "OPENBLAS_", "OMP_", "MKL_"))
    }
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def spawn(argv, threads):
    """Run one child to completion: (exit code, wall s, peak RSS MB, stdout).

    Peak RSS comes from ``os.wait4`` on this child alone;
    ``getrusage(RUSAGE_CHILDREN)`` would report the maximum over every
    earlier child as well.
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(threads), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        sys.stderr.write(err.read().decode(errors="replace"))
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read().decode()


def cli_argv(args, out):
    return [sys.executable, "-m", "proxflow.cli", *args, "--out", str(out)]


def trace_digest(path):
    """sha256 of a trace CSV with the ``walltime_s`` column removed."""
    h = hashlib.sha256()
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        drop = header.index("walltime_s")
        for row in [header, *rows]:
            del row[drop]
            h.update((",".join(row) + "\n").encode())
    return h.hexdigest()


def json_keys(path):
    """Dotted paths of every key in a JSON object, nested objects included."""

    def walk(obj, prefix):
        for key, value in obj.items():
            yield prefix + key
            if isinstance(value, dict):
                yield from walk(value, prefix + key + ".")

    with open(path, encoding="utf-8") as fh:
        return sorted(walk(json.load(fh), ""))


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def figure1_radii(out):
    return {
        p.name: [float(r["radius"]) for r in read_rows(p)]
        for p in sorted(out.glob("figure1_*.csv"))
    }


def load_snapshot():
    with open(SNAPSHOT / "snapshot.json", encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b):
    return abs(float(a) - float(b)) <= TOLERANCE


def check_output(snap, name, seed, threads, out, code):
    """Problems found in one command's outputs (an empty list means pass).

    A seeded command may exit with the code this command gave when the
    snapshot was recorded, or with 0.
    """
    if name in SEEDED:
        ref = snap["seeded"][str(threads)][name][str(seed)]
    else:
        ref = {"exit": 0}
    if code not in (0, ref["exit"]):
        return [f"{name}: exit code {code}, expected {ref['exit']}"]
    try:
        return _compare(snap, name, seed, out, code, ref)
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        return [f"{name}: unreadable output ({exc!r})"]


def _compare(snap, name, seed, out, code, ref):
    problems = []
    if code == 0:
        missing = set(snap["run_json_keys"][name]) - set(json_keys(out / "run.json"))
        if missing:
            problems.append(f"{name}: run.json lost keys {sorted(missing)}")
    if name == "tables":
        for table in ("table2", "table3"):
            rows = read_rows(out / f"{table}.csv")
            refs = snap["tables"][table]
            if len(rows) != len(refs):
                problems.append(f"{table}: {len(rows)} rows, expected {len(refs)}")
                continue
            for row, ref_row in zip(rows, refs):
                if row["row_pass"] != "1":
                    problems.append(f"{table}: row_pass=0 in {row}")
                for key in ("computed_alpha", "computed_rho"):
                    if key in ref_row and not _close(row[key], ref_row[key]):
                        problems.append(f"{table}: {key} {row[key]} != {ref_row[key]}")
    elif name == "figure1":
        radii = figure1_radii(out)
        if radii.keys() != snap["figure1"].keys():
            problems.append(f"figure1: panels {sorted(radii)} differ from snapshot")
        for panel, ref in snap["figure1"].items():
            got = radii.get(panel, [])
            if len(got) != len(ref) or not all(map(_close, got, ref)):
                problems.append(f"figure1: radii of {panel} differ from snapshot")
    else:
        trace = out / TRACE_FILES[name]
        if not trace.exists():
            problems.append(f"{name}: {trace.name} not written")
        elif trace_digest(trace) != ref["digest"]:
            problems.append(f"{name} seed {seed}: {trace.name} differs from snapshot")
    return problems
