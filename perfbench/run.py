"""proxflow benchmark harness.

    python3 perfbench/run.py --workload tables|sweep|apps --seed N --seconds S --trace 0|1

Run from the repository root. Each workload runs real ``proxflow`` CLI
commands (``python -m proxflow.cli``, package taken from ``src/``), one child
process at a time, and checks every output against ``perfbench/snapshot``.

``--trace 0`` reports the end-to-end metrics: passes over the workload's
commands repeat until ``--seconds`` have elapsed (at least one pass), and
times are medians over passes. ``--trace 1`` reports the per-layer metrics
from one pass in which each command runs in-process twice, untraced and
traced (see ``child.py``), plus the kernel micro-benchmark.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give every
metric with its sample count, the per-command times and the machine facts.
The metric names, units and directions are declared in ``BENCHMARK.json``.
See ``perfbench/NOTES.md`` for why each workload exists.
"""

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

import common

APPS_SEEDS = 7
SETUP_SAMPLES = 11
SETUP_CODE = "import time; t = time.perf_counter(); import proxflow.cli; print(time.perf_counter() - t)"
APPS = ("run_l1", "run_lsp", "run_altproj", "run_matfac")
KERNEL = "_kernels.max_root_modulus_batch"
TAUS = (1, 2, 3, 4)

# Counts that repeat exactly at the commit that defined the benchmark.
EXPECTED_COUNTS = {
    "tables": {"spectral.optimal_rate.calls": 24, "spectral.simulate_companion_check.calls": 16},
    "apps": {"kernels.calls": 0},
}


def program_seeds(seed, count):
    """Seeds passed to the program as ``--seed``, drawn from the workload seed."""
    return random.Random(seed).sample(range(common.SNAPSHOT_SEEDS), count)


def commands(workload, seed):
    """(name, program seed or None, CLI args) for one pass of the workload."""
    if workload == "tables":
        return [(common.TABLES[0], None, common.TABLES[1])]
    if workload == "sweep":
        (s,) = program_seeds(seed, 1)
        return [
            (common.FIGURE1[0], None, common.FIGURE1[1]),
            ("accel", s, [*common.SEEDED["accel"], "--seed", str(s)]),
        ]
    return [
        (name, s, [*common.SEEDED[name], "--seed", str(s)])
        for s in program_seeds(seed, APPS_SEEDS)
        for name in APPS
    ]


class Run:
    """Attempted and failed commands of one benchmark run, with the reasons."""

    def __init__(self, workload, threads):
        self.snap = common.load_snapshot()
        self.workload = workload
        self.threads = threads
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, name, seed, out, code):
        found = common.check_output(self.snap, name, seed, self.threads, out, code)
        self.record(found)

    def record(self, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(problems)


def fresh_out(name):
    out = common.OUT / name
    shutil.rmtree(out, ignore_errors=True)
    return out


def measure_setup(threads):
    """Seconds a fresh interpreter takes to ``import proxflow.cli``, which
    imports numpy and selects the kernel backend; one sample per child.

    The clock runs inside the child, so interpreter start-up is left out.
    One untimed import first compiles the bytecode, which users pay once.
    """
    argv = [sys.executable, "-c", SETUP_CODE]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        code, _, _, stdout = common.spawn(argv, threads)
        if code != 0:
            raise SystemExit(f"import proxflow.cli failed with exit code {code}")
        if i:
            samples.append(float(stdout))
    return samples


def end_to_end(run, seed, seconds):
    setup = measure_setup(run.threads)
    cmds = commands(run.workload, seed)
    passes, per_cmd, rss = [], defaultdict(list), []
    while not passes or sum(passes) < seconds:
        total = 0.0
        for name, pseed, args in cmds:
            out = fresh_out(name)
            code, wall, rss_mb, _ = common.spawn(common.cli_argv(args, out), run.threads)
            run.check(name, pseed, out, code)
            per_cmd[name].append(wall)
            rss.append(rss_mb)
            total += wall
        passes.append(total)
    samples = {
        "wall_s": (statistics.median(passes), "s", len(passes)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (max(rss), "MB", len(rss)),
        "pass_frac": (1.0 - run.failed / run.attempted, "fraction", run.attempted),
        "failed_frac": (run.failed / run.attempted, "fraction", run.attempted),
    }
    for name, walls in per_cmd.items():
        samples[f"cmd.{name}_s"] = (statistics.median(walls), "s", len(walls))
    return samples


class Missing(Exception):
    """A metric needs a function that the program no longer defines."""


class Layers:
    """Per-layer totals summed over the traced commands of one pass."""

    def __init__(self):
        self.totals = defaultdict(lambda: defaultdict(float))
        self.wrapped = set()
        self.hook_errors = defaultdict(int)

    def add(self, result):
        self.wrapped.update(result["wrapped"])
        for key, fields in result["layers"].items():
            for field, value in fields.items():
                self.totals[key][field] += value
        for name, count in result["hook_errors"].items():
            self.hook_errors[name] += count

    def get(self, key, field):
        """Total of ``field`` under ``key``: "name", "name[variant]" or
        "outer>inner". It is 0 when the functions exist but were not called."""
        for name in re.split(r"[>\[]", key):
            if name.endswith("]"):
                continue
            if name not in self.wrapped:
                raise Missing(name)
            if field not in ("calls", "busy_s", "self_s") and self.hook_errors.get(name):
                raise Missing(f"{name} ({field} unreadable)")
        return self.totals.get(key, {}).get(field, 0.0)

    def cli_self(self):
        return sum(v["self_s"] for k, v in self.totals.items() if k.startswith("cli.") and ">" not in k)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_formulas(layers, micro, overhead):
    """Metric name -> function computing it; a name ``<span>.<field>`` for
    field calls, busy_s or self_s needs no entry."""
    g = layers.get
    k = KERNEL
    f = {
        "kernels.calls": lambda: g(k, "calls"),
        "kernels.rows_per_call": lambda: _ratio(g(k, "rows"), g(k, "calls")),
        "kernels.bytes_in_computed": lambda: g(k, "bytes"),
        "spectral.optimal_rate.kernel_rows_per_call": lambda: _ratio(
            g(f"spectral.optimal_rate>{k}", "rows"), g("spectral.optimal_rate", "calls")
        ),
        "spectral.max_stable_alpha.kernel_calls_per_call": lambda: _ratio(
            g(f"spectral.max_stable_alpha>{k}", "calls"), g("spectral.max_stable_alpha", "calls")
        ),
        "spectral.max_stable_alpha.capped": lambda: g("spectral.max_stable_alpha", "capped"),
        "multistep.outer_steps": lambda: g("multistep.run", "outer_steps"),
        "multistep.inner_steps": lambda: g("multistep.run", "inner_steps"),
        "experiments.reference_optimum.run_calls": lambda: g(
            "experiments.reference_optimum>multistep.run", "calls"
        ),
        "experiments.generate.busy_s": lambda: sum(
            g(f"experiments.{fn}", "busy_s") for fn in ("gen_sensing", "gen_subspaces", "gen_matfac")
        ),
        "experiments.emit.busy_s": lambda: sum(
            g(f"experiments.{fn}", "busy_s") for fn in ("emit_csv", "emit_svg")
        ),
        "experiments.emit.bytes": lambda: sum(
            g(f"experiments.{fn}", "bytes") for fn in ("emit_csv", "emit_svg")
        ),
        "cli.self_s": layers.cli_self,
        "bench.trace_overhead_s": lambda: overhead,
    }
    for tau in TAUS:
        variant = f"{k}[tau{tau}]"
        f[f"kernels.rows.tau{tau}"] = lambda v=variant: g(v, "rows")
        f[f"kernels.busy_s.tau{tau}"] = lambda v=variant: g(v, "busy_s")
        f[f"kernels.rows_per_s.tau{tau}"] = lambda v=variant: _ratio(g(v, "rows"), g(v, "busy_s"))
        for backend, rates in micro.items():
            f[f"kernels.micro_rows_per_s.{backend}.tau{tau}"] = lambda r=rates, t=tau: r[f"tau{t}"]
    return f


def layer_value(name, formulas, layers):
    if name in formulas:
        return formulas[name]()
    span, _, field = name.rpartition(".")
    if field not in ("calls", "busy_s", "self_s"):
        raise KeyError(f"no formula for per-layer metric {name}")
    if span.startswith("kernels."):
        span = "_" + span
    return layers.get(span, field)


def per_layer(run, seed, declared):
    layers = Layers()
    wall = {0: 0.0, 1: 0.0}
    spans_dir = common.OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    for name, pseed, args in commands(run.workload, seed):
        for trace in (0, 1):
            out = fresh_out(name)
            argv = [sys.executable, str(common.BENCH / "child.py"), "main", "--trace", str(trace)]
            if trace:
                argv += ["--spans", str(spans_dir / f"{name}.csv.gz")]
            argv += ["--", *args, "--out", str(out)]
            code, _, _, stdout = common.spawn(argv, run.threads)
            if code != 0:
                run.record([f"{name}: child exited {code}"])
                continue
            result = json.loads(stdout.splitlines()[-1])
            run.check(name, pseed, out, result["exit"])
            wall[trace] += result["wall_s"]
            if trace:
                layers.add(result)
    code, _, _, stdout = common.spawn(
        [sys.executable, str(common.BENCH / "child.py"), "micro"], run.threads
    )
    if code != 0:
        raise SystemExit(f"kernel micro-benchmark exited {code}")
    micro = json.loads(stdout.splitlines()[-1])["rows_per_s"]
    formulas = layer_formulas(layers, micro, wall[1] - wall[0])
    values, missing = {}, {}
    names = list(declared) + [n for n in formulas if n.startswith("kernels.micro") and n not in declared]
    for name in names:
        try:
            values[name] = layer_value(name, formulas, layers)
        except Missing as exc:
            missing[name] = str(exc)
    for name, expected in EXPECTED_COUNTS.get(run.workload, {}).items():
        if name in values and values[name] != expected:
            run.problems.append(f"count {name} = {values[name]:g}, expected {expected}")
    return values, missing, {"untraced_s": wall[0], "traced_s": wall[1]}


def machine_facts(threads, seed):
    code, _, _, stdout = common.spawn([sys.executable, str(common.BENCH / "child.py"), "facts"], threads)
    facts = json.loads(stdout.splitlines()[-1]) if code == 0 else {}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    env = common.child_env(threads)
    facts.update(
        nproc=len(os.sched_getaffinity(0)),
        blas_threads={v: env[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        git_sha=sha,
        seed=seed,
    )
    return facts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["tables", "sweep", "apps"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (common.SRC / "proxflow" / "cli.py").is_file():
        print(f"proxflow sources not found under {common.SRC}", file=sys.stderr)
        return 2
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    threads = common.blas_threads()
    run = Run(args.workload, threads)
    facts = machine_facts(threads, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": facts}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"program seeds={sorted({s for _, s, _ in commands(args.workload, args.seed) if s is not None})}")
    print("machine " + json.dumps(facts, sort_keys=True))
    if args.trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, missing, walls = per_layer(run, args.seed, declared)
        for name, value in values.items():
            print(f"  {name:50s} {value:16.6g} {declared.get(name, 'rows/s')}")
        for name, why in missing.items():
            print(f"  {name:50s} missing: {why}")
        metrics = {n: {"value": v, "unit": declared[n]} for n, v in values.items() if n in declared}
        record.update(per_layer=values, missing=missing, in_process=walls)
    else:
        samples = end_to_end(run, args.seed, args.seconds)
        for name, (value, unit, n) in samples.items():
            print(f"  {name:20s} {value:12.6g} {unit:8s} median of n={n}" if unit == "s"
                  else f"  {name:20s} {value:12.6g} {unit:8s} n={n}")
        declared = [m["name"] for m in spec["end_to_end"]]
        metrics = {n: {"value": samples[n][0], "unit": samples[n][1]} for n in declared}
        record.update(end_to_end={n: {"value": v, "unit": u, "n": c} for n, (v, u, c) in samples.items()})
    for problem in run.problems:
        print(f"  FAILED {problem}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record.update(result=result, problems=run.problems)
    with open(common.OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
