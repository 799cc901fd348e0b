"""Record the reference outputs that every benchmark run is checked against.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/make_snapshot.py

It runs ``tables`` and ``figure1`` once, and each seeded command for every
snapshot seed at each BLAS thread count the harness may use, then writes
``perfbench/snapshot/snapshot.json``. About three minutes on 2 cores.
"""

import json
import shutil

import common


def run(name, args, threads):
    out = common.OUT / name
    shutil.rmtree(out, ignore_errors=True)
    code, wall, _, _ = common.spawn(common.cli_argv(args, out), threads)
    print(f"{name} {' '.join(args)} threads={threads}: exit {code}, {wall:.2f} s", flush=True)
    return code, out


def main():
    snap = {"tables": {}, "figure1": {}, "seeded": {}, "run_json_keys": {}}
    threads = common.blas_threads()
    for name, args in (common.TABLES, common.FIGURE1):
        code, out = run(name, args, threads)
        if code != 0:
            raise SystemExit(f"{name} exited {code}")
        snap["run_json_keys"][name] = common.json_keys(out / "run.json")
    snap["tables"] = {
        t: common.read_rows(common.OUT / "tables" / f"{t}.csv") for t in ("table2", "table3")
    }
    snap["figure1"] = common.figure1_radii(common.OUT / "figure1")

    for threads in common.SNAPSHOT_THREADS:
        per_name = snap["seeded"].setdefault(str(threads), {})
        for seed in range(common.SNAPSHOT_SEEDS):
            for name, args in common.SEEDED.items():
                code, out = run(name, [*args, "--seed", str(seed)], threads)
                trace = out / common.TRACE_FILES[name]
                per_name.setdefault(name, {})[str(seed)] = {
                    "exit": code,
                    "digest": common.trace_digest(trace),
                }
                if code == 0:
                    snap["run_json_keys"].setdefault(name, common.json_keys(out / "run.json"))
    common.SNAPSHOT.mkdir(exist_ok=True)
    with open(common.SNAPSHOT / "snapshot.json", "w", encoding="utf-8") as fh:
        json.dump(snap, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(common.OUT, ignore_errors=True)


if __name__ == "__main__":
    main()
