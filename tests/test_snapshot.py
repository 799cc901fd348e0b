"""The benchmark's commands reproduce its snapshot: the five seeded ones
at seed 0, ``tables`` and ``figure1``.

Each command runs as the benchmark harness runs it (``perfbench/common.py``,
used read-only): in a fresh interpreter with the package from ``src/`` and
one BLAS thread. ``check_output`` compares its exit code and ``run.json``
keys with ``perfbench/snapshot``, and the walltime-free trace digest of a
seeded command, the table values or the figure-1 radii.
``tests/test_cli.py`` checks more seeds, thread counts and ``--jobs 1``
with ``check_seeded``.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_COMMON = Path(__file__).resolve().parents[1] / "perfbench" / "common.py"
_spec = importlib.util.spec_from_file_location("perfbench_common", _COMMON)
common = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(common)


def check_seeded(name, seed, threads, out, *extra):
    """Run one seeded command as the harness does, with ``extra`` options
    added; it must exit 0 and match the snapshot at ``threads`` BLAS
    threads."""
    argv = common.cli_argv([*common.SEEDED[name], "--seed", str(seed), *extra], out)
    proc = subprocess.run(
        argv, env=common.child_env(threads), cwd=common.ROOT, capture_output=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    snapshot = common.load_snapshot()
    assert common.check_output(snapshot, name, seed, threads, out, proc.returncode) == []


@pytest.mark.parametrize("name", sorted(common.SEEDED))
def test_seed0_matches_benchmark_snapshot(name, tmp_path):
    check_seeded(name, 0, 1, tmp_path)


@pytest.mark.parametrize("name, args", [common.TABLES, common.FIGURE1], ids=["tables", "figure1"])
def test_unseeded_command_matches_benchmark_snapshot(name, args, tmp_path):
    proc = subprocess.run(
        common.cli_argv(args, tmp_path), env=common.child_env(1), cwd=common.ROOT,
        capture_output=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    snapshot = common.load_snapshot()
    assert common.check_output(snapshot, name, None, 1, tmp_path, proc.returncode) == []
