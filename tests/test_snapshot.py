"""The five seeded commands at seed 0 reproduce the benchmark snapshot.

Each command runs as the benchmark harness runs it (``perfbench/common.py``,
used read-only): in a fresh interpreter with the package from ``src/`` and
one BLAS thread. ``check_output`` compares its exit code, its walltime-free
trace digest and its ``run.json`` keys with ``perfbench/snapshot``.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_COMMON = Path(__file__).resolve().parents[1] / "perfbench" / "common.py"
_spec = importlib.util.spec_from_file_location("perfbench_common", _COMMON)
common = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(common)


@pytest.mark.parametrize("name", sorted(common.SEEDED))
def test_seed0_matches_benchmark_snapshot(name, tmp_path):
    argv = common.cli_argv([*common.SEEDED[name], "--seed", "0"], tmp_path)
    proc = subprocess.run(
        argv, env=common.child_env(1), cwd=common.ROOT, capture_output=True, timeout=600
    )
    snapshot = common.load_snapshot()
    assert common.check_output(snapshot, name, 0, 1, tmp_path, proc.returncode) == []
