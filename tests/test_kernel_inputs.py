"""``scripts/kernel_inputs.py compare`` on small hand-made recordings."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def save(directory, calls):
    directory.mkdir()
    for name in ("tables", "figure1"):
        np.savez(directory / f"{name}.npz", **{f"call{i:05d}": c for i, c in enumerate(calls[name])})
    return directory


def compare(old, new):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kernel_inputs.py"), "compare", str(old), str(new)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout.splitlines()


def test_compare_tells_call_order_from_row_content(tmp_path):
    rng = np.random.default_rng(0)
    calls = [rng.uniform(-1.0, 1.0, (n, d)) for n, d in ((5, 3), (4, 4), (3, 3))]
    calls[0][1] = [np.nan, np.inf, 0.0]
    old = save(tmp_path / "old", {"tables": calls, "figure1": calls})
    # figure1: the same rows of each degree, spread over other calls
    moved = [np.concatenate([calls[2], calls[0][:2]]), calls[1], calls[0][2:]]
    new = save(tmp_path / "new", {"tables": calls, "figure1": moved})
    assert compare(old, new) == (0, [
        "tables: equal call by call (3 calls)",
        "figure1: equal as a multiset of rows per degree, not call by call",
    ])
    # one ulp in one row
    nudged = [c.copy() for c in calls]
    nudged[2][0, 0] = np.nextafter(nudged[2][0, 0], 2.0)
    bad = save(tmp_path / "bad", {"tables": nudged, "figure1": calls})
    assert compare(old, bad) == (1, [
        "tables: differ, as calls and as a multiset of rows per degree",
        "figure1: equal call by call (3 calls)",
    ])
