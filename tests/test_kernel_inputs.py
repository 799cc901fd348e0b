"""``scripts/kernel_inputs.py compare``, ``replay`` and ``replay --check`` on small hand-made recordings."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from proxflow import _kernels

ROOT = Path(__file__).resolve().parents[1]


def save(directory, calls):
    directory.mkdir()
    for name in ("tables", "figure1"):
        np.savez(directory / f"{name}.npz", **{f"call{i:05d}": c for i, c in enumerate(calls[name])})
    return directory


def script(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kernel_inputs.py"), *map(str, args)],
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
    assert script("compare", old, new) == (0, [
        "tables: equal call by call (3 calls)",
        "figure1: equal as a multiset of rows per degree, not call by call",
    ])
    # one ulp in one row
    nudged = [c.copy() for c in calls]
    nudged[2][0, 0] = np.nextafter(nudged[2][0, 0], 2.0)
    bad = save(tmp_path / "bad", {"tables": nudged, "figure1": calls})
    assert script("compare", old, bad) == (1, [
        "tables: differ, as calls and as a multiset of rows per degree",
        "figure1: equal call by call (3 calls)",
    ])


def test_replay_saves_the_radii_of_the_kernel(tmp_path):
    # every degree class: closed forms, the row path, the vectorized path,
    # a zero row, and a NaN row and a huge row, which the kernel screens
    rng = np.random.default_rng(1)
    tables = [rng.uniform(-2.0, 2.0, (n, d)) for n, d in ((3, 1), (4, 2), (5, 3), (40, 4))]
    tables[2][0] = 0.0
    tables[3][[1, 2]] = [np.nan, 0.0, 1.0, 0.5], [1e200, -3.0, 0.0, 2.0]
    figure1 = [rng.uniform(-1.0, 1.0, (20, 3)), rng.uniform(-1.0, 1.0, (2, 16))]
    recorded = save(tmp_path / "rec", {"tables": tables, "figure1": figure1})
    code, out = script("replay", recorded, "--save", tmp_path / "radii.npz")
    assert code == 0
    assert [line.rpartition(",")[0] for line in out] == [
        "tables: 4 calls, 52 rows", "figure1: 2 calls, 22 rows"
    ]
    with np.load(tmp_path / "radii.npz") as radii:
        assert sorted(radii.files) == ["figure1", "tables"]
        for name, calls in (("tables", tables), ("figure1", figure1)):
            want = np.concatenate([_kernels.max_root_modulus_batch(c) for c in calls])
            assert radii[name].tobytes() == want.tobytes()


def test_replay_check_names_the_first_radius_that_differs(tmp_path):
    rng = np.random.default_rng(2)
    tables = [rng.uniform(-1.0, 1.0, (n, 3)) for n in (4, 30, 5)]
    figure1 = [rng.uniform(-1.0, 1.0, (6, 4))]
    recorded = save(tmp_path / "rec", {"tables": tables, "figure1": figure1})
    saved = tmp_path / "radii.npz"
    assert script("replay", recorded, "--save", saved)[0] == 0
    code, out = script("replay", recorded, "--check", saved)
    assert code == 0
    assert out[2:] == [
        f"tables: every radius has the bytes of {saved}",
        f"figure1: every radius has the bytes of {saved}",
    ]
    # one ulp in the radius of row 7 of call 1, and one row too few
    with np.load(saved) as radii:
        nudged = {name: radii[name].copy() for name in radii.files}
    want = float(nudged["tables"][4 + 7])
    nudged["tables"][4 + 7] = np.nextafter(want, np.inf)
    nudged["figure1"] = nudged["figure1"][1:]
    bad = tmp_path / "bad.npz"
    np.savez(bad, **nudged)
    code, out = script("replay", recorded, "--check", bad)
    assert code == 1
    assert out[2:] == [
        f"tables: call 1, row 7: radius {want!r}, {bad} has {float(np.nextafter(want, np.inf))!r}",
        f"figure1: 6 radii, not the size of {bad}'s",
    ]
