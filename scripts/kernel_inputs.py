"""Record the root-modulus kernel inputs of proxflow commands, replay and compare them.

    PYTHONPATH=src python3 scripts/kernel_inputs.py record DIR
        Runs ``tables`` and ``figure1 --tau 1,2,3,4 --beta-points 100``
        with ``--jobs 1``, so that every kernel call happens in this
        process, and writes each command's calls to DIR/<command>.npz.
        Prints, per command and degree, the kernel calls, rows and rows
        per call. From degree 3 on, a call over one or more lambda grids
        is recorded as the two calls that ``spectral._group_max_radius``
        makes: the grids' endpoint rows, then the inner rows that the
        certificate does not rule out. Prints the same counts for
        ``_kernels.schur_stable_batch``, the Schur–Cohn test of
        ``max_stable_alpha`` and of that certificate; the certificate
        sends it only the inner rows that its sum test leaves, a block of
        groups at a time. Its rows are not saved. Prints, too, the calls
        and rows of the kernel's row-by-row path: the batches of at most
        ``_kernels._ROW_PATH_ROWS`` rows that reach its iteration.
    PYTHONPATH=src python3 scripts/kernel_inputs.py replay DIR [--save FILE] [--check FILE]
        Calls the kernel again on every recorded call, in the recorded
        order and batches, and prints the time per command. ``--save``
        writes the radii, one array per command. ``--check`` compares the
        radii, bit for bit, with those a ``--save`` wrote, perhaps at
        another version: it prints, per command, that every radius has
        the saved bytes, or the first call and row whose radius does not,
        and exits 1 when some radius differs.
    PYTHONPATH=src python3 scripts/kernel_inputs.py compare OLD NEW
        Compares two recordings, command by command: equal call by call
        (the same calls in the same order, bit for bit), else equal as a
        multiset of rows per degree (the same rows, bit for bit, in other
        calls or another order). Prints which holds, and exits 1 when
        neither holds for some command.
"""

import argparse
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from proxflow import _kernels, cli

COMMANDS = {
    "tables": ["tables"],
    "figure1": ["figure1", "--tau", "1,2,3,4", "--beta-points", "100"],
}


def record(out):
    out.mkdir(parents=True, exist_ok=True)
    kernel, schur = _kernels.max_root_modulus_batch, _kernels.schur_stable_batch
    durand_kerner = _kernels._durand_kerner
    for name, argv in COMMANDS.items():
        calls, schur_sizes, row_path = [], [], []

        def recording(coeffs):
            calls.append(np.array(coeffs, dtype=float))
            return kernel(coeffs)

        def counting(coeffs):
            schur_sizes.append(np.shape(coeffs))
            return schur(coeffs)

        def iterating(coeffs, rows, out):
            if rows.size <= _kernels._ROW_PATH_ROWS:
                row_path.append((rows.size, coeffs.shape[1]))
            return durand_kerner(coeffs, rows, out)

        _kernels.max_root_modulus_batch = recording
        _kernels.schur_stable_batch = counting
        _kernels._durand_kerner = iterating
        try:
            with tempfile.TemporaryDirectory() as tmp:
                cli.main([*argv, "--jobs", "1", "--out", tmp])
        finally:
            _kernels.max_root_modulus_batch = kernel
            _kernels.schur_stable_batch = schur
            _kernels._durand_kerner = durand_kerner
        np.savez(out / f"{name}.npz", **{f"call{i:05d}": c for i, c in enumerate(calls)})
        summarize(name, [c.shape for c in calls])
        summarize(f"{name} schur_stable_batch", schur_sizes)
        summarize(f"{name} row path", row_path)


def summarize(name, shapes):
    if not shapes:
        print(f"{name}: no calls")
    per_degree = defaultdict(list)
    for rows, degree in shapes:
        per_degree[degree].append(rows)
    for degree, sizes in sorted(per_degree.items()):
        print(
            f"{name} degree {degree}: {len(sizes)} calls, {sum(sizes)} rows, "
            f"{sum(sizes) / len(sizes):.1f} rows per call"
        )


def load(path):
    with np.load(path) as data:
        return [data[key] for key in sorted(data.files)]


def replay(directory, save, check):
    """Replay, save and check the radii of each command; False if any differ."""
    radii, sizes = {}, {}
    for name in COMMANDS:
        calls = load(directory / f"{name}.npz")
        start = time.perf_counter()
        got = [_kernels.max_root_modulus_batch(c) for c in calls]
        elapsed = time.perf_counter() - start
        radii[name], sizes[name] = np.concatenate(got), [r.size for r in got]
        print(f"{name}: {len(calls)} calls, {radii[name].size} rows, {elapsed:.3f} s")
    if save:
        np.savez(save, **radii)
    if not check:
        return True
    with np.load(check) as saved:
        return all([same_radii(name, radii[name], sizes[name], saved, check) for name in COMMANDS])


def same_radii(name, got, sizes, saved, path):
    """Print whether ``got`` has the bytes of ``saved[name]``, else where it first differs."""
    want = saved[name] if name in saved.files else None
    if want is None or want.size != got.size:
        print(f"{name}: {got.size} radii, not the size of {path}'s")
        return False
    differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    if not differ.size:
        print(f"{name}: every radius has the bytes of {path}")
        return True
    at = differ[0]
    call = np.searchsorted(np.cumsum(sizes), at, side="right")
    row = at - sum(sizes[:call])
    print(f"{name}: call {call}, row {row}: radius {float(got[at])!r}, {path} has {float(want[at])!r}")
    return False


def row_multisets(calls):
    """Per degree, the bytes of every row of ``calls``, sorted."""
    per_degree = defaultdict(list)
    for c in calls:
        per_degree[c.shape[1]].append(c)
    return {
        d: np.sort(np.concatenate(cs).view(np.dtype((np.void, 8 * d))).ravel())
        for d, cs in per_degree.items()
    }


def same_multisets(old, new):
    return old.keys() == new.keys() and all(
        old[d].size == new[d].size and (old[d] == new[d]).all() for d in old
    )


def compare(old_dir, new_dir):
    """Print how each command's recorded calls compare; False if any differ."""
    ok = True
    for name in COMMANDS:
        old, new = load(old_dir / f"{name}.npz"), load(new_dir / f"{name}.npz")
        if len(old) == len(new) and all(
            a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(old, new)
        ):
            print(f"{name}: equal call by call ({len(old)} calls)")
        elif same_multisets(row_multisets(old), row_multisets(new)):
            print(f"{name}: equal as a multiset of rows per degree, not call by call")
        else:
            print(f"{name}: differ, as calls and as a multiset of rows per degree")
            ok = False
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("dir", type=Path)
    rep = sub.add_parser("replay")
    rep.add_argument("dir", type=Path)
    rep.add_argument("--save", type=Path)
    rep.add_argument("--check", type=Path)
    cmp = sub.add_parser("compare")
    cmp.add_argument("old", type=Path)
    cmp.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.action == "record":
        record(args.dir)
    elif args.action == "replay":
        return 0 if replay(args.dir, args.save, args.check) else 1
    else:
        return 0 if compare(args.old, args.new) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
