import importlib.util
import re
import subprocess
import sys
import sysconfig
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxflow import _kernels
from proxflow._kernels import _fallback
from proxflow.multistep import bdf_coefficients
from proxflow.numerics import TOL, seeded_rng
from proxflow.spectral import CompanionSpec, _coeff_rows, _lambda_grid

BACKENDS = pytest.mark.parametrize("backend", ["fallback", "native"], indirect=True)


@pytest.fixture(scope="module")
def native_module(tmp_path_factory):
    """The native kernel, built from ``_native.c`` by ``setup.py build_ext``.

    Building with the shipped recipe tests its ``-ffp-contract=off``: the
    compiler fuses no multiply-add, so the C code computes with IEEE basic
    operations only. Skips when the build makes no extension, which it
    leaves out with a warning when there is no C compiler or no Python
    headers.
    """
    build = tmp_path_factory.mktemp("native")
    command = [sys.executable, "setup.py", "build_ext", "--build-lib", build, "--build-temp", build]
    done = subprocess.run(command, cwd=Path(__file__).parents[1], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    target = build / "proxflow" / "_kernels" / ("_native" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not target.exists():
        pytest.skip("setup.py built no native kernel: " + done.stderr.strip().rpartition("\n")[2])
    spec = importlib.util.spec_from_file_location("proxflow._kernels._native", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def native(native_module, monkeypatch):
    """Selects ``native_module`` as the "native" backend of ``_kernels``."""
    monkeypatch.setattr(_kernels, "_native", native_module)
    monkeypatch.setattr(_kernels, "HAVE_NATIVE", True)


@pytest.fixture
def backend(request):
    """The backend name of ``BACKENDS``; "native" is ``native_module``."""
    if request.param == "native":
        request.getfixturevalue("native")
    return request.param


def random_batch(seed, n, degree, scale=1.5):
    return seeded_rng(seed).uniform(-scale, scale, (n, degree))


class TestFallback:
    def test_degree_one(self):
        rows = np.array([[0.3], [-2.0]])
        got = _kernels.max_root_modulus_batch(rows, backend="fallback")
        assert np.allclose(got, [0.3, 2.0])

    def test_quadratic_branches(self):
        # real pair (z-2)(z+1), complex pair z^2 + 1, double root (z-1)^2
        rows = np.array([[-2.0, -1.0], [1.0, 0.0], [1.0, -2.0]])
        got = _kernels.max_root_modulus_batch(rows, backend="fallback")
        assert np.allclose(got, [2.0, 1.0, 1.0])

    def test_matches_numpy_roots(self):
        for degree in (3, 4, 6, 10):
            rows = random_batch(degree, 200, degree)
            got = _kernels.max_root_modulus_batch(rows, backend="fallback")
            for i in range(rows.shape[0]):
                coeffs = np.concatenate([[1.0], rows[i][::-1]])
                want = np.abs(np.roots(coeffs)).max()
                assert got[i] == pytest.approx(want, abs=1e-9)

    def test_all_zero_rows(self):
        rows = np.zeros((3, 4))
        got = _kernels.max_root_modulus_batch(rows, backend="fallback")
        assert np.array_equal(got, np.zeros(3))


@BACKENDS
@pytest.mark.parametrize("degree", [0, TOL.max_poly_degree + 1])
def test_degree_guard(backend, degree):
    with pytest.raises(ValueError, match=f"degree must be in 1..{TOL.max_poly_degree}"):
        _kernels.max_root_modulus_batch(np.zeros((1, degree)), backend=backend)


@BACKENDS
def test_non_finite_rows_get_infinite_radius(backend):
    rows = random_batch(5, 6, 3)
    rows[1, 0], rows[3, 2], rows[4, 1] = np.nan, np.inf, -np.inf
    got = _kernels.max_root_modulus_batch(rows, backend=backend)
    finite = np.isfinite(rows).all(axis=1)
    assert np.array_equal(got[~finite], np.full(3, np.inf))
    assert np.array_equal(
        got[finite], _kernels.max_root_modulus_batch(rows[finite], backend=backend)
    )


@BACKENDS
@pytest.mark.parametrize("degree", [2, 3, 4, 8, 16])
def test_huge_roots_keep_their_modulus(backend, degree):
    # coefficients near 1e250, where the unscaled iteration overflows
    rng = seeded_rng(degree)
    roots = 10.0 ** (250 / degree) * rng.uniform(0.5, 2.0, degree) * rng.choice([-1.0, 1.0], degree)
    got = _kernels.max_root_modulus_batch(np.poly(roots)[:0:-1][None, :], backend=backend)
    assert got[0] == pytest.approx(np.abs(roots).max(), rel=1e-9)


@BACKENDS
@pytest.mark.parametrize("degree", [3, 4, 8, 16])
def test_tiny_roots_keep_their_modulus(backend, degree):
    # roots near 1e-83 at degree 3 and 3e-16 at degree 16, far below the
    # iteration's stop at corrections of about 1e-13
    rng = seeded_rng(degree)
    roots = 10.0 ** (-250 / degree) * rng.uniform(0.5, 2.0, degree) * rng.choice([-1.0, 1.0], degree)
    got = _kernels.max_root_modulus_batch(np.poly(roots)[:0:-1][None, :], backend=backend)
    # approx's default abs tolerance, 1e-12, would pass a radius of 1e-13
    assert got[0] == pytest.approx(np.abs(roots).max(), rel=1e-9, abs=0.0)


def schur_as_first_written(coeffs):
    """``schur_stable_batch`` as first written: the non-finite rows dropped
    by a row subset, a column of ones appended, and each step's row
    computed out of place."""
    stable = np.isfinite(coeffs).all(axis=1)
    rows = np.flatnonzero(stable)
    p = np.concatenate((coeffs[rows], np.ones((rows.size, 1))), axis=1)
    with np.errstate(all="ignore"):
        for k in range(coeffs.shape[1], 0, -1):
            c = p[:, 0] / p[:, k]
            inside = np.abs(c) < 1.0
            if not inside.all():
                stable[rows[~inside]] = False
                rows, p, c = rows[inside], p[inside], c[inside]
            p = p[:, 1 : k + 1] - c[:, None] * p[:, k - 1 :: -1]
    return stable


class TestSchurStable:
    def test_agrees_with_root_modulus_away_from_the_circle(self):
        for degree in range(1, 7):
            rows = random_batch(degree + 40, 2000, degree, scale=1.2)
            radii = _kernels.max_root_modulus_batch(rows)
            clear = np.abs(radii - 1.0) > 1e-9
            got = _kernels.schur_stable_batch(rows)
            assert np.array_equal(got[clear], radii[clear] < 1.0)
            # both outcomes are exercised at every degree
            assert 0 < got[clear].sum() < clear.sum()

    def test_exact_cases_are_not_stable(self):
        rows = np.array(
            [
                [1.0, 0.0, 0.0],  # z^3 + 1: every root on the circle
                [-0.5, 1.0, -0.5],  # (z^2 + 1)(z - 0.5): the second lead vanishes
                [0.25, np.nan, 0.0],
                [0.0, np.inf, 0.0],
                [0.1, -0.2, 0.3],  # stable control, every root inside
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kernels.schur_stable_batch(rows)
        assert got.tolist() == [False, False, False, False, True]

    def test_roots_on_the_circle(self):
        # z^2 + 1, z - 1 and z + 1 have their roots on the circle
        assert not _kernels.schur_stable_batch(np.array([[1.0, 0.0]])).any()
        assert not _kernels.schur_stable_batch(np.array([[-1.0], [1.0]])).any()

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 7, 16])
    def test_equals_the_recursion_as_first_written(self, degree):
        # random rows around the circle, NaN and inf rows, all-zero rows,
        # and rows whose lead vanishes at the first step (|p_0| = 1) or
        # at a later one ((z^2 + 1)(z - 0.5) times z^(degree - 3)), at
        # random places in the batch
        rng = seeded_rng(degree)
        rows = np.concatenate(
            [random_batch(degree + 70, 3000, degree, scale) for scale in (0.2, 0.5, 1.0, 2.0)]
        )
        rows[rng.integers(len(rows), size=40), rng.integers(degree, size=40)] = np.nan
        rows[rng.integers(len(rows), size=40), rng.integers(degree, size=40)] = -np.inf
        rows[rng.integers(len(rows), size=40)] = 0.0
        rows[rng.integers(len(rows), size=40), 0] = rng.choice([-1.0, 1.0], 40)
        if degree >= 3:
            rows[rng.integers(len(rows), size=40)] = np.pad([-0.5, 1.0, -0.5], (degree - 3, 0))
        want = schur_as_first_written(rows)
        assert 0 < want.sum() < len(rows)
        assert np.array_equal(_kernels.schur_stable_batch(rows), want)

    @pytest.mark.parametrize("degree", [4, 16])
    @pytest.mark.parametrize("non_finite", [False, True])
    def test_peak_memory_is_one_work_array(self, degree, non_finite):
        # the (degree + 1, N) work array and a few length-N temporaries;
        # copying the input twice, as the recursion as first written did,
        # exceeds this
        n = 20000
        rows = random_batch(degree, n, degree, scale=0.5)
        if non_finite:
            rows[::7, 1] = np.nan
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _kernels.schur_stable_batch(rows)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (degree + 1) * n + 8 * 8 * n

    @pytest.mark.parametrize("degree", [0, TOL.max_poly_degree + 1])
    def test_degree_guard_matches_root_modulus(self, degree):
        rows = np.zeros((1, degree))
        with pytest.raises(ValueError) as want:
            _kernels.max_root_modulus_batch(rows)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            _kernels.schur_stable_batch(rows)


class TestBatchIndependence:
    @settings(max_examples=30, deadline=None)
    @given(
        row=st.integers(3, 16).flatmap(
            lambda d: st.lists(st.floats(-8.0, 8.0, width=64), min_size=d, max_size=d)
        ),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from([4, 8, 16]),
    )
    def test_radius_has_the_same_bytes_in_any_batch(self, row, seed, chunk):
        # alone, on the row path, and in a batch too large for it: at a
        # random place and past the first ``chunk`` rows, which run as an
        # earlier chunk of the vectorized path
        row = np.array(row)
        rng = seeded_rng(seed)
        others = rng.uniform(-3.0, 3.0, (_fallback._ROW_PATH_ROWS + 1, row.size))
        alone = _kernels.max_root_modulus_batch(row[None, :], backend="fallback")
        with mock.patch.object(_fallback, "_CHUNK", chunk):
            for at in (int(rng.integers(others.shape[0] + 1)), chunk + 1):
                batch = np.insert(others, at, row, axis=0)
                got = _kernels.max_root_modulus_batch(batch, backend="fallback")
                assert got[at : at + 1].tobytes() == alone.tobytes()

    def test_rows_past_the_first_chunk_keep_their_bytes(self):
        # stability rows near a double root keep moving in the last bits
        # until they stop, so they show any row that stops late; a
        # repeated root stops only at the sweep cap
        for rows in _stability_rows()[::3] + _repeated_root_rows():
            whole = _kernels.max_root_modulus_batch(rows, backend="fallback")
            reverse = _kernels.max_root_modulus_batch(rows[::-1], backend="fallback")
            tail = _kernels.max_root_modulus_batch(rows[_fallback._CHUNK :], backend="fallback")
            assert whole.tobytes() == reverse[::-1].tobytes()
            assert whole[_fallback._CHUNK :].tobytes() == tail.tobytes()


def _stability_rows():
    """Coefficient rows of the stability analysis at tau 3 and 4.

    Rows near a double root, which set the iteration count, are among them.
    """
    lams = _lambda_grid(1.0, 10.0)
    rows = []
    for tau in (3, 4):
        xi = tuple(bdf_coefficients(tau)[0])
        for m, beta in ((1, 0.5), (4, 1.0), (20, 10.0)):
            spec = CompanionSpec(xi, 1.0, beta, m)
            rows.append(_coeff_rows(np.linspace(0.01, 1.0, 20)[:, None], lams, spec))
    return rows


# a root, its multiplicity, and the radius both kernels give the row of
# (z - root)^multiplicity: it never meets the tolerance, and the radius is
# the one after the _MAX_ITER-th sweep
REPEATED_ROOTS = [(0.3, 3, 0.30000122), (0.5, 4, 0.50002423), (-0.7, 5, 0.70061597),
                  (0.4, 6, 0.40111189)]


def _repeated_root_rows():
    """Per repeated root, random rows of its degree with its row first and last.

    The batch has ``_CHUNK`` + 2 rows, so the last row is past the first chunk.
    """
    batches = []
    for root, multiplicity, _ in REPEATED_ROOTS:
        batch = random_batch(multiplicity + 400, _fallback._CHUNK + 2, multiplicity)
        batch[[0, -1]] = np.poly(np.full(multiplicity, root))[:0:-1]
        batches.append(batch)
    return batches


def both_paths(rows, kernel=None):
    """``kernel``'s radii of ``rows`` with every fallback batch on the row
    path, then with every one on the vectorized path."""
    kernel = kernel or (lambda c: _kernels.max_root_modulus_batch(c, backend="fallback"))
    with mock.patch.object(_fallback, "_ROW_PATH_ROWS", rows.shape[0]):
        row_path = kernel(rows)
    with mock.patch.object(_fallback, "_ROW_PATH_ROWS", 0):
        vectorized = kernel(rows)
    return row_path, vectorized


def _special_rows():
    """Rows near double roots, repeated roots that stop at the sweep cap,
    and huge and tiny rows, which ``_kernels`` scales, per degree."""
    rows = [r[::37] for r in _stability_rows()]
    rows += [batch[:1] for batch in _repeated_root_rows()]
    rows += [random_batch(d + 200, 8, d, scale=1e300) for d in (3, 5, 16)]
    rows += [random_batch(d + 300, 8, d, scale=1e-60) for d in (3, 5, 16)]
    return rows


class TestRowPath:
    """The row-by-row path has the bytes of the vectorized one."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(3, 16).flatmap(
            lambda d: st.lists(
                st.lists(st.floats(-8.0, 8.0, width=64), min_size=d, max_size=d),
                min_size=1,
                max_size=4,
            )
        ),
        special=st.sampled_from(_special_rows()),
        picks=st.lists(st.integers(0, 2**16), max_size=4),
    )
    def test_equals_the_vectorized_path(self, rows, special, picks):
        # random rows, and some rows of one degree of the special kinds
        for batch in (np.array(rows), special[[p % len(special) for p in picks]]):
            row_path, vectorized = both_paths(batch)
            assert row_path.tobytes() == vectorized.tobytes()

    def test_special_rows_equal_the_vectorized_path(self):
        for rows in _special_rows():
            row_path, vectorized = both_paths(rows)
            assert row_path.tobytes() == vectorized.tobytes()
        for (*_, radius), batch in zip(REPEATED_ROOTS, _repeated_root_rows()):
            row_path, _ = both_paths(batch[:1])
            assert row_path == pytest.approx([radius], rel=0, abs=5e-9)

    def test_batches_up_to_the_threshold_take_the_row_path(self):
        # zero rows never reach the iteration, so they do not count
        rows = random_batch(7, _fallback._ROW_PATH_ROWS + 2, 3)
        rows[0] = 0.0
        with mock.patch.object(_fallback, "_row_radius", wraps=_fallback._row_radius) as spy:
            _fallback.max_root_modulus_batch(rows[1:])
            assert spy.call_count == 0
            _fallback.max_root_modulus_batch(rows[:-1])
            assert spy.call_count == _fallback._ROW_PATH_ROWS

    @pytest.mark.parametrize("degree", [3, 4, 16])
    def test_non_finite_rows_on_both_sides_of_the_threshold(self, degree):
        # straight to the fallback, which ``_kernels`` never sends such a
        # row: both paths give it the radius 0
        rows = random_batch(degree + 500, 2 * _fallback._ROW_PATH_ROWS, degree)
        bad = [np.nan, np.inf, -np.inf]
        for i in range(0, rows.shape[0], 2):
            rows[i, i % degree] = bad[i % 3]
            rows[i, (3 * i + 1) % degree] = bad[(i + 1) % 3]
        small = _fallback.max_root_modulus_batch(rows[: _fallback._ROW_PATH_ROWS])
        large = _fallback.max_root_modulus_batch(rows)
        assert small.tobytes() == large[: small.size].tobytes()
        assert not large[::2].any()
        assert large.tobytes() == both_paths(rows, _fallback.max_root_modulus_batch)[0].tobytes()


@pytest.mark.usefixtures("native")
class TestNativeParity:
    def test_matches_fallback(self):
        batches = [random_batch(d + 100, 500, d) for d in (1, 2, 3, 4, 8, 16)]
        # rows with huge coefficients, which reach the kernels scaled
        huge = [random_batch(d + 200, 100, d, scale=1e300) for d in (2, 3, 16)]
        # and rows with tiny roots, which reach them scaled as well
        tiny = [random_batch(d + 300, 100, d, scale=1e-60) for d in (3, 16)]
        repeated = _repeated_root_rows()
        for rows in batches + huge + tiny + _stability_rows() + repeated:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fb = _kernels.max_root_modulus_batch(rows, backend="fallback")
            nat = _kernels.max_root_modulus_batch(rows, backend="native")
            assert np.array_equal(fb, nat)
        for (*_, radius), rows in zip(REPEATED_ROOTS, repeated):
            nat = _kernels.max_root_modulus_batch(rows[[0, -1]], backend="native")
            assert nat == pytest.approx([radius, radius], rel=0, abs=5e-9)

    def test_is_faster_on_large_batch(self):
        # smoke benchmark: the compiled kernel should not be slower
        rows = random_batch(1, 200000, 3)
        t0 = time.perf_counter()
        _kernels.max_root_modulus_batch(rows, backend="fallback")
        t_fb = time.perf_counter() - t0
        t0 = time.perf_counter()
        _kernels.max_root_modulus_batch(rows, backend="native")
        t_nat = time.perf_counter() - t0
        assert t_nat <= t_fb * 1.5


def _read_only(array):
    array.flags.writeable = False
    return array


class TestNativeEntryPoint:
    """The C entry point checks what it is given: it is the one call into C."""

    @pytest.mark.parametrize(
        "coeffs, out",
        [
            (np.ones((2, 3), dtype=np.float32), np.empty(2)),
            (np.asfortranarray(np.ones((2, 3))), np.empty(2)),
            (np.ones(3), np.empty(3)),
            (np.ones((2, 3)), np.empty(3)),
            (np.ones((2, 3)), np.empty(2, dtype=np.float32)),
            (np.ones((2, 3)), _read_only(np.empty(2))),
            (np.ones((2, 0)), np.empty(2)),
            (np.ones((2, 17)), np.empty(2)),
            ([[1.0, 2.0, 3.0]], np.empty(1)),
        ],
        ids=["float32", "fortran", "1d", "out-length", "out-float32", "out-read-only",
             "degree-0", "degree-17", "list"],
    )
    def test_rejects_bad_arguments(self, native_module, coeffs, out):
        with pytest.raises((ValueError, TypeError)):
            native_module.max_root_modulus_batch(coeffs, out)

    def test_empty_batch(self, native_module):
        assert native_module.max_root_modulus_batch(np.empty((0, 3)), np.empty(0)) is None
