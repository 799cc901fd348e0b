import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxflow import _kernels
from proxflow.multistep import bdf_coefficients
from proxflow.numerics import TOL, seeded_rng
from proxflow.spectral import CompanionSpec, _coeff_rows, _lambda_grid


def random_batch(seed, n, degree, scale=1.5):
    return seeded_rng(seed).uniform(-scale, scale, (n, degree))


class TestFallback:
    def test_degree_one(self):
        rows = np.array([[0.3], [-2.0]])
        got = _kernels.max_root_modulus_batch(rows)
        assert np.allclose(got, [0.3, 2.0])

    def test_quadratic_branches(self):
        # real pair (z-2)(z+1), complex pair z^2 + 1, double root (z-1)^2
        rows = np.array([[-2.0, -1.0], [1.0, 0.0], [1.0, -2.0]])
        got = _kernels.max_root_modulus_batch(rows)
        assert np.allclose(got, [2.0, 1.0, 1.0])

    def test_matches_numpy_roots(self):
        for degree in (3, 4, 6, 10):
            rows = random_batch(degree, 200, degree)
            got = _kernels.max_root_modulus_batch(rows)
            for i in range(rows.shape[0]):
                coeffs = np.concatenate([[1.0], rows[i][::-1]])
                want = np.abs(np.roots(coeffs)).max()
                assert got[i] == pytest.approx(want, abs=1e-9)

    def test_all_zero_rows(self):
        rows = np.zeros((3, 4))
        got = _kernels.max_root_modulus_batch(rows)
        assert np.array_equal(got, np.zeros(3))

    def test_raises_no_warning(self):
        # random rows, rows with huge coefficients and rows with tiny
        # roots, which reach the kernel scaled, stability rows, and rows
        # that stop at the sweep cap
        batches = [random_batch(d + 100, 500, d) for d in (1, 2, 3, 4, 8, 16)]
        batches += [random_batch(d + 200, 100, d, scale=1e300) for d in (2, 3, 16)]
        batches += [random_batch(d + 300, 100, d, scale=1e-60) for d in (3, 16)]
        batches += [batch[:100] for batch in _repeated_root_rows()]
        for rows in batches + _stability_rows()[::3]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _kernels.max_root_modulus_batch(rows)


class TestOneBackend:
    """The ``backend=`` keyword and the facts ``run.json`` and the benchmark
    harness read: one kernel, named "fallback"."""

    def test_fallback_is_the_default(self):
        rows = random_batch(9, 40, 4)
        got = _kernels.max_root_modulus_batch(rows, backend="fallback")
        assert got.tobytes() == _kernels.max_root_modulus_batch(rows).tobytes()
        assert _kernels.backend_name() == "fallback"
        assert _kernels.HAVE_NATIVE is False

    @pytest.mark.parametrize("backend", ["native", None])
    def test_any_other_backend_is_an_error(self, backend):
        with pytest.raises(ValueError, match="backend must be 'fallback'"):
            _kernels.max_root_modulus_batch(random_batch(9, 4, 3), backend=backend)


@pytest.mark.parametrize("degree", [0, TOL.max_poly_degree + 1])
def test_degree_guard(degree):
    with pytest.raises(ValueError, match=f"degree must be in 1..{TOL.max_poly_degree}"):
        _kernels.max_root_modulus_batch(np.zeros((1, degree)))


def test_non_finite_rows_get_infinite_radius():
    rows = random_batch(5, 6, 3)
    rows[1, 0], rows[3, 2], rows[4, 1] = np.nan, np.inf, -np.inf
    got = _kernels.max_root_modulus_batch(rows)
    finite = np.isfinite(rows).all(axis=1)
    assert np.array_equal(got[~finite], np.full(3, np.inf))
    assert np.array_equal(got[finite], _kernels.max_root_modulus_batch(rows[finite]))


@pytest.mark.parametrize("degree", [3, 4, 16])
def test_every_row_class_in_one_batch_has_the_bytes_of_the_row_alone(degree):
    # one batch through every branch of the screen: a NaN row and an inf
    # row (radius inf), a huge row and a tiny row (solved scaled), a zero
    # row (radius 0), and more plain rows than the row path takes, so the
    # batch runs vectorized while each row alone runs row by row
    rng = seeded_rng(degree + 600)
    rows = rng.uniform(-1.5, 1.5, (2 * _kernels._ROW_PATH_ROWS + 5, degree))
    rows[1, 0] = np.nan
    rows[2, -1] = -np.inf
    rows[3, 0] = 1.5 * 2.0 ** (960 / (2 * degree - 1))
    # q_i = c_i s^(d-i) with |c_i| <= 1 has a root bound of at most s
    rows[4] = rng.uniform(-1.0, 1.0, degree) * 2.0 ** (-12.0 * np.arange(degree, 0, -1))
    rows[5] = 0.0
    got = _kernels.max_root_modulus_batch(rows)
    alone = np.concatenate([_kernels.max_root_modulus_batch(row[None, :]) for row in rows])
    assert got.tobytes() == alone.tobytes()
    assert got[1] == got[2] == np.inf and got[5] == 0.0
    assert 1.0 < got[3] < np.inf and 0.0 < got[4] < 2.0**-11


@pytest.mark.parametrize("degree", [2, 3, 4, 8, 16])
def test_huge_roots_keep_their_modulus(degree):
    # coefficients near 1e250, where the unscaled iteration overflows
    rng = seeded_rng(degree)
    roots = 10.0 ** (250 / degree) * rng.uniform(0.5, 2.0, degree) * rng.choice([-1.0, 1.0], degree)
    got = _kernels.max_root_modulus_batch(np.poly(roots)[:0:-1][None, :])
    assert got[0] == pytest.approx(np.abs(roots).max(), rel=1e-9)


@pytest.mark.parametrize("degree", [3, 4, 8, 16])
def test_tiny_roots_keep_their_modulus(degree):
    # roots near 1e-83 at degree 3 and 3e-16 at degree 16, far below the
    # iteration's stop at corrections of about 1e-13
    rng = seeded_rng(degree)
    roots = 10.0 ** (-250 / degree) * rng.uniform(0.5, 2.0, degree) * rng.choice([-1.0, 1.0], degree)
    got = _kernels.max_root_modulus_batch(np.poly(roots)[:0:-1][None, :])
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
        others = rng.uniform(-3.0, 3.0, (_kernels._ROW_PATH_ROWS + 1, row.size))
        alone = _kernels.max_root_modulus_batch(row[None, :])
        with mock.patch.object(_kernels, "_CHUNK", chunk):
            for at in (int(rng.integers(others.shape[0] + 1)), chunk + 1):
                batch = np.insert(others, at, row, axis=0)
                got = _kernels.max_root_modulus_batch(batch)
                assert got[at : at + 1].tobytes() == alone.tobytes()

    def test_rows_past_the_first_chunk_keep_their_bytes(self):
        # stability rows near a double root keep moving in the last bits
        # until they stop, so they show any row that stops late; a
        # repeated root stops only at the sweep cap
        for rows in _stability_rows()[::3] + _repeated_root_rows():
            whole = _kernels.max_root_modulus_batch(rows)
            reverse = _kernels.max_root_modulus_batch(rows[::-1])
            tail = _kernels.max_root_modulus_batch(rows[_kernels._CHUNK :])
            assert whole.tobytes() == reverse[::-1].tobytes()
            assert whole[_kernels._CHUNK :].tobytes() == tail.tobytes()


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


# a root, its multiplicity, and the radius the kernel gives the row of
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
        batch = random_batch(multiplicity + 400, _kernels._CHUNK + 2, multiplicity)
        batch[[0, -1]] = np.poly(np.full(multiplicity, root))[:0:-1]
        batches.append(batch)
    return batches


def both_paths(rows, kernel=None):
    """``kernel``'s radii of ``rows`` with every Durand–Kerner batch on the
    row path, then with every one on the vectorized path."""
    kernel = kernel or _kernels.max_root_modulus_batch
    with mock.patch.object(_kernels, "_ROW_PATH_ROWS", rows.shape[0]):
        row_path = kernel(rows)
    with mock.patch.object(_kernels, "_ROW_PATH_ROWS", 0):
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
        rows = random_batch(7, _kernels._ROW_PATH_ROWS + 2, 3)
        rows[0] = 0.0
        with mock.patch.object(_kernels, "_row_radius", wraps=_kernels._row_radius) as spy:
            _kernels._radii(rows[1:])
            assert spy.call_count == 0
            _kernels._radii(rows[:-1])
            assert spy.call_count == _kernels._ROW_PATH_ROWS

    @pytest.mark.parametrize("degree", [3, 4, 16])
    def test_non_finite_rows_on_both_sides_of_the_threshold(self, degree):
        # straight to the core, ``_radii``, which the screen never sends
        # such a row: both paths give it the radius 0
        rows = random_batch(degree + 500, 2 * _kernels._ROW_PATH_ROWS, degree)
        bad = [np.nan, np.inf, -np.inf]
        for i in range(0, rows.shape[0], 2):
            rows[i, i % degree] = bad[i % 3]
            rows[i, (3 * i + 1) % degree] = bad[(i + 1) % 3]
        small = _kernels._radii(rows[: _kernels._ROW_PATH_ROWS])
        large = _kernels._radii(rows)
        assert small.tobytes() == large[: small.size].tobytes()
        assert not large[::2].any()
        assert large.tobytes() == both_paths(rows, _kernels._radii)[0].tobytes()
