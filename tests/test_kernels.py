import re
import warnings

import numpy as np
import pytest

from proxflow import _kernels
from proxflow.numerics import TOL, seeded_rng

needs_native = pytest.mark.skipif(
    not _kernels.HAVE_NATIVE, reason="native kernel not built"
)
BACKENDS = ["fallback", "native"] if _kernels.HAVE_NATIVE else ["fallback"]


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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("degree", [0, TOL.max_poly_degree + 1])
def test_degree_guard(backend, degree):
    with pytest.raises(ValueError, match=f"degree must be in 1..{TOL.max_poly_degree}"):
        _kernels.max_root_modulus_batch(np.zeros((1, degree)), backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_non_finite_rows_get_infinite_radius(backend):
    rows = random_batch(5, 6, 3)
    rows[1, 0], rows[3, 2], rows[4, 1] = np.nan, np.inf, -np.inf
    got = _kernels.max_root_modulus_batch(rows, backend=backend)
    finite = np.isfinite(rows).all(axis=1)
    assert np.array_equal(got[~finite], np.full(3, np.inf))
    assert np.array_equal(
        got[finite], _kernels.max_root_modulus_batch(rows[finite], backend=backend)
    )


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

    @pytest.mark.parametrize("degree", [0, TOL.max_poly_degree + 1])
    def test_degree_guard_matches_root_modulus(self, degree):
        rows = np.zeros((1, degree))
        with pytest.raises(ValueError) as want:
            _kernels.max_root_modulus_batch(rows)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            _kernels.schur_stable_batch(rows)


@needs_native
class TestNativeParity:
    def test_matches_fallback(self):
        for degree in (1, 2, 3, 4, 8, 16):
            rows = random_batch(degree + 100, 500, degree)
            fb = _kernels.max_root_modulus_batch(rows, backend="fallback")
            nat = _kernels.max_root_modulus_batch(rows, backend="native")
            assert np.abs(fb - nat).max() <= 1e-10

    def test_is_faster_on_large_batch(self):
        # smoke benchmark: the compiled kernel should not be slower
        import time

        rows = random_batch(1, 200000, 3)
        t0 = time.perf_counter()
        _kernels.max_root_modulus_batch(rows, backend="fallback")
        t_fb = time.perf_counter() - t0
        t0 = time.perf_counter()
        _kernels.max_root_modulus_batch(rows, backend="native")
        t_nat = time.perf_counter() - t0
        assert t_nat <= t_fb * 1.5

