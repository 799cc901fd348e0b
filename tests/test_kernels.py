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


class TestPolyRoots:
    def test_residuals_small(self):
        rng = seeded_rng(33)
        for degree in (2, 5, 9):
            tail = rng.uniform(-2, 2, degree)
            roots = _kernels.poly_roots(tail)
            coeffs = np.concatenate([[1.0], tail[::-1]])
            residuals = np.abs(np.polyval(coeffs, roots))
            assert residuals.max() <= 1e-8 * np.abs(coeffs).max()
