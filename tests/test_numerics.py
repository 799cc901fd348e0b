import numpy as np
import pytest

from proxflow import _kernels
from proxflow.numerics import (
    RankError,
    SingularMatrixError,
    SymmetryError,
    ValidationError,
    orthonormal_basis,
    polynomial_max_root_modulus,
    seeded_rng,
    solve_linear,
    sym_eigen,
)

from conftest import random_spd


class TestSymEigen:
    def test_diagonal(self):
        w = sym_eigen(np.diag([1.0, 2.0, 10.0]))
        assert np.allclose(w, [1.0, 2.0, 10.0])

    def test_identity(self):
        w = sym_eigen(np.eye(4))
        assert np.allclose(w, np.ones(4))

    def test_random_spd_trace_identity(self):
        a = random_spd(seeded_rng(0), 5)
        w = sym_eigen(a)
        assert np.all(w > 0)
        assert abs(w.sum() - np.trace(a)) <= 1e-9

    def test_ascending_order(self, rng):
        w = sym_eigen(random_spd(rng, 6))
        assert np.all(np.diff(w) >= 0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(SymmetryError):
            sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_orthogonal_similarity_invariance(self):
        rng = seeded_rng(21)
        for _ in range(10):
            q = random_spd(rng, 5)
            p = np.linalg.qr(rng.standard_normal((5, 5)))[0]
            rotated = p.T @ q @ p
            rotated = 0.5 * (rotated + rotated.T)
            w1 = sym_eigen(q)
            w2 = sym_eigen(rotated)
            assert np.abs(w1 - w2).max() <= 1e-8


class TestPolynomialMaxRootModulus:
    def test_roots_pm_one(self):
        assert polynomial_max_root_modulus([1.0, 0.0, -1.0]) == pytest.approx(1.0)

    def test_double_root(self):
        # (eta - 1/2)^2
        assert polynomial_max_root_modulus([1.0, -1.0, 0.25]) == pytest.approx(
            0.5, abs=1e-7
        )

    def test_cubic_factor(self):
        # eta^2 (eta - 0.9); cross-check against companion eigenvalues
        coeffs = [1.0, -0.9, 0.0, 0.0]
        got = polynomial_max_root_modulus(coeffs)
        comp = np.array([[0.9, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        want = np.abs(np.linalg.eigvals(comp)).max()
        assert got == pytest.approx(want, abs=1e-8)

    def test_matches_companion_eigenvalues(self):
        rng = seeded_rng(9)
        for degree in range(2, 9):
            tail = rng.uniform(-1.5, 1.5, degree)
            coeffs = np.concatenate([[1.0], tail])
            comp = np.zeros((degree, degree))
            comp[0, :] = -tail
            comp[1:, :-1] = np.eye(degree - 1)
            want = float(np.abs(np.linalg.eigvals(comp)).max())
            got = polynomial_max_root_modulus(coeffs)
            assert got == pytest.approx(want, abs=1e-8)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValidationError):
            polynomial_max_root_modulus([1.0])

    def test_rejects_nonmonic(self):
        with pytest.raises(ValidationError):
            polynomial_max_root_modulus([2.0, 0.0, -1.0])

    def test_rejects_degree_above_sixteen(self):
        with pytest.raises(ValidationError):
            polynomial_max_root_modulus([1.0] + [0.0] * 17)


def test_polynomial_is_the_batch_kernel_bit_for_bit():
    # one root-modulus path: the same bits as the kernel on the ascending row
    rng = seeded_rng(13)
    for degree in range(1, 17):
        for _ in range(5):
            tail = rng.uniform(-1.5, 1.5, degree)
            want = _kernels.max_root_modulus_batch(tail[::-1][None, :])[0]
            got = polynomial_max_root_modulus(np.concatenate([[1.0], tail]))
            assert np.float64(got).tobytes() == want.tobytes()


class TestSolveLinear:
    def test_identity(self):
        x = solve_linear(np.eye(2), np.array([3.0, -1.0]))
        assert np.allclose(x, [3.0, -1.0])

    def test_diagonal(self):
        x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_random_spd_residual(self):
        a = random_spd(seeded_rng(1), 6)
        b = seeded_rng(2).standard_normal(6)
        x = solve_linear(a, b)
        resid = np.linalg.norm(a @ x - b)
        bound = 1e-10 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
        assert resid <= bound

    def test_hundred_random_spd_systems(self):
        rng = seeded_rng(77)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            a = random_spd(rng, n)
            b = rng.standard_normal(n)
            x = solve_linear(a, b)
            resid = np.linalg.norm(a @ x - b)
            bound = 1e-10 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
            assert resid <= bound

    def test_singular_matrix_names_condition(self):
        with pytest.raises(SingularMatrixError, match="condition estimate"):
            solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0]))


class TestOrthonormalBasis:
    def test_single_unit_column(self):
        c = np.array([[1.0], [0.0], [0.0]])
        b = orthonormal_basis(c)
        assert np.allclose(np.abs(b), c)

    def test_two_column_span(self):
        e1 = np.array([1.0, 0.0, 0.0])
        c = np.column_stack([e1, e1 + np.array([0.0, 1.0, 0.0])])
        b = orthonormal_basis(c)
        assert np.abs(b.T @ b - np.eye(2)).max() <= 1e-12
        # span is the (1,2)-plane: e3 component absent
        assert np.abs(b[2]).max() <= 1e-12

    def test_large_random(self):
        rng = seeded_rng(2)
        c = rng.standard_normal((500, 400))
        b = orthonormal_basis(c)
        assert np.linalg.norm(b.T @ b - np.eye(400)) <= 1e-10
        proj = c - b @ (b.T @ c)
        assert np.linalg.norm(proj) <= 1e-9 * np.linalg.norm(c)

    def test_rank_deficient_reports_rank(self):
        c = np.ones((5, 3))
        with pytest.raises(RankError, match="rank 1"):
            orthonormal_basis(c)


class TestSeededRng:
    def test_determinism(self):
        a = seeded_rng(0).standard_normal(100)
        b = seeded_rng(0).standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_seeds(self):
        a = seeded_rng(0).standard_normal(100)
        b = seeded_rng(1).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_normal_moments(self):
        draws = seeded_rng(3).standard_normal(100000)
        assert abs(draws.mean()) <= 0.02
        assert abs(draws.var() - 1.0) <= 0.05

    def test_rejects_non_integer(self):
        with pytest.raises(ValidationError):
            seeded_rng(1.5)
