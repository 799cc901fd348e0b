import math

import numpy as np
import pytest

from proxflow.altproj_accel import (
    multistep_altproj_radius,
    prescribed_angle_pair,
    projection_spectrum,
    tuned_xi2,
    verify_rate,
)
from proxflow.experiments import gen_subspaces
from proxflow.numerics import ValidationError, seeded_rng
from proxflow.spectral import spectrum_radius


class TestProjectionSpectrum:
    def test_identical_subspaces_degenerate(self, rng):
        c = rng.standard_normal((10, 3))
        pair = gen_subspaces(10, 3, 0.0, 4)
        assert np.allclose(pair.c1, pair.c2)
        spectrum = projection_spectrum(pair)
        assert spectrum.rho is None
        assert np.all(spectrum.eigenvalues >= 1 - 1e-10)

    def test_orthogonal_subspaces(self):
        pair = prescribed_angle_pair([np.pi / 2, np.pi / 2])
        spectrum = projection_spectrum(pair)
        assert np.abs(spectrum.eigenvalues).max() <= 1e-12
        assert spectrum.rho == pytest.approx(1.0)

    def test_prescribed_angles_are_exact(self):
        angles = np.array([0.2, 0.7, 1.1])
        pair = prescribed_angle_pair(angles, seed=3)
        spectrum = projection_spectrum(pair)
        want = np.sort(np.cos(angles) ** 2)
        got = np.sort(spectrum.eigenvalues)
        assert np.abs(got - want).max() <= 1e-10

    def test_random_pair_coherency(self):
        pair = gen_subspaces(40, 8, 1.0, 11)
        spectrum = projection_spectrum(pair)
        # sigma = 1: independent subspaces, smallest angle bounded away from 0
        assert math.acos(math.sqrt(spectrum.eigenvalues.max())) > 1e-3


class TestMultistepAltprojRadius:
    def test_single_step_is_lambda(self):
        assert multistep_altproj_radius(0.37, (1.0,)) == 0.37

    def test_nilpotent_at_zero(self):
        assert multistep_altproj_radius(0.0, (-1 / 3, 4 / 3)) == 0.0
        assert multistep_altproj_radius(0.0, (0.1, -0.4, 1.3)) == 0.0

    def test_bdf2_quarter(self):
        got = multistep_altproj_radius(0.25, (-1 / 3, 4 / 3))
        assert got == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-12)

    def test_cubic_route_matches_generic_solver(self):
        rng = seeded_rng(42)
        for _ in range(30):
            lam = float(rng.uniform(0, 1))
            a, b = rng.uniform(-1, 1, 2)
            xi = (float(a), float(b), 1.0 - float(a) - float(b))
            got = multistep_altproj_radius(lam, xi)
            comp = np.array(
                [[xi[2] * lam, xi[1] * lam, xi[0] * lam], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
            )
            want = float(np.abs(np.linalg.eigvals(comp)).max())
            assert got == pytest.approx(want, abs=1e-8)

    def test_coincides_with_companion_polynomial(self):
        # the projection recursion is the quadratic-stability recursion
        # with a = 0 and b = lambda (m = 1, alpha/beta = lambda)
        rng = seeded_rng(7)
        for _ in range(50):
            lam = float(rng.uniform(0.05, 0.95))
            tau = int(rng.integers(1, 4))
            free = rng.uniform(-0.7, 0.7, tau - 1)
            xi = tuple(free) + (1.0 - float(free.sum()),)
            beta = 1.0
            alpha = lam * beta
            lam_q = (1.0 - lam) / alpha
            assert multistep_altproj_radius(lam, xi) == pytest.approx(
                spectrum_radius([xi], alpha, [beta], 1, lam_q, lam_q)[0, 0], abs=1e-12
            )


class TestTunedXi2:
    def test_quarter_is_bdf2_exactly(self):
        xi1, xi2 = tuned_xi2(0.25)
        assert xi1 == -1.0 / 3.0
        assert xi2 == 4.0 / 3.0

    def test_radius_grid(self):
        for i in range(1, 100):
            rho = i / 100.0
            xi = tuned_xi2(rho)
            assert abs(sum(xi) - 1.0) <= 1e-12
            radius = multistep_altproj_radius(1.0 - rho, xi)
            assert abs(radius - (1.0 - math.sqrt(rho))) <= 1e-9
            assert radius <= (1.0 - rho) + 1e-15

    def test_small_rho_acceleration(self):
        xi = tuned_xi2(0.01)
        assert multistep_altproj_radius(0.99, xi) == pytest.approx(0.9, abs=1e-9)

    def test_rho_near_one_degenerates_to_single_step(self):
        xi1, xi2 = tuned_xi2(1.0 - 1e-9)
        assert xi1 == pytest.approx(0.0, abs=1e-4)
        assert xi2 == pytest.approx(1.0, abs=1e-4)
        assert multistep_altproj_radius(1e-9, (xi1, xi2)) <= 1e-4

    def test_rejects_out_of_range(self):
        for rho in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValidationError):
                tuned_xi2(rho)


class TestVerifyRate:
    def test_single_step_rate(self):
        rho = 0.25
        theta = math.acos(math.sqrt(1.0 - rho))
        pair = prescribed_angle_pair([theta] * 3, ambient=10, seed=2)
        fit = verify_rate(pair, (1.0,), 300)
        assert fit.rate == pytest.approx(1.0 - rho, rel=0.02)

    def test_tuned_two_step_rate(self):
        rho = 0.04
        theta = math.acos(math.sqrt(1.0 - rho))
        pair = prescribed_angle_pair([theta] * 3, ambient=10, seed=2)
        fit = verify_rate(pair, tuned_xi2(rho), 400)
        assert fit.rate == pytest.approx(1.0 - math.sqrt(rho), rel=0.03)

    def test_bdf2_on_quarter_lambda(self):
        lam = 0.25
        theta = math.acos(math.sqrt(lam))
        pair = prescribed_angle_pair([theta] * 2, ambient=8, seed=5)
        fit = verify_rate(pair, (-1 / 3, 4 / 3), 120)
        assert fit.rate == pytest.approx(math.sqrt(1.0 / 12.0), rel=0.03)

    def test_underflow_flags_truncation(self):
        pair = prescribed_angle_pair([math.pi / 2 * 0.999] * 2, ambient=8, seed=6)
        fit = verify_rate(pair, (1.0,), 4000)
        assert fit.truncated
