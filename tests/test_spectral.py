import csv

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from proxflow.experiments import emit_table
from proxflow.multistep import bdf_coefficients
from proxflow.numerics import ValidationError, seeded_rng
from proxflow.spectral import (
    _ALPHA_GRID_POINTS,
    CompanionSpec,
    _lambda_grid,
    _lattice_argmin,
    _worst_radius,
    beta_scan,
    companion_matrix,
    max_stable_alpha,
    optimal_rate,
    scalar_radius,
    simulate_companion_check,
    spectrum_radius,
)

from conftest import random_spd, random_symmetric_with_spectrum


def closed_form_tau1(lam, alpha, beta, m):
    a = 1.0 - alpha / beta - alpha * lam
    return abs(a**m + (1.0 - a**m) / (1.0 + beta * lam))


class TestScalarRadius:
    def test_frozen_iteration_limit(self):
        # alpha -> 0 freezes the iteration; the radius tends to 1
        spec = CompanionSpec(1, (1.0,), alpha=1e-12, beta=1.0, m=4)
        assert scalar_radius(2.0, spec) == pytest.approx(1.0, abs=1e-9)

    def test_boundary_value_exact(self):
        spec = CompanionSpec(1, (1.0,), alpha=2.0 / 3.0, beta=1.0, m=4)
        assert scalar_radius(2.0, spec) == pytest.approx(1.0, abs=1e-12)

    def test_large_m_reaches_exact_prox_rate(self):
        spec = CompanionSpec(1, (1.0,), alpha=0.4, beta=1.0, m=1000)
        assert scalar_radius(2.0, spec) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_matches_closed_form_tau1(self):
        rng = seeded_rng(8)
        for _ in range(50):
            alpha = float(rng.uniform(0.01, 1.5))
            beta = float(rng.uniform(0.2, 5.0))
            m = int(rng.integers(1, 12))
            lam = float(rng.uniform(0.0, 4.0))
            spec = CompanionSpec(1, (1.0,), alpha=alpha, beta=beta, m=m)
            assert scalar_radius(lam, spec) == pytest.approx(
                closed_form_tau1(lam, alpha, beta, m), abs=1e-12
            )

    def test_rejects_negative_lambda(self):
        spec = CompanionSpec(1, (1.0,), alpha=0.1, beta=1.0, m=1)
        with pytest.raises(ValidationError):
            scalar_radius(-0.5, spec)


class TestSpectrumRadius:
    def test_point_spectrum_equals_scalar(self):
        xi = tuple(bdf_coefficients(2)[0])
        spec = CompanionSpec(2, xi, alpha=0.3, beta=1.0, m=4)
        assert spectrum_radius(spec, 1.5, 1.5) == scalar_radius(1.5, spec)

    def test_known_interior_maximum(self):
        spec = CompanionSpec(1, (1.0,), alpha=0.5, beta=1.0, m=4)
        assert spectrum_radius(spec, 1.0, 2.0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_rows_give_infinite_radius(self):
        # a^200 overflows on every row, which then holds NaN or inf (with
        # overflow and invalid-value warnings from building the rows)
        xi = tuple(bdf_coefficients(3)[0])
        spec = CompanionSpec(3, xi, alpha=90.0, beta=10.0, m=200)
        assert spectrum_radius(spec, 1.0, 2.0) == np.inf

    def test_monotone_in_spectrum_enlargement(self):
        xi = tuple(bdf_coefficients(3)[0])
        spec = CompanionSpec(3, xi, alpha=0.15, beta=1.0, m=4)
        inner = spectrum_radius(spec, 1.0, 2.0)
        outer = spectrum_radius(spec, 0.5, 3.0)
        assert outer >= inner - 1e-12


def durand_kerner_stable_alpha(mu, lmax, beta, m, tau, xi):
    """``max_stable_alpha``'s bisection with its former root-modulus predicate."""
    spec = CompanionSpec(tau, xi, beta, beta, m)
    lams = _lambda_grid(mu, lmax)

    def stable(alpha):
        return _worst_radius(alpha, lams, spec) < 1.0

    hi = probe = 10.0 * beta
    if stable(hi):
        return hi
    for _ in range(60):
        probe /= 2.0
        if stable(probe):
            lo = probe
            break
    else:
        return 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo


class TestMaxStableAlpha:
    def test_ppm_beta1(self):
        got = max_stable_alpha(1.0, 2.0, 1.0, 4, 1, (1.0,))
        assert got.stable
        assert got.alpha == pytest.approx(0.667, abs=0.005)

    def test_ppm_beta10(self):
        got = max_stable_alpha(1.0, 2.0, 10.0, 4, 1, (1.0,))
        assert got.alpha == pytest.approx(0.952, abs=0.005)

    def test_bdf3_row(self):
        xi = tuple(bdf_coefficients(3)[0])
        got = max_stable_alpha(1.0, 10.0, 1.0, 4, 3, xi)
        assert got.alpha == pytest.approx(0.178, abs=0.02)

    def test_cap_is_flagged(self):
        # m = 1, tau = 1: the radius is max |1 - alpha lambda|, below 1 up to 2 / L
        got = max_stable_alpha(1.0, 1.0, 0.01, 1, 1, (1.0,))
        assert got == (10.0 * 0.01, True, True)
        assert not max_stable_alpha(1.0, 2.0, 1.0, 4, 1, (1.0,)).capped

    @given(
        tau=st.integers(1, 4),
        m=st.integers(1, 20),
        beta=st.floats(0.1, 10.0),
        lmax=st.floats(1.0, 10.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_stable_set_is_the_interval_below_the_bound(self, tau, m, beta, lmax):
        # the bisection and the optimal_rate lattice both assume the stable
        # alphas in (0, 10 beta] are exactly (0, alpha*]
        xi = tuple(bdf_coefficients(tau)[0])
        got = max_stable_alpha(1.0, lmax, beta, m, tau, xi)
        alphas = np.linspace(10.0 * beta / 64, 10.0 * beta, 64)
        spec = CompanionSpec(tau, xi, beta, beta, m)
        stable = _worst_radius(alphas[:, None], _lambda_grid(1.0, lmax), spec) < 1.0
        assert np.array_equal(stable, alphas <= got.alpha)

    @given(
        tau=st.integers(1, 4),
        m=st.integers(1, 20),
        beta=st.floats(0.1, 10.0),
        lmax=st.floats(1.0, 10.0),
    )
    # the widest gap seen, 5 ulp: in high precision, the radius at every
    # alpha of the gap is below 1 by 1e-16 to 4e-16, which neither
    # predicate resolves in float64
    @example(tau=3, m=1, beta=0.125, lmax=1.0)
    @settings(max_examples=25, deadline=None)
    def test_schur_cohn_bound_matches_root_modulus_bisection(self, tau, m, beta, lmax):
        # the predicates can disagree only within rounding of the boundary,
        # where the root-modulus radius itself can round to exactly 1
        xi = tuple(bdf_coefficients(tau)[0])
        got = max_stable_alpha(1.0, lmax, beta, m, tau, xi)
        want = durand_kerner_stable_alpha(1.0, lmax, beta, m, tau, xi)
        assert abs(got.alpha - want) <= 8 * np.spacing(want)
        if got.stable:
            spec = CompanionSpec(tau, xi, got.alpha, beta, m)
            assert spectrum_radius(spec, 1.0, lmax) <= 1.0 + 1e-12

    def test_boundary_is_sharp(self):
        got = max_stable_alpha(1.0, 2.0, 1.0, 4, 1, (1.0,))
        spec = CompanionSpec(1, (1.0,), alpha=got.alpha, beta=1.0, m=4)
        assert spectrum_radius(spec, 1.0, 2.0) < 1.0
        just_above = CompanionSpec(1, (1.0,), alpha=got.alpha * 1.001, beta=1.0, m=4)
        assert spectrum_radius(just_above, 1.0, 2.0) >= 1.0


class TestOptimalRate:
    def test_ppm_m4_beta1(self):
        got = optimal_rate(1.0, 2.0, 1.0, 4, 1, (1.0,))
        assert got.rho == pytest.approx(0.500, abs=0.005)

    def test_ppm_m4_beta10(self):
        got = optimal_rate(1.0, 2.0, 10.0, 4, 1, (1.0,))
        assert got.rho == pytest.approx(0.0935, abs=0.005)

    def test_bdf3_row_with_oracle_escape(self):
        xi = tuple(bdf_coefficients(3)[0])
        got = optimal_rate(1.0, 2.0, 10.0, 4, 3, xi)
        if abs(got.rho - 0.197) > 0.02:
            # reference mismatch: prove the computed radius matches the
            # actual iteration via the companion simulation oracle
            rng = seeded_rng(1)
            q = random_symmetric_with_spectrum(rng, [1.0, 1.4, 2.0])
            spec = CompanionSpec(3, xi, alpha=0.9 * got.alpha, beta=10.0, m=4)
            check = simulate_companion_check(spec, q, rng.standard_normal(3), 50)
            assert check.discrepancy <= 1e-9 * max(1.0, check.max_norm)

    def test_optimum_beats_neighbors(self):
        xi = tuple(bdf_coefficients(2)[0])
        got = optimal_rate(1.0, 2.0, 1.0, 4, 2, xi)
        for factor in (0.9, 1.1):
            spec = CompanionSpec(2, xi, alpha=got.alpha * factor, beta=1.0, m=4)
            other = spectrum_radius(spec, 1.0, 2.0)
            assert got.rho <= other + 1e-9


class TestAlphaLattice:
    @given(
        tau=st.sampled_from([1, 2]),
        m=st.integers(1, 20),
        beta=st.floats(0.1, 10.0),
        lmax=st.floats(1.0, 10.0),
    )
    # a narrow spectrum gives two basins: of equal depth at L = mu (the
    # first in lattice order wins), and at L = 1.0001 the deeper one is
    # not where the coarse minimum is
    @example(tau=2, m=2, beta=10.0, lmax=1.0)
    @example(tau=2, m=16, beta=10.0, lmax=1.0001)
    @settings(max_examples=20, deadline=None)
    def test_scan_picks_the_dense_argmin(self, tau, m, beta, lmax):
        # tau <= 2 radii are closed-form, so a value does not depend on its batch
        xi = tuple(bdf_coefficients(tau)[0])
        bound = max_stable_alpha(1.0, lmax, beta, m, tau, xi)
        assume(bound.stable)
        spec = CompanionSpec(tau, xi, bound.alpha, beta, m)
        lams = _lambda_grid(1.0, lmax)
        n = _ALPHA_GRID_POINTS
        alphas = np.linspace(bound.alpha / n, bound.alpha, n)
        dense = _worst_radius(alphas[:, None], lams, spec)
        best, rho = _lattice_argmin(alphas, lams, spec)
        assert best == int(np.argmin(dense))
        assert rho == dense[best]

    @pytest.mark.parametrize(
        "beta, rho, alpha",
        [
            (1.0, 0.49999999999999989, 0.42285156249999994),
            (10.0, 0.090909090909090898, 0.78543526785714279),
        ],
    )
    def test_plateau_cells_keep_the_first_lattice_minimum(self, beta, rho, alpha):
        # PPM m = 20, L = 2: the radius is flat to the last bit over a range
        # of alpha, and the first lattice point with the least rounding
        # noise is the reported alpha
        got = optimal_rate(1.0, 2.0, beta, 20, 1, (1.0,))
        assert got == (rho, alpha)


class TestBetaScan:
    def test_grid_point_matches_direct_evaluation(self):
        betas = [0.5, 1.0, 2.0]
        rows = beta_scan(1.0, 2.0, [4], 1.0, [1, 2], betas)
        for row in rows:
            xi = tuple(bdf_coefficients(row["tau"])[0])
            spec = CompanionSpec(row["tau"], xi, row["alpha"], row["beta"], row["m"])
            assert row["radius"] == spectrum_radius(spec, 1.0, 2.0)

    def test_large_beta_with_large_m_tends_to_zero(self):
        # spectrum kept inside the alpha = 1 stability region so the
        # curve can reach its exact-prox limit 1/(1 + beta mu)
        rows = beta_scan(0.5, 0.9, [200], 1.0, [1], [200.0])
        assert rows[0]["radius"] == pytest.approx(1.0 / 101.0, abs=5e-3)

    def test_unstable_small_beta_flagged(self):
        rows = beta_scan(1.0, 10.0, [4], 1.0, [3], [0.05])
        assert not rows[0]["stable"]

    def test_csv_roundtrip(self, tmp_path):
        rows = beta_scan(1.0, 2.0, [4], 1.0, [1, 2, 3], [0.5, 5.0])
        path = tmp_path / "scan.csv"
        emit_table(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau,m,alpha,beta,lambda_or_range,radius,stable"
        assert len(lines) == 1 + len(rows)
        parsed = list(csv.DictReader(lines))
        assert [float(r["radius"]) for r in parsed] == [r["radius"] for r in rows]
        assert {r["lambda_or_range"] for r in parsed} == {"[1,2]"}


class TestCompanionConsistency:
    def test_polynomial_matches_block_matrix_eigenvalues(self):
        rng = seeded_rng(17)
        for tau in (1, 2, 3, 4):
            xi = tuple(bdf_coefficients(tau)[0])
            for _ in range(5):
                n = int(rng.integers(2, 10))
                q = random_spd(rng, n)
                spec = CompanionSpec(
                    tau, xi, float(rng.uniform(0.02, 0.4)), 1.0, int(rng.integers(1, 8))
                )
                eigs = np.linalg.eigvalsh(q)
                poly_route = max(scalar_radius(float(lam), spec) for lam in eigs)
                m_mat = companion_matrix(spec, q)
                matrix_route = float(np.abs(np.linalg.eigvals(m_mat)).max())
                assert poly_route == pytest.approx(matrix_route, abs=1e-8)

    def test_simulation_trivial_single_map(self, rng):
        q = random_spd(rng, 3)
        spec = CompanionSpec(1, (1.0,), 0.2, 1.0, 1)
        check = simulate_companion_check(spec, q, rng.standard_normal(3), 30)
        assert check.discrepancy <= 1e-12

    def test_simulation_random_instances(self):
        rng = seeded_rng(23)
        for tau, m in ((2, 4), (3, 10)):
            xi = tuple(bdf_coefficients(tau)[0])
            q = random_spd(rng, 6)
            spec = CompanionSpec(tau, xi, 0.25, 1.0, m)
            steps = 50 if tau == 2 else 100
            check = simulate_companion_check(spec, q, rng.standard_normal(6), steps)
            assert check.discrepancy <= 1e-9 * max(1.0, check.max_norm)


class TestEmpiricalDecay:
    def test_simulated_rate_matches_radius(self):
        rng = seeded_rng(29)
        xi = tuple(bdf_coefficients(2)[0])
        spec = CompanionSpec(2, xi, alpha=0.3, beta=1.0, m=4)
        eigs = [1.0, 1.3, 1.7, 2.0]
        q = random_symmetric_with_spectrum(rng, eigs)
        rho = max(scalar_radius(lam, spec) for lam in eigs)
        m_mat = companion_matrix(spec, q)
        z = np.tile(rng.standard_normal(4), 2)
        errs = []
        for _ in range(300):
            z = m_mat @ z
            errs.append(np.linalg.norm(z))
        measured = (errs[299] / errs[99]) ** (1.0 / 200.0)
        assert measured == pytest.approx(rho, rel=0.02)
