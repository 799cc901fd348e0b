import csv
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from proxflow import _kernels, spectral
from proxflow.experiments import emit_table
from proxflow.multistep import bdf_coefficients
from proxflow.numerics import ValidationError, seeded_rng
from proxflow.spectral import (
    _ALPHA_GRID_POINTS,
    _COARSE_STRIDE,
    CompanionSpec,
    StableAlpha,
    _coeff_rows,
    _group_max_radius,
    _inside,
    _lambda_grid,
    _lattice_argmin,
    _rows,
    _worst_radius,
    beta_scan,
    companion_matrix,
    max_stable_alpha,
    optimal_rate,
    simulate_companion_check,
    spectrum_radius,
)

from conftest import random_spd, random_symmetric_with_spectrum


def radius(spec, mu, lmax):
    """``spectrum_radius`` of one spec."""
    return float(spectrum_radius([spec.xi], spec.alpha, [spec.beta], spec.m, mu, lmax)[0, 0])


def closed_form_tau1(lam, alpha, beta, m):
    a = 1.0 - alpha / beta - alpha * lam
    return abs(a**m + (1.0 - a**m) / (1.0 + beta * lam))


class TestScalarRadius:
    def test_frozen_iteration_limit(self):
        # alpha -> 0 freezes the iteration; the radius tends to 1
        spec = CompanionSpec((1.0,), alpha=1e-12, beta=1.0, m=4)
        assert radius(spec, 2.0, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_boundary_value_exact(self):
        spec = CompanionSpec((1.0,), alpha=2.0 / 3.0, beta=1.0, m=4)
        assert radius(spec, 2.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_large_m_reaches_exact_prox_rate(self):
        spec = CompanionSpec((1.0,), alpha=0.4, beta=1.0, m=1000)
        assert radius(spec, 2.0, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_matches_closed_form_tau1(self):
        rng = seeded_rng(8)
        for _ in range(50):
            alpha = float(rng.uniform(0.01, 1.5))
            beta = float(rng.uniform(0.2, 5.0))
            m = int(rng.integers(1, 12))
            lam = float(rng.uniform(0.0, 4.0))
            spec = CompanionSpec((1.0,), alpha=alpha, beta=beta, m=m)
            assert radius(spec, lam, lam) == pytest.approx(
                closed_form_tau1(lam, alpha, beta, m), abs=1e-12
            )

    def test_rejects_negative_lambda(self):
        spec = CompanionSpec((1.0,), alpha=0.1, beta=1.0, m=1)
        with pytest.raises(ValidationError):
            radius(spec, -0.5, -0.5)


class TestSpectrumRadius:
    def test_known_interior_maximum(self):
        spec = CompanionSpec((1.0,), alpha=0.5, beta=1.0, m=4)
        assert radius(spec, 1.0, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_overflowing_rows_give_infinite_radius(self):
        # a^200 overflows on every row, which then holds NaN or inf; no
        # overflow or invalid-value warning escapes from building the rows
        xi = tuple(bdf_coefficients(3)[0])
        spec = CompanionSpec(xi, alpha=90.0, beta=10.0, m=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert radius(spec, 1.0, 2.0) == np.inf

    def test_monotone_in_spectrum_enlargement(self):
        xi = tuple(bdf_coefficients(3)[0])
        spec = CompanionSpec(xi, alpha=0.15, beta=1.0, m=4)
        inner = radius(spec, 1.0, 2.0)
        outer = radius(spec, 0.5, 3.0)
        assert outer >= inner - 1e-12


def every_row_maximum(alphas, lams, spec):
    """Each alpha's worst-case radius from the kernel on every grid row."""
    radii = _kernels.max_root_modulus_batch(_coeff_rows(alphas[:, None], lams, spec))
    return radii.reshape(alphas.size, lams.size).max(axis=1)


class TestCertifiedMaximum:
    """The endpoint-plus-certificate maximum has the bits of every row's."""

    @given(
        tau=st.integers(3, 8),
        bdf=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 20),
        beta=st.floats(0.1, 10.0),
        lmax=st.floats(1.0, 10.0),
        one_point=st.booleans(),
        steps=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=4),
    )
    # a^200 overflows at alpha = 90: every row of that alpha has the radius
    # inf, and so do its endpoints
    @example(tau=3, bdf=True, seed=0, m=200, beta=10.0, lmax=2.0, one_point=False, steps=[9.0, 0.01])
    @settings(max_examples=25, deadline=None)
    def test_equals_the_maximum_over_every_row(
        self, tau, bdf, seed, m, beta, lmax, one_point, steps
    ):
        # BDF weights at tau 3 and 4, else random affine weights (sum 1);
        # alpha is a multiple of beta up to 10 beta, as in max_stable_alpha
        if bdf and tau <= 4:
            xi = tuple(bdf_coefficients(tau)[0])
        else:
            w = seeded_rng(seed).uniform(-1.0, 1.0, tau)
            w[-1] = 1.0 - w[:-1].sum()
            xi = tuple(w)
        mu = lmax if one_point else 1.0
        lams = _lambda_grid(mu, lmax)
        alphas = beta * np.array(steps)
        spec = CompanionSpec(xi, beta, beta, m)
        want = every_row_maximum(alphas, lams, spec)
        assert _worst_radius(alphas[:, None], lams, spec).tobytes() == want.tobytes()
        got = [spectrum_radius([xi], float(a), [beta], m, mu, lmax)[0] for a in alphas]
        assert np.concatenate(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "m, beta, lmax",
        [(4, 1.0, 2.0), (4, 10.0, 2.0), (20, 1.0, 2.0), (20, 1.0, 10.0), (20, 10.0, 2.0), (20, 10.0, 10.0)],
    )
    def test_bdf3_cells_with_an_interior_worst_lambda(self, m, beta, lmax):
        # the 6 bdf3 cells of table 3 whose worst lambda at the reported
        # alpha lies inside (mu, L): optimal_rate's coarse alpha lattice and
        # the reported alpha, where an inner row exceeds both endpoints by
        # only about 1e-12
        xi = tuple(bdf_coefficients(3)[0])
        bound = max_stable_alpha(1.0, lmax, beta, m, xi).alpha
        n = _ALPHA_GRID_POINTS
        lattice = np.linspace(bound / n, bound, n)[::_COARSE_STRIDE]
        alphas = np.append(lattice, optimal_rate(1.0, lmax, beta, m, xi).alpha)
        lams = _lambda_grid(1.0, lmax)
        spec = CompanionSpec(xi, beta, beta, m)
        want = every_row_maximum(alphas, lams, spec)
        radii = _kernels.max_root_modulus_batch(_coeff_rows(alphas[:, None], lams, spec))
        worst = radii.reshape(alphas.size, lams.size).argmax(axis=1)
        # the endpoints do not give the maximum of some alphas
        assert ((worst > 0) & (worst < lams.size - 1)).any()
        assert _worst_radius(alphas[:, None], lams, spec).tobytes() == want.tobytes()


def every_row_stable_alpha(mu, lmax, beta, m, xi, stable):
    """``max_stable_alpha``'s bisection as first written: every probe asks
    ``stable(alpha, lams, spec)`` of every lambda row, for all 60 steps."""
    spec = CompanionSpec(xi, beta, beta, m)
    lams = _lambda_grid(mu, lmax)
    hi = probe = 10.0 * beta
    if stable(hi, lams, spec):
        return StableAlpha(hi, True, capped=True)
    for _ in range(60):
        probe /= 2.0
        if stable(probe, lams, spec):
            lo = probe
            break
    else:
        return StableAlpha(0.0, False)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if stable(mid, lams, spec):
            lo = mid
        else:
            hi = mid
    return StableAlpha(lo, True)


def schur_cohn_stable(alpha, lams, spec):
    return _kernels.schur_stable_batch(_coeff_rows(alpha, lams, spec)).all()


def root_modulus_stable(alpha, lams, spec):
    """The former predicate of ``max_stable_alpha``."""
    return _worst_radius(alpha, lams, spec) < 1.0


# (tau, m, beta, L) of every table cell: table 2's are the m = 4 ones
TABLE_CELLS = [
    (tau, m, beta, lmax)
    for tau in (1, 2, 3)
    for m in (4, 20)
    for beta in (1.0, 10.0)
    for lmax in (2.0, 10.0)
]


@pytest.fixture
def schur_rows(monkeypatch):
    """A log of the row count of every ``schur_stable_batch`` call."""
    sizes = []
    schur = _kernels.schur_stable_batch

    def counting(coeffs):
        sizes.append(coeffs.shape[0])
        return schur(coeffs)

    monkeypatch.setattr(_kernels, "schur_stable_batch", counting)
    return sizes


class TestStableAlphaShortcuts:
    """The L row first and the one-ulp stop keep every bit."""

    def test_table_cells_equal_the_every_row_bisection(self):
        for tau, m, beta, lmax in TABLE_CELLS:
            xi = tuple(bdf_coefficients(tau)[0])
            got = max_stable_alpha(1.0, lmax, beta, m, xi)
            want = every_row_stable_alpha(1.0, lmax, beta, m, xi, schur_cohn_stable)
            assert (got.alpha.hex(), got.stable, got.capped) == (
                want.alpha.hex(), want.stable, want.capped
            )

    @given(
        tau=st.integers(1, 4),
        m=st.integers(1, 20),
        beta=st.floats(0.1, 10.0),
        lmax=st.floats(1.0, 10.0),
    )
    # a root pair that meets the unit circle as a double root at L (beta L
    # = 4 at tau 3, m = 1), and a capped cell
    @example(tau=3, m=1, beta=1.0, lmax=4.0)
    @example(tau=1, m=1, beta=0.1, lmax=1.0)
    @settings(max_examples=40, deadline=None)
    def test_random_cells_equal_the_every_row_bisection(self, tau, m, beta, lmax):
        xi = tuple(bdf_coefficients(tau)[0])
        got = max_stable_alpha(1.0, lmax, beta, m, xi)
        want = every_row_stable_alpha(1.0, lmax, beta, m, xi, schur_cohn_stable)
        assert (got.alpha.hex(), got.stable, got.capped) == (
            want.alpha.hex(), want.stable, want.capped
        )

    def test_neighbour_cells_equal_the_every_row_bisection(self):
        # the bdf3, m = 4, beta = 1, L = 10 cell with one input changed
        bdf2, bdf3 = (tuple(bdf_coefficients(tau)[0]) for tau in (2, 3))
        changed = [
            (0.5, 10.0, 1.0, 4, bdf3),
            (1.0, 2.0, 1.0, 4, bdf3),
            (1.0, 10.0, 10.0, 4, bdf3),
            (1.0, 10.0, 1.0, 20, bdf3),
            (1.0, 10.0, 1.0, 4, bdf2),
            (1.0, 10.0, 1.0, 4, (0.25, -1.0, 1.75)),
        ]
        for args in changed:
            assert max_stable_alpha(*args) == every_row_stable_alpha(*args, schur_cohn_stable)

    def test_a_failing_probe_mostly_tests_one_row(self, schur_rows, monkeypatch):
        # every probe first tests the L row, and the full 514 rows
        # only when it passes: the bdf3, m = 4, beta = 1, L = 10 cell takes
        # 65 probes, 29 of them full, about 0.45 of 514 rows per probe
        grids = []

        def recording(alpha, lams, spec):
            grids.append(np.ndim(lams))
            return _coeff_rows(alpha, lams, spec)

        monkeypatch.setattr(spectral, "_coeff_rows", recording)
        max_stable_alpha(1.0, 10.0, 1.0, 4, tuple(bdf_coefficients(3)[0]))
        # the L row comes from a slice of the grid, never from a numpy
        # scalar, whose ** can differ in the last bit from the array **
        assert set(grids) == {1}
        lams = _lambda_grid(1.0, 10.0).size
        assert set(schur_rows) == {1, lams}
        probes = schur_rows.count(1)
        assert schur_rows.count(lams) < probes / 2
        assert sum(schur_rows) < lams * probes / 2


class TestMaxStableAlpha:
    def test_ppm_beta1(self):
        got = max_stable_alpha(1.0, 2.0, 1.0, 4, (1.0,))
        assert got.stable
        assert got.alpha == pytest.approx(0.667, abs=0.005)

    def test_ppm_beta10(self):
        got = max_stable_alpha(1.0, 2.0, 10.0, 4, (1.0,))
        assert got.alpha == pytest.approx(0.952, abs=0.005)

    def test_bdf3_row(self):
        xi = tuple(bdf_coefficients(3)[0])
        got = max_stable_alpha(1.0, 10.0, 1.0, 4, xi)
        assert got.alpha == pytest.approx(0.178, abs=0.02)

    def test_cap_is_flagged(self):
        # m = 1, tau = 1: the radius is max |1 - alpha lambda|, below 1 up to 2 / L
        got = max_stable_alpha(1.0, 1.0, 0.01, 1, (1.0,))
        assert got == (10.0 * 0.01, True, True)
        assert not max_stable_alpha(1.0, 2.0, 1.0, 4, (1.0,)).capped

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
        got = max_stable_alpha(1.0, lmax, beta, m, xi)
        alphas = np.linspace(10.0 * beta / 64, 10.0 * beta, 64)
        spec = CompanionSpec(xi, beta, beta, m)
        stable = _worst_radius(alphas[:, None], _lambda_grid(1.0, lmax), spec) < 1.0
        assert np.array_equal(stable, alphas <= got.alpha)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 8: the Schur–Cohn bound stops short of the boundary",
    )
    @pytest.mark.parametrize(
        "tau, beta, lmax",
        [
            # a root pair meets the circle as a double root at lambda = L:
            # the root-modulus bisection gives 0.8461538461538459,
            # max_stable_alpha 0.8461538420203853, 3.7e7 ulp short
            (3, 1.0, 4.0),
            # 0.9900674911402374 against 0.9900674911402363, 10 ulp short
            (4, 3.0, 3.0),
        ],
    )
    def test_short_cells_match_root_modulus_bisection(self, tau, beta, lmax):
        # the 8-ulp bound of the hypothesis test below, on m = 1 cells
        # where max_stable_alpha is known to miss it
        xi = tuple(bdf_coefficients(tau)[0])
        got = max_stable_alpha(1.0, lmax, beta, 1, xi)
        want = every_row_stable_alpha(1.0, lmax, beta, 1, xi, root_modulus_stable).alpha
        assert abs(got.alpha - want) <= 8 * np.spacing(want)

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
        got = max_stable_alpha(1.0, lmax, beta, m, xi)
        want = every_row_stable_alpha(1.0, lmax, beta, m, xi, root_modulus_stable).alpha
        assert abs(got.alpha - want) <= 8 * np.spacing(want)
        if got.stable:
            spec = CompanionSpec(xi, got.alpha, beta, m)
            assert radius(spec, 1.0, lmax) <= 1.0 + 1e-12

    def test_boundary_is_sharp(self):
        got = max_stable_alpha(1.0, 2.0, 1.0, 4, (1.0,))
        spec = CompanionSpec((1.0,), alpha=got.alpha, beta=1.0, m=4)
        assert radius(spec, 1.0, 2.0) < 1.0
        just_above = CompanionSpec((1.0,), alpha=got.alpha * 1.001, beta=1.0, m=4)
        assert radius(just_above, 1.0, 2.0) >= 1.0


class TestOptimalRate:
    def test_ppm_m4_beta1(self):
        got = optimal_rate(1.0, 2.0, 1.0, 4, (1.0,))
        assert got.rho == pytest.approx(0.500, abs=0.005)
        # the search's bound is the table-2 value of the cell
        assert got.alpha_max == max_stable_alpha(1.0, 2.0, 1.0, 4, (1.0,)).alpha

    def test_ppm_m4_beta10(self):
        got = optimal_rate(1.0, 2.0, 10.0, 4, (1.0,))
        assert got.rho == pytest.approx(0.0935, abs=0.005)

    def test_bdf3_row_with_oracle_escape(self):
        xi = tuple(bdf_coefficients(3)[0])
        got = optimal_rate(1.0, 2.0, 10.0, 4, xi)
        if abs(got.rho - 0.197) > 0.02:
            # reference mismatch: prove the computed radius matches the
            # actual iteration via the companion simulation oracle
            rng = seeded_rng(1)
            q = random_symmetric_with_spectrum(rng, [1.0, 1.4, 2.0])
            spec = CompanionSpec(xi, alpha=0.9 * got.alpha, beta=10.0, m=4)
            check = simulate_companion_check(spec, q, rng.standard_normal(3), 50)
            assert check.discrepancy <= 1e-9 * max(1.0, check.max_norm)

    def test_optimum_beats_neighbors(self):
        xi = tuple(bdf_coefficients(2)[0])
        got = optimal_rate(1.0, 2.0, 1.0, 4, xi)
        for factor in (0.9, 1.1):
            spec = CompanionSpec(xi, alpha=got.alpha * factor, beta=1.0, m=4)
            other = radius(spec, 1.0, 2.0)
            assert got.rho <= other + 1e-9


@pytest.fixture
def kernel_rows(monkeypatch):
    """A log of the row count of every root-modulus kernel call."""
    sizes = []
    kernel = _kernels.max_root_modulus_batch

    def recording(coeffs):
        sizes.append(coeffs.shape[0])
        return kernel(coeffs)

    monkeypatch.setattr(_kernels, "max_root_modulus_batch", recording)
    return sizes


class TestSingleGridCertificate:
    """One alpha's worst radius over one grid, as a golden-section probe
    asks for it, is certified too and keeps the bits of every row's."""

    @pytest.mark.parametrize("tau", [3, 4])
    def test_a_probe_makes_an_endpoint_call_and_an_uncertified_row_call(self, tau, kernel_rows):
        # the reported alpha of a table-3 cell, where an inner row exceeds
        # both endpoints at tau 3
        xi = tuple(bdf_coefficients(tau)[0])
        alpha = optimal_rate(1.0, 2.0, 10.0, 20, xi).alpha
        lams = _lambda_grid(1.0, 2.0)
        spec = CompanionSpec(xi, alpha, 10.0, 20)
        kernel_rows.clear()
        got = _worst_radius(alpha, lams, spec)
        assert len(kernel_rows) == 2 and kernel_rows[0] == 2
        assert 0 < kernel_rows[1] <= _kernels._ROW_PATH_ROWS
        assert got.hex() == float(every_row_maximum(np.array([alpha]), lams, spec)[0]).hex()

    def test_table_cells_golden_probes_equal_the_every_row_maximum(self, monkeypatch):
        # every one-alpha call of optimal_rate on the 24 table-3 cells: 42
        # golden-section probes and the fine pass's w0 per cell, and a fine
        # pass that keeps a single alpha
        worst_radius = spectral._worst_radius
        probes = []

        def checked(alpha, lams, spec):
            got = worst_radius(alpha, lams, spec)
            if np.size(alpha) == 1:
                want = every_row_maximum(np.ravel(alpha), lams, spec)
                assert np.array(got, ndmin=1).tobytes() == want.tobytes()
                probes.append(spec.tau)
            return got

        monkeypatch.setattr(spectral, "_worst_radius", checked)
        for tau, m, beta, lmax in TABLE_CELLS:
            optimal_rate(1.0, lmax, beta, m, tuple(bdf_coefficients(tau)[0]))
        assert probes.count(3) >= 8 * 43

    @given(
        tau=st.integers(3, 4),
        m=st.integers(1, 20),
        beta=st.floats(0.1, 10.0),
        lmax=st.floats(1.0, 10.0),
        fraction=st.floats(1e-3, 1.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_cells_equal_the_every_row_maximum(self, tau, m, beta, lmax, fraction):
        # alpha a fraction of the cell's max stable alpha, past it too
        xi = tuple(bdf_coefficients(tau)[0])
        bound = max_stable_alpha(1.0, lmax, beta, m, xi)
        assume(bound.stable)
        alpha = fraction * bound.alpha
        lams = _lambda_grid(1.0, lmax)
        spec = CompanionSpec(xi, alpha, beta, m)
        want = every_row_maximum(np.array([alpha]), lams, spec)
        assert _worst_radius(alpha, lams, spec).hex() == float(want[0]).hex()


def every_alpha_fine_pass(alphas, lams, spec):
    """``_lattice_argmin`` with its fine pass as first written: the worst
    radius of every fine alpha, from all its grid rows."""
    coarse = np.arange(0, alphas.size, _COARSE_STRIDE)
    worst = _worst_radius(alphas[coarse, None], lams, spec)
    padded = np.pad(worst, 1, constant_values=np.inf)
    low = np.minimum(padded[:-2], padded[2:])
    high = np.maximum(padded[:-2], padded[2:])
    bottom = worst <= worst.min() + spectral._PLATEAU_TOL
    basin = (worst <= low) & (worst + spectral._PLATEAU_TOL < high)
    fine = np.zeros(alphas.size, dtype=bool)
    for c in coarse[bottom | basin]:
        fine[max(c - _COARSE_STRIDE, 0) : c + _COARSE_STRIDE + 1] = True
    index = np.flatnonzero(fine)
    worst = _worst_radius(alphas[index, None], lams, spec)
    best = int(np.argmin(worst))
    return int(index[best]), float(worst[best])


def lattice_cell(tau, m, beta, lmax):
    """``optimal_rate``'s lattice, grid and spec of one cell, or None when
    no step size is stable."""
    xi = tuple(bdf_coefficients(tau)[0])
    bound = max_stable_alpha(1.0, lmax, beta, m, xi)
    if not bound.stable:
        return None
    n = _ALPHA_GRID_POINTS
    alphas = np.linspace(bound.alpha / n, bound.alpha, n)
    return alphas, _lambda_grid(1.0, lmax), CompanionSpec(xi, bound.alpha, beta, m)


def same_argmin(got, want):
    """Equal index and radius bits."""
    return got[0] == want[0] and got[1].hex() == want[1].hex()


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
        bound = max_stable_alpha(1.0, lmax, beta, m, xi)
        assume(bound.stable)
        spec = CompanionSpec(xi, bound.alpha, beta, m)
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
        got = optimal_rate(1.0, 2.0, beta, 20, (1.0,))
        assert (got.rho, got.alpha) == (rho, alpha)

    @pytest.mark.parametrize("tau, m, beta, lmax", TABLE_CELLS)
    def test_table_cells_equal_the_every_alpha_fine_pass(self, tau, m, beta, lmax):
        alphas, lams, spec = lattice_cell(tau, m, beta, lmax)
        assert same_argmin(_lattice_argmin(alphas, lams, spec), every_alpha_fine_pass(alphas, lams, spec))

    @given(
        tau=st.integers(1, 4),
        m=st.integers(1, 20),
        beta=st.floats(0.1, 10.0),
        lmax=st.floats(1.0, 10.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_cells_equal_the_every_alpha_fine_pass(self, tau, m, beta, lmax):
        cell = lattice_cell(tau, m, beta, lmax)
        assume(cell is not None)
        assert same_argmin(_lattice_argmin(*cell), every_alpha_fine_pass(*cell))

    def test_an_alpha_whose_bound_ties_w0_is_computed(self, monkeypatch):
        # made-up radii: a plateau of 0.5 on lattice points 10..20, whose
        # endpoint bound is 0.3 except at point 10, where the endpoints set
        # the worst radius. w0 = 0.5 comes from point 11, and point 10, whose
        # bound equals w0, is the first argmin
        worst = np.full(_ALPHA_GRID_POINTS, 0.9)
        worst[10:21] = 0.5
        bound = worst - 0.2
        bound[10] = 0.5

        def made_up(alpha, lams, spec):
            index = np.asarray(alpha).astype(int).ravel()
            return (bound if lams.size == 2 else worst)[index]

        monkeypatch.setattr(spectral, "_worst_radius", made_up)
        alphas = np.arange(float(_ALPHA_GRID_POINTS))
        spec = CompanionSpec((1.0,), 1.0, 1.0, 4)
        assert _lattice_argmin(alphas, _lambda_grid(1.0, 2.0), spec) == (10, 0.5)

    @pytest.mark.parametrize("top", [1e160, 1e300], ids=["mixed", "all-inf"])
    def test_non_finite_radii_give_the_every_alpha_argmin(self, top):
        # a^20 overflows from the second lattice point on (top 1e160), or
        # everywhere (1e300): those alphas have the radius inf
        xi = tuple(bdf_coefficients(3)[0])
        spec = CompanionSpec(xi, 1.0, 1.0, 20)
        lams = _lambda_grid(1.0, 2.0)
        alphas = np.linspace(top / _ALPHA_GRID_POINTS, top, _ALPHA_GRID_POINTS)
        if top < 1e300:
            alphas[0] = 0.01
        got = _lattice_argmin(alphas, lams, spec)
        assert same_argmin(got, every_alpha_fine_pass(alphas, lams, spec))
        assert (got[1] < np.inf) == (top < 1e300)


def panel_curves(mu, lmax, m, alpha, taus, betas):
    """The radius curves of ``beta_scan``'s panel, one list per tau."""
    return [[r["radius"] for r in curve] for curve in beta_scan(mu, lmax, m, alpha, taus, betas)]


def every_row_curves(mu, lmax, m, alpha, taus, betas):
    """Each (tau, beta)'s kernel maximum over every row of its own
    ``_coeff_rows``, one list per tau."""
    lams = _lambda_grid(mu, lmax)
    return [
        [
            float(_kernels.max_root_modulus_batch(_coeff_rows(alpha, lams, CompanionSpec(xi, alpha, b, m))).max())
            for b in betas
        ]
        for xi in (tuple(bdf_coefficients(tau)[0]) for tau in taus)
    ]


def hexes(curves):
    return [[v.hex() for v in curve] for curve in curves]


class TestBetaScan:
    def test_grid_point_matches_direct_evaluation(self):
        betas = [0.5, 1.0, 2.0]
        curves = beta_scan(1.0, 2.0, 4, 1.0, (1, 2, 3, 4), betas)
        assert [[r["tau"] for r in curve] for curve in curves] == [[t] * 3 for t in (1, 2, 3, 4)]
        for row in (r for curve in curves for r in curve):
            xi = tuple(bdf_coefficients(row["tau"])[0])
            spec = CompanionSpec(xi, row["alpha"], row["beta"], row["m"])
            assert row["radius"] == radius(spec, 1.0, 2.0)

    def test_large_beta_with_large_m_tends_to_zero(self):
        # spectrum kept inside the alpha = 1 stability region so the
        # curve can reach its exact-prox limit 1/(1 + beta mu)
        [[row]] = beta_scan(0.5, 0.9, 200, 1.0, [1], [200.0])
        assert row["radius"] == pytest.approx(1.0 / 101.0, abs=5e-3)

    def test_unstable_small_beta_flagged(self):
        [[row]] = beta_scan(1.0, 10.0, 4, 1.0, [3], [0.05])
        assert not row["stable"]

    def test_huge_coefficients_are_not_flagged_stable(self):
        # a^m is about 1e60 at beta = 0.001 and m = 20
        rows = [r for curve in beta_scan(1.0, 2.0, 20, 1.0, (3, 4), [0.001]) for r in curve]
        assert [r["stable"] for r in rows] == [0, 0]
        assert min(r["radius"] for r in rows) > 1e59

    def test_a_curve_makes_an_endpoint_call_and_an_uncertified_row_call(self, monkeypatch):
        # tools that wrap the module attribute, such as
        # scripts/kernel_inputs.py, see both calls of each figure1 curve
        betas = np.geomspace(0.05, 50.0, 25)
        lams = _lambda_grid(1.0, 10.0)
        calls = []
        kernel = _kernels.max_root_modulus_batch

        def recording(coeffs):
            calls.append(coeffs.shape[0])
            return kernel(coeffs)

        monkeypatch.setattr(_kernels, "max_root_modulus_batch", recording)
        curves = panel_curves(1.0, 10.0, 4, 1.0, (3, 4), betas)
        assert len(calls) == 4
        assert calls[0::2] == [2 * betas.size] * 2
        assert all(0 < n < (lams.size - 2) * betas.size for n in calls[1::2])
        monkeypatch.setattr(_kernels, "max_root_modulus_batch", kernel)
        assert hexes(curves) == hexes(every_row_curves(1.0, 10.0, 4, 1.0, (3, 4), betas))

    def test_csv_roundtrip(self, tmp_path):
        rows = [r for curve in beta_scan(1.0, 2.0, 4, 1.0, (1, 2, 3), [0.5, 5.0]) for r in curve]
        path = tmp_path / "scan.csv"
        emit_table(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau,m,alpha,beta,lambda_or_range,radius,stable"
        assert len(lines) == 1 + len(rows)
        parsed = list(csv.DictReader(lines))
        assert [float(r["radius"]) for r in parsed] == [r["radius"] for r in rows]
        assert {r["lambda_or_range"] for r in parsed} == {"[1,2]"}

    @pytest.mark.parametrize("lmax", [2.0, 10.0])
    @pytest.mark.parametrize("m", [1, 4, 20])
    def test_figure1_panels_equal_every_row_maxima(self, m, lmax):
        # the figure1 panels at --tau 1,2,3,4 --beta-points 100: every
        # base a = 1 - 1/beta - lambda is negative
        betas = np.geomspace(0.05, 50.0, 100)
        assert (1.0 - 1.0 / betas[:, None] - _lambda_grid(1.0, lmax) < 0).all()
        taus = (1, 2, 3, 4)
        want = every_row_curves(1.0, lmax, m, 1.0, taus, betas)
        assert hexes(panel_curves(1.0, lmax, m, 1.0, taus, betas)) == hexes(want)

    @given(
        taus=st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True),
        m=st.integers(1, 20),
        betas=st.lists(st.floats(0.05, 50.0), min_size=1, max_size=6),
        lmax=st.floats(1.0, 10.0),
        alpha=st.one_of(st.just(1.0), st.floats(0.01, 2.0)),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_panels_equal_every_row_maxima(self, taus, m, betas, lmax, alpha):
        # alpha below 1 also gives positive bases
        want = every_row_curves(1.0, lmax, m, alpha, taus, betas)
        assert hexes(panel_curves(1.0, lmax, m, alpha, taus, betas)) == hexes(want)

    @pytest.mark.parametrize(
        "alpha, betas, m, message",
        [
            (-1.0, [1.0], 4, "alpha and beta must be > 0"),
            (1.0, [1.0, 0.0], 4, "alpha and beta must be > 0"),
            (1.0, [1.0, np.inf], 4, "must be finite, got alpha=1.0, beta=inf"),
            (np.nan, [1.0], 4, "must be finite, got alpha=nan, beta=1.0"),
            (1.0, [1.0], 0, "m must be >= 1, got 0"),
        ],
    )
    def test_each_beta_is_checked_as_its_spec_would_be(self, alpha, betas, m, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            beta_scan(1.0, 2.0, m, alpha, (1, 3), betas)
        with pytest.raises(ValidationError, match=re.escape(message)):
            CompanionSpec((1.0,), alpha, betas[-1], m)

    @pytest.mark.parametrize(
        "xi_fault, bad_xi, bad_beta",
        [
            ("nan", 2, None),
            ("too-long", 1, None),
            (None, None, 3),
            ("nan", 2, 3),
            ("too-long", 2, 3),
            ("nan", 0, 3),
            ("too-long", 2, 0),
            (None, None, None),
        ],
    )
    def test_a_grid_fails_at_the_first_bad_pair_of_the_row_major_loop(
        self, xi_fault, bad_xi, bad_beta, monkeypatch
    ):
        # a bad xi, a bad beta, both, and neither
        xis = [tuple(bdf_coefficients(tau)[0]) for tau in (1, 2, 3, 4)]
        if bad_xi is not None:
            xis[bad_xi] = (0.5, np.nan, 0.5) if xi_fault == "nan" else (0.05,) * 20
        betas = [0.5, 1.0, 2.0, 4.0, 8.0]
        if bad_beta is not None:
            betas[bad_beta] = -1.0
        try:
            for xi in xis:
                for beta in betas:
                    CompanionSpec(xi, 1.0, beta, 4)
            want = None
        except ValidationError as exc:
            want = str(exc)
        built = []
        monkeypatch.setattr(spectral, "CompanionSpec", lambda *a: built.append(CompanionSpec(*a)))
        if want is None:
            spectrum_radius(xis, 1.0, betas, 4, 1.0, 2.0)
        else:
            with pytest.raises(ValidationError, match=re.escape(want)):
                spectrum_radius(xis, 1.0, betas, 4, 1.0, 2.0)
        # the first xi with every beta, then every other xi with the first beta
        assert len(built) <= len(betas) + len(xis) - 1
        if want is None:
            assert len(built) == len(betas) + len(xis) - 1


def screen_only(monkeypatch):
    """Make ``schur_stable_batch`` certify nothing and log its row counts,
    so that ``_inside`` passes exactly the rows the sum test passes."""
    sizes = []

    def nothing(coeffs):
        sizes.append(coeffs.shape[0])
        return np.zeros(coeffs.shape[0], dtype=bool)

    monkeypatch.setattr(_kernels, "schur_stable_batch", nothing)
    return sizes


class TestSumScreen:
    """The Rouché sum test in front of Schur–Cohn, block by block."""

    @pytest.mark.parametrize("tau", [3, 4])
    def test_every_screened_row_is_below_its_group_maximum(self, tau, monkeypatch):
        betas = np.geomspace(0.05, 50.0, 25)
        lams = _lambda_grid(1.0, 10.0)
        rows = _rows(*spectral._powers(1.0, betas[:, None], lams, 4), tuple(bdf_coefficients(tau)[0]))
        radii = _kernels.max_root_modulus_batch(rows).reshape(betas.size, lams.size)
        s = (1.0 - spectral._CERTIFY_MARGIN) * radii[:, [0, -1]].max(axis=1)
        screen_only(monkeypatch)
        screened = _inside(rows.reshape(betas.size, lams.size, tau)[:, 1:-1], s)
        inner = radii[:, 1:-1]
        # the screen settles most rows but not all
        assert 0.5 * inner.size < screened.sum() < inner.size
        assert (inner[screened] < np.broadcast_to(radii.max(axis=1)[:, None], inner.shape)[screened]).all()
        assert (inner[screened] < np.broadcast_to(s[:, None], inner.shape)[screened]).all()

    def test_sums_near_one_non_finite_rows_and_a_partial_last_block(self, monkeypatch):
        # five groups of degree 3 over a 6-row grid, in blocks of two
        # groups: the last block is partial. Every endpoint row is
        # z^3 - 1, radius 1; the inner rows z^3 + c (z^2 + z + 1) have
        # scaled sums 3c just below 1, just above 1, NaN and inf
        size, groups = 6, 5
        ends = _kernels.max_root_modulus_batch(np.array([[-1.0, 0.0, 0.0]]))
        s = float((1.0 - spectral._CERTIFY_MARGIN) * ends[0])
        scale = s ** np.arange(3, 0, -1)
        rows = np.zeros((groups, size, 3))
        rows[:, [0, -1]] = [-1.0, 0.0, 0.0]
        below, above = (1.0 - 1e-9) / 3.0, (1.0 + 1e-9) / 3.0
        rows[:, 1:-1] = np.array([below, above, below, above])[:, None]
        rows[1, 1] = [np.nan, 0.0, 0.0]  # in place of a row below 1
        rows[3, 4] = [0.0, np.inf, 0.0]  # in place of a row above 1
        rows[:, 1:-1] *= scale
        rows = rows.reshape(-1, 3)
        sent = []
        schur = _kernels.schur_stable_batch

        def logging(coeffs):
            sent.append(coeffs.copy())
            return schur(coeffs)

        monkeypatch.setattr(_kernels, "schur_stable_batch", logging)
        monkeypatch.setattr(spectral, "_BLOCK_ROWS", 2 * (size - 2))
        got = _group_max_radius(rows, size)
        want = _kernels.max_root_modulus_batch(rows).reshape(groups, size).max(axis=1)
        assert got.tobytes() == want.tobytes()
        assert got[[1, 3]].tolist() == [np.inf, np.inf]
        # a block of two, two and one group; only the rows above 1, NaN
        # and inf reach Schur–Cohn
        assert [len(c) for c in sent] == [5, 4, 2]
        sums = np.abs(np.concatenate(sent)).sum(axis=1)
        assert not (sums < 1.0).any()
        assert np.isnan(sums).sum() == 1 and np.isinf(sums).sum() == 1
        monkeypatch.setattr(_kernels, "schur_stable_batch", schur)
        # the rows below 1 are certified by the sum alone
        sizes = screen_only(monkeypatch)
        screened = _inside(rows.reshape(groups, size, 3)[:, 1:-1], np.full(groups, s))
        assert screened.sum() == 2 * groups - 1
        assert sizes == [2 * groups + 1]


class TestCompanionConsistency:
    def test_polynomial_matches_block_matrix_eigenvalues(self):
        rng = seeded_rng(17)
        for tau in (1, 2, 3, 4):
            xi = tuple(bdf_coefficients(tau)[0])
            for _ in range(5):
                n = int(rng.integers(2, 10))
                q = random_spd(rng, n)
                spec = CompanionSpec(
                    xi, float(rng.uniform(0.02, 0.4)), 1.0, int(rng.integers(1, 8))
                )
                eigs = np.linalg.eigvalsh(q)
                poly_route = max(radius(spec, float(lam), float(lam)) for lam in eigs)
                m_mat = companion_matrix(spec, q)
                matrix_route = float(np.abs(np.linalg.eigvals(m_mat)).max())
                assert poly_route == pytest.approx(matrix_route, abs=1e-8)

    def test_simulation_trivial_single_map(self, rng):
        q = random_spd(rng, 3)
        spec = CompanionSpec((1.0,), 0.2, 1.0, 1)
        check = simulate_companion_check(spec, q, rng.standard_normal(3), 30)
        assert check.discrepancy <= 1e-12

    def test_simulation_random_instances(self):
        rng = seeded_rng(23)
        for tau, m in ((2, 4), (3, 10)):
            xi = tuple(bdf_coefficients(tau)[0])
            q = random_spd(rng, 6)
            spec = CompanionSpec(xi, 0.25, 1.0, m)
            steps = 50 if tau == 2 else 100
            check = simulate_companion_check(spec, q, rng.standard_normal(6), steps)
            assert check.discrepancy <= 1e-9 * max(1.0, check.max_norm)


class TestEmpiricalDecay:
    def test_simulated_rate_matches_radius(self):
        rng = seeded_rng(29)
        xi = tuple(bdf_coefficients(2)[0])
        spec = CompanionSpec(xi, alpha=0.3, beta=1.0, m=4)
        eigs = [1.0, 1.3, 1.7, 2.0]
        q = random_symmetric_with_spectrum(rng, eigs)
        rho = max(radius(spec, lam, lam) for lam in eigs)
        m_mat = companion_matrix(spec, q)
        z = np.tile(rng.standard_normal(4), 2)
        errs = []
        for _ in range(300):
            z = m_mat @ z
            errs.append(np.linalg.norm(z))
        measured = (errs[299] / errs[99]) ** (1.0 / 200.0)
        assert measured == pytest.approx(rho, rel=0.02)
