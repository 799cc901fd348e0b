import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxflow.numerics import SymmetryError, ValidationError, seeded_rng, sym_eigen
from proxflow.prox_ops import (
    QuadraticProblem,
    lsp_shrink,
    prox_l1,
    prox_lsp,
    prox_quadratic,
    soft_threshold,
)

from conftest import random_spd


def golden_section_min(f, lo, hi, iters=200):
    """1-D golden-section minimizer, the independent prox oracle."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def grid_min(f, lo, hi, points=10**6):
    grid = np.linspace(lo, hi, points)
    return grid[np.argmin(f(grid))]


class TestProxL1:
    def test_zero_input(self):
        assert np.array_equal(prox_l1(np.zeros(3), 1.0), np.zeros(3))

    def test_scalar_above_threshold_vs_oracle(self):
        x, t = 2.0, 0.5
        got = prox_l1(np.array([x]), t)[0]
        want = golden_section_min(lambda u: t * abs(u) + 0.5 * (u - x) ** 2, -6, 6)
        assert got == pytest.approx(want, abs=5e-7)
        assert got == pytest.approx(1.5)

    def test_scalar_below_threshold_vs_oracle(self):
        x, t = -0.3, 0.5
        got = prox_l1(np.array([x]), t)[0]
        want = golden_section_min(lambda u: t * abs(u) + 0.5 * (u - x) ** 2, -6, 6)
        assert got == pytest.approx(want, abs=5e-7)
        assert got == 0.0

    def test_magnitudes_never_grow(self, rng):
        x = rng.standard_normal(50)
        out = prox_l1(x, 0.3)
        assert np.all(np.abs(out) <= np.abs(x) + 1e-15)
        assert np.all(out[x == 0] == 0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValidationError):
            prox_l1(np.ones(2), -0.1)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_firm_nonexpansive(self, seed):
        r = seeded_rng(seed)
        x = r.standard_normal(8)
        y = r.standard_normal(8)
        t = float(r.uniform(0, 2))
        lhs = np.linalg.norm(prox_l1(x, t) - prox_l1(y, t))
        assert lhs <= np.linalg.norm(x - y) + 1e-12


class TestProxLsp:
    def test_zero_is_fixed(self):
        out = prox_lsp(np.zeros(4), theta=0.7, beta=2.0)
        assert np.array_equal(out, np.zeros(4))

    def test_interior_root_vs_oracle(self):
        x, theta, beta = 2.0, 1.0, 0.1
        got = prox_lsp(np.array([x]), theta, beta)[0]
        want = golden_section_min(
            lambda u: beta * np.log1p(abs(u) / theta) + 0.5 * (u - x) ** 2, -6, 6
        )
        assert got == pytest.approx(want, abs=5e-7)
        # stationarity of the 1-D objective at the returned point
        assert 10 * (got - 2.0) + 1.0 / (1.0 + got) == pytest.approx(0.0, abs=1e-9)

    def test_threshold_regime_vs_oracle(self):
        x, theta, beta = 0.1, 1.0, 0.5
        got = prox_lsp(np.array([x]), theta, beta)[0]
        want = golden_section_min(
            lambda u: beta * np.log1p(abs(u) / theta) + 0.5 * (u - x) ** 2, -6, 6
        )
        assert got == pytest.approx(want, abs=5e-7)
        assert got == 0.0

    def test_sign_symmetry(self, rng):
        x = rng.standard_normal(30)
        a = prox_lsp(x, 0.8, 0.2)
        b = prox_lsp(-x, 0.8, 0.2)
        assert np.allclose(a, -b)
        assert np.all((np.sign(a) == np.sign(x)) | (a == 0))

    def test_identity_at_zero_weight(self, rng):
        x = rng.standard_normal(10)
        assert np.allclose(prox_lsp(x, 1.3, 0.0), x)

    def test_matches_grid_oracle(self):
        r = seeded_rng(5150)
        for _ in range(40):
            x = float(r.uniform(-4, 4))
            theta = float(r.uniform(0.2, 3.0))
            beta = float(r.uniform(0.0, 2.0))
            span = 2 * abs(x) + 2
            want = grid_min(
                lambda u: beta * np.log1p(np.abs(u) / theta) + 0.5 * (u - x) ** 2,
                -span,
                span,
                points=10**6,
            )
            got = prox_lsp(np.array([x]), theta, beta)[0]
            assert got == pytest.approx(want, abs=1e-4)

    def test_weak_convexity_contraction(self):
        # prox of the log-sum penalty with weight beta contracts by at
        # most 1/(1 - beta/theta^2) when beta < theta^2
        r = seeded_rng(808)
        for _ in range(60):
            theta = float(r.uniform(0.5, 2.0))
            beta = float(r.uniform(0.0, 0.95)) * theta**2
            bound = 1.0 / (1.0 - beta / theta**2)
            x = r.standard_normal(6) * 3
            y = r.standard_normal(6) * 3
            lhs = np.linalg.norm(prox_lsp(x, theta, beta) - prox_lsp(y, theta, beta))
            assert lhs <= bound * np.linalg.norm(x - y) + 1e-10

    def test_rejects_bad_theta(self):
        with pytest.raises(ValidationError):
            prox_lsp(np.ones(2), 0.0, 1.0)


def former_prox_lsp_arithmetic(v, theta, beta):
    """The log-sum prox as it was written before ``lsp_shrink``, with the
    masked root computed twice; the reference for non-finite entries."""
    a = np.abs(v)
    disc = (a + theta) ** 2 - 4.0 * beta
    has_root = disc >= 0.0
    root = np.where(has_root, ((a - theta) + np.sqrt(np.maximum(disc, 0.0))) / 2.0, 0.0)
    positive = has_root & (root > 0.0)
    obj_root = beta * np.log1p(np.where(positive, root, 0.0) / theta) + 0.5 * (
        np.where(positive, root, 0.0) - a
    ) ** 2
    take_root = positive & (obj_root < 0.5 * a**2)
    return np.sign(v) * np.where(take_root, root, 0.0)


def special_vector(r, size=64):
    """Normal draws at mixed scales, with +-0, NaN and +-inf planted."""
    v = r.standard_normal(size) * 10.0 ** r.integers(-3, 4, size)
    v[:6] = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e200]
    return r.permutation(v)


class TestUncheckedShrinkage:
    """``soft_threshold`` and ``lsp_shrink`` are the arithmetic of
    ``prox_l1`` and ``prox_lsp`` without the checks."""

    def test_same_bytes_as_checked_operators(self):
        r = seeded_rng(2024)
        for _ in range(200):
            v = special_vector(r)
            finite = np.isfinite(v)
            t = float(r.choice([0.0, r.uniform(0, 3)]))
            theta = float(r.uniform(0.05, 5.0))
            beta = float(r.choice([0.0, r.uniform(0, 3)]))
            # 1e200 overflows when squared, in the checked operator as well
            with np.errstate(invalid="ignore", over="ignore"):
                l1 = soft_threshold(v, t)
                lsp = lsp_shrink(v, theta, beta)
                former = former_prox_lsp_arithmetic(v, theta, beta)
                checked_l1 = prox_l1(v[finite], t)
                checked_lsp = prox_lsp(v[finite], theta, beta)
                overflow = np.isinf((np.abs(v) + theta) ** 2)
            # elementwise maps: the finite entries match the checked operators
            assert l1[finite].tobytes() == checked_l1.tobytes()
            assert lsp[finite].tobytes() == checked_lsp.tobytes()
            # and every entry, NaN and inf included, the former arithmetic,
            # except where (|v| + theta)^2 overflows: there it gave 0
            assert l1.tobytes() == (np.sign(v) * np.maximum(np.abs(v) - t, 0.0)).tobytes()
            assert lsp[~overflow].tobytes() == former[~overflow].tobytes()
            # the planted 1e200 and +-inf; theta and beta / |v| lie below
            # half an ulp of 1e200, so the root is the entry itself
            assert overflow.sum() == 3
            assert lsp[overflow].tobytes() == v[overflow].tobytes()

    def test_overflowing_entries_keep_their_root(self):
        # the former arithmetic returned [0, 1e150] and warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = prox_lsp(np.array([1e200, 1e150, -1e200, -2e154]), 1.0, 1.0)
        assert got.tobytes() == np.array([1e200, 1e150, -1e200, -2e154]).tobytes()
        with np.errstate(invalid="ignore", over="ignore"):
            out = lsp_shrink(np.array([np.inf, -np.inf, 1.79e308]), 2.0, 3.0)
        assert out.tobytes() == np.array([np.inf, -np.inf, 1.79e308]).tobytes()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: prox_l1(np.array([1.0, np.nan]), 0.5),
            lambda: prox_l1(np.array([1.0, np.inf]), 0.5),
            lambda: prox_lsp(np.array([np.nan, 1.0]), 1.0, 0.5),
            lambda: prox_lsp(np.array([-np.inf, 1.0]), 1.0, 0.5),
            lambda: prox_lsp(np.ones(2), 1.0, -0.5),
        ],
        ids=["l1-nan", "l1-inf", "lsp-nan", "lsp-inf", "lsp-neg-beta"],
    )
    def test_checked_operators_still_validate(self, call):
        with pytest.raises(ValidationError):
            call()


class TestProxQuadratic:
    def test_zero_weight_is_identity(self, rng):
        p = QuadraticProblem(random_spd(rng, 4))
        x = rng.standard_normal(4)
        assert np.array_equal(prox_quadratic(p, x, 0.0), x)

    def test_identity_matrix_contraction(self):
        p = QuadraticProblem(np.eye(2))
        out = prox_quadratic(p, np.array([2.0, 4.0]), 1.0)
        assert np.allclose(out, [1.0, 2.0])

    def test_gradient_residual(self):
        rng = seeded_rng(55)
        q = random_spd(rng, 5)
        p = QuadraticProblem(q, rng.standard_normal(5))
        x = rng.standard_normal(5)
        beta = 0.7
        z = prox_quadratic(p, x, beta)
        resid = np.linalg.norm(p.grad(z) + (z - x) / beta)
        assert resid <= 1e-9 * (np.linalg.norm(x) + 1)

    def test_mu_and_l_are_the_spectrum_extremes(self, rng):
        q = random_spd(rng, 6)
        w = sym_eigen(q)
        p = QuadraticProblem(q)
        assert (p.mu.hex(), p.lmax.hex()) == (float(w[0]).hex(), float(w[-1]).hex())
        assert np.array_equal(p.c, np.zeros(6))
        with pytest.raises(SymmetryError):
            QuadraticProblem(q + np.triu(np.ones((6, 6)), 1))


class TestProxOracles:
    def test_local_optimality_spot_check(self):
        rng = seeded_rng(3131)
        q = QuadraticProblem(random_spd(rng, 6), rng.standard_normal(6))
        rng.standard_normal((6, 3))  # keeps the stream of the original draws
        cases = [
            (lambda x, b: prox_l1(x, 0.7 * b), lambda x: 0.7 * np.abs(x).sum()),
            (
                lambda x, b: prox_lsp(x, 1.2, b),
                lambda x: np.log1p(np.abs(x) / 1.2).sum(),
            ),
            (lambda x, b: prox_quadratic(q, x, b), q.value),
        ]
        for prox, h_value in cases:
            for _ in range(200):
                x = rng.standard_normal(6) * 2
                beta = float(rng.uniform(0.05, 1.5))
                out = prox(x, beta)
                base = beta * h_value(out) + 0.5 * np.linalg.norm(out - x) ** 2
                for _ in range(10):
                    cand = out + 0.05 * rng.standard_normal(6)
                    val = beta * h_value(cand) + 0.5 * np.linalg.norm(cand - x) ** 2
                    assert base <= val + 1e-10
