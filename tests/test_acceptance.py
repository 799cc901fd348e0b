"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from fractions import Fraction

import numpy as np

from proxflow import _kernels
from proxflow.altproj_accel import (
    multistep_altproj_radius,
    prescribed_angle_pair,
    tuned_xi2,
    verify_rate,
)
from proxflow.experiments import (
    emit_csv,
    emit_svg,
    gen_matfac,
    gen_sensing,
    gen_subspaces,
    matfac_trace,
    run_altproj,
    run_l1,
    run_lsp,
    run_matfac,
    AxesSpec,
)
from proxflow.multistep import (
    MultistepConfig,
    approx_prox,
    bdf_coefficients,
    delta_constant,
    gamma_bound,
    quadratic_objective,
    run,
    theorem_bounds,
)
from proxflow.numerics import seeded_rng
from proxflow.prox_ops import QuadraticProblem, prox_l1, prox_lsp, prox_quadratic
from proxflow.spectral import (
    CompanionSpec,
    max_stable_alpha,
    optimal_rate,
    simulate_companion_check,
)

from conftest import random_symmetric_with_spectrum


def report(number, label, passed, detail=""):
    stamp = "PASS" if passed else "FAIL"
    print(f"[criterion {number:>3}] {stamp} {label} {detail}".rstrip(), flush=True)
    assert passed, f"criterion {number}: {label} {detail}"


def test_criterion_1_table2_ppm_rows():
    t0 = time.perf_counter()
    targets = {(1.0, 2.0): 0.667, (10.0, 2.0): 0.952, (1.0, 10.0): 0.182, (10.0, 10.0): 0.198}
    worst = 0.0
    for (beta, lmax), want in targets.items():
        got = max_stable_alpha(1.0, lmax, beta, 4, (1.0,))
        worst = max(worst, abs(got.alpha - want))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "stability-table step-size bounds (single-step rows)",
        worst <= 0.005 and elapsed < 5.0,
        f"(max dev {worst:.4f}, {elapsed:.2f}s)",
    )


def _oracle_escape(xi, beta, m, alpha, lmax):
    rng = seeded_rng(424242)
    eigs = np.concatenate(([1.0, lmax], rng.uniform(1.0, lmax, 4)))
    q = random_symmetric_with_spectrum(rng, eigs)
    x0 = rng.standard_normal(q.shape[0])
    x0 /= np.linalg.norm(x0)
    spec = CompanionSpec(xi, 0.9 * alpha, beta, m)
    check = simulate_companion_check(spec, q, x0, 50)
    return check.discrepancy <= 1e-9 * max(1.0, check.max_norm)


def test_criterion_2_table2_bdf_rows():
    t0 = time.perf_counter()
    reference = {
        (2, 1.0): {2.0: 0.665, 10.0: 0.181},
        (2, 10.0): {2.0: 0.940, 10.0: 0.197},
        (3, 1.0): {2.0: 0.608, 10.0: 0.178},
        (3, 10.0): {2.0: 0.940, 10.0: 0.197},
    }
    escapes = []
    ok = True
    for (tau, beta), per_l in reference.items():
        xi = tuple(bdf_coefficients(tau)[0])
        for lmax, want in per_l.items():
            got = max_stable_alpha(1.0, lmax, beta, 4, xi)
            if abs(got.alpha - want) > 0.02:
                verified = _oracle_escape(xi, beta, 4, got.alpha, lmax)
                escapes.append((tau, beta, lmax, round(got.alpha - want, 4), verified))
                ok = ok and verified
    elapsed = time.perf_counter() - t0
    report(
        2,
        "stability-table step-size bounds (multistep rows)",
        ok and elapsed < 30.0,
        f"(oracle-escaped rows: {escapes}, {elapsed:.2f}s)",
    )


def test_criterion_3_table3():
    t0 = time.perf_counter()
    ppm_targets = {
        (4, 1.0, 2.0): 0.500,
        (20, 1.0, 2.0): 0.500,
        (4, 10.0, 2.0): 0.0935,
        (20, 10.0, 2.0): 0.0909,
        (4, 10.0, 10.0): 0.466,
        (20, 10.0, 10.0): 0.100,
    }
    worst_ppm = 0.0
    for (m, beta, lmax), want in ppm_targets.items():
        got = optimal_rate(1.0, lmax, beta, m, (1.0,))
        worst_ppm = max(worst_ppm, abs(got.rho - want))

    bdf_targets = {
        (2, 4, 1.0): {2.0: 0.326, 10.0: 0.282},
        (2, 20, 1.0): {2.0: 0.303, 10.0: 0.211},
        (2, 4, 10.0): {2.0: 0.059, 10.0: 0.423},
        (2, 20, 10.0): {2.0: 0.024, 10.0: 0.024},
        (3, 4, 1.0): {2.0: 0.377, 10.0: 0.451},
        (3, 20, 1.0): {2.0: 0.377, 10.0: 0.306},
        (3, 4, 10.0): {2.0: 0.197, 10.0: 0.459},
        (3, 20, 10.0): {2.0: 0.197, 10.0: 0.165},
    }
    escaped = 0
    bdf_ok = True
    for (tau, m, beta), per_l in bdf_targets.items():
        xi = tuple(bdf_coefficients(tau)[0])
        for lmax, want in per_l.items():
            got = optimal_rate(1.0, lmax, beta, m, xi)
            if abs(got.rho - want) > 0.02:
                escaped += 1
                bdf_ok = bdf_ok and _oracle_escape(xi, beta, m, got.alpha, lmax)
    elapsed = time.perf_counter() - t0
    report(
        3,
        "optimal-radius table",
        worst_ppm <= 0.005 and bdf_ok and elapsed < 60.0,
        f"(ppm max dev {worst_ppm:.4f}, {escaped} multistep cells oracle-escaped, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_4_companion_oracle():
    t0 = time.perf_counter()
    rng = seeded_rng(4)
    worst = 0.0
    count = 0
    taus = (1, 2, 3)
    ms = (1, 4, 10)
    while count < 20:
        tau = taus[count % 3]
        m = ms[(count // 3) % 3]
        n = int(rng.integers(2, 9))
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        eigs = rng.uniform(0.2, 3.0, n)
        q = basis @ np.diag(eigs) @ basis.T
        q = 0.5 * (q + q.T)
        xi = tuple(bdf_coefficients(tau)[0])
        spec = CompanionSpec(xi, float(rng.uniform(0.05, 0.35)), 1.0, m)
        x0 = rng.standard_normal(n)
        x0 /= np.linalg.norm(x0)
        check = simulate_companion_check(spec, q, x0, 50)
        worst = max(worst, check.discrepancy / max(1.0, check.max_norm))
        count += 1
    elapsed = time.perf_counter() - t0
    report(
        4,
        "companion-vs-simulation oracle on 20 random quadratics",
        worst <= 1e-9 and elapsed < 10.0,
        f"(worst {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_5_exact_ppm_contraction():
    rng = seeded_rng(5)
    problem = QuadraticProblem(np.eye(5), rng.standard_normal(5))
    objective = quadratic_objective(problem)
    cfg = MultistepConfig(xi=(1.0,), beta=1.0, inner_m=None)
    trace = run(objective, cfg, rng.standard_normal(5), 30)
    errs = np.array(trace.values("iterate_error"))
    ratios = errs[1:] / errs[:-1]
    worst = float(np.abs(ratios - 0.5).max())
    report(5, "exact single-step contraction 1/(1+beta mu) = 0.5", worst <= 1e-6,
           f"(max |ratio-0.5| = {worst:.2e})")


def test_criterion_6_strongly_convex_bounds():
    t0 = time.perf_counter()
    rng = seeded_rng(6)
    exact_ok = True
    for trial in range(50):
        tau = (1, 2, 3)[trial % 3]
        xi = tuple(bdf_coefficients(tau)[0])
        eta = sum(abs(v) for v in xi)
        n = int(rng.integers(2, 6))
        mu = float(rng.uniform(0.5, 2.0))
        eigs = np.sort(np.concatenate([[mu], rng.uniform(mu, mu + 3.0, n - 1)]))
        q = random_symmetric_with_spectrum(rng, eigs)
        objective = quadratic_objective(QuadraticProblem(q))
        beta = max((eta - 1.0) / mu, 1e-3) * float(rng.uniform(1.0, 2.0))
        cfg = MultistepConfig(xi=xi, beta=beta, inner_m=None, warmup="repeat")
        trace = run(objective, cfg, rng.standard_normal(n), 16)
        errs = np.array(trace.values("iterate_error"))
        base = errs[:tau].max()
        factor = eta / (1.0 + beta * mu)
        for k in range(tau, len(errs)):
            if errs[k] > factor ** (k // tau) * base * (1 + 1e-9):
                exact_ok = False

    inexact_ok = True
    for trial in range(25):
        mu, lmax, beta, m = 1.0, 2.0, 4.0, 8
        xi = tuple(bdf_coefficients(2)[0])
        eta = sum(abs(v) for v in xi)
        gamma = gamma_bound(beta, lmax, m)
        probe = MultistepConfig(xi=xi, beta=beta, inner_m=None)
        assert gamma < theorem_bounds(probe, mu, lmax, 0.0).gamma_max
        eigs = np.sort(np.concatenate([[mu, lmax], rng.uniform(mu, lmax, 2)]))
        q = random_symmetric_with_spectrum(rng, eigs)
        objective = quadratic_objective(QuadraticProblem(q))
        cfg = MultistepConfig(
            xi=xi, beta=beta, inner_m=m, warmup="repeat", inner_start="mixed"
        )
        trace = run(objective, cfg, rng.standard_normal(4), 20)
        errs = np.array(trace.values("iterate_error"))
        base = errs[:2].max()
        factor = gamma + (1 + gamma) * eta / (1 + beta * mu)
        for k in range(1, len(errs)):
            if errs[k] > factor ** math.ceil(k / 2) * base * (1 + 1e-9):
                inexact_ok = False
    elapsed = time.perf_counter() - t0
    report(
        6,
        "strongly convex rate bounds (exact and inexact)",
        exact_ok and inexact_ok and elapsed < 30.0,
        f"({elapsed:.1f}s)",
    )


def test_criterion_7_gamma_contractiveness():
    t0 = time.perf_counter()
    rng = seeded_rng(7)
    ok = True
    for trial in range(100):
        m = (1, 4, 10)[trial % 3]
        n = int(rng.integers(2, 7))
        mu = float(rng.uniform(0.1, 1.5))
        lmax = mu + float(rng.uniform(0.1, 4.0))
        eigs = np.concatenate([[mu, lmax], rng.uniform(mu, lmax, max(n - 2, 0))])[:n]
        q = random_symmetric_with_spectrum(rng, np.sort(eigs))
        problem = QuadraticProblem(q)
        objective = quadratic_objective(problem)
        beta = float(rng.uniform(0.2, 5.0))
        alpha = beta / (beta * lmax + 1.0)
        x_mix = rng.standard_normal(n)
        exact = prox_quadratic(problem, x_mix, beta)
        out = approx_prox(objective, x_mix, x_mix, beta, m, alpha)
        num = np.linalg.norm(out - exact)
        den = np.linalg.norm(x_mix - exact)
        if den > 1e-12 and num > gamma_bound(beta, lmax, m) * den * (1 + 1e-9):
            ok = False
    elapsed = time.perf_counter() - t0
    report(7, "inner-solver contraction bound on 100 subproblems",
           ok and elapsed < 10.0, f"({elapsed:.2f}s)")


def test_criterion_8_delta_constants():
    vals = (
        delta_constant(bdf_coefficients(1, exact=True)[0]),
        delta_constant(bdf_coefficients(2, exact=True)[0]),
        delta_constant(bdf_coefficients(3, exact=True)[0]),
    )
    ok = vals == (0, Fraction(1, 9), Fraction(194, 121))
    report(8, "history-weight nonconvexity constants (exact rationals)", ok,
           f"(got {vals})")


def _shrinkage_grid_argmin(objective, x, grid):
    """``grid[np.argmin(objective(grid))]`` for a shrinkage objective.

    Its minimiser lies between 0 and x, and the objective grows away from
    that interval on both sides, so only the grid points inside it and one
    neighbour on each side can hold the grid argmin.
    """
    lo = max(int(np.searchsorted(grid, min(0.0, x))) - 1, 0)
    hi = int(np.searchsorted(grid, max(0.0, x), side="right")) + 1
    candidates = grid[lo:hi]
    return candidates[np.argmin(objective(candidates))]


def test_criterion_9_prox_oracles():
    t0 = time.perf_counter()
    rng = seeded_rng(9)
    grid_points = 10**6
    worst_l1 = worst_lsp = 0.0
    for _ in range(500):
        x = float(rng.uniform(-4, 4))
        span = 2 * abs(x) + 2
        grid = np.linspace(-span, span, grid_points)
        t = float(rng.uniform(0, 2))
        best = _shrinkage_grid_argmin(lambda u: t * np.abs(u) + 0.5 * (u - x) ** 2, x, grid)
        worst_l1 = max(worst_l1, abs(prox_l1(np.array([x]), t)[0] - best))
    for _ in range(500):
        x = float(rng.uniform(-4, 4))
        span = 2 * abs(x) + 2
        grid = np.linspace(-span, span, grid_points)
        theta = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(0.0, 2.0))
        best = _shrinkage_grid_argmin(
            lambda u: beta * np.log1p(np.abs(u) / theta) + 0.5 * (u - x) ** 2, x, grid
        )
        worst_lsp = max(worst_lsp, abs(prox_lsp(np.array([x]), theta, beta)[0] - best))
    elapsed = time.perf_counter() - t0
    report(
        9,
        "shrinkage oracles vs brute-force grid (500 draws each)",
        worst_l1 <= 1e-4 and worst_lsp <= 1e-4 and elapsed < 20.0,
        f"(l1 {worst_l1:.2e}, log-sum {worst_lsp:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_10_accelerated_projections():
    t0 = time.perf_counter()
    grid_ok = True
    for i in range(1, 100):
        rho = i / 100.0
        xi = tuned_xi2(rho)
        radius = multistep_altproj_radius(1.0 - rho, xi)
        if abs(radius - (1.0 - math.sqrt(rho))) > 1e-9:
            grid_ok = False

    xi1, xi2 = tuned_xi2(0.25)
    coeff_ok = (xi1 == -1.0 / 3.0) and (xi2 == 4.0 / 3.0)

    rate_ok = True
    details = []
    for rho in (0.04, 0.25):
        theta = math.acos(math.sqrt(1.0 - rho))
        pair = prescribed_angle_pair([theta] * 3, ambient=10, seed=2)
        fit1 = verify_rate(pair, (1.0,), 300)
        fit2 = verify_rate(pair, tuned_xi2(rho), 400)
        want1, want2 = 1.0 - rho, 1.0 - math.sqrt(rho)
        details.append((rho, round(fit1.rate, 4), round(fit2.rate, 4)))
        if abs(fit1.rate - want1) > 0.03 * want1 or abs(fit2.rate - want2) > 0.03 * want2:
            rate_ok = False
    elapsed = time.perf_counter() - t0
    report(
        10,
        "tuned projection weights: radii and fitted rates",
        grid_ok and coeff_ok and rate_ok and elapsed < 30.0,
        f"(fits {details}, {elapsed:.1f}s)",
    )


def test_criterion_11a_experiments_complete(tmp_path):
    t0 = time.perf_counter()
    series = []

    l1_problem = gen_sensing(50, 100, "uniform", 7)
    l1_result = run_l1(l1_problem, 0.01, [1, 2, 3], 1.0, 4, 600, stop_tol=1e-8)
    for tau, tr in l1_result.traces.items():
        tr.experiment, tr.seed = "l1", 7
        series.append(tr)

    lsp_problem = gen_sensing(20, 50, "uniform", 7)
    lsp_result = run_lsp(lsp_problem, 5.0, [1, 2, 3], 1.0, 4, 600, stop_tol=1e-8)
    for tau, tr in lsp_result.items():
        tr.experiment, tr.seed = "lsp", 7
        series.append(tr)

    pair = gen_subspaces(500, 400, 0.5, 7)
    for tau, tr in run_altproj(pair, [1, 2, 3], 150).items():
        tr.experiment, tr.seed = "altproj", 7
        series.append(tr)

    problem = gen_matfac(100, 10, 0.1, 7)
    for tau, tr in run_matfac(problem, [1, 2, 3], 150).items():
        tr.experiment, tr.seed = "matfac", 7
        series.append(tr)

    csv_path = tmp_path / "experiments.csv"
    svg_path = tmp_path / "experiments.svg"
    emit_csv(series, csv_path)
    emit_svg(
        [s for s in series if s.experiment == "l1"],
        svg_path,
        AxesSpec("experiments", "iteration", "objective", "objective"),
    )
    import xml.etree.ElementTree as ET

    ET.parse(svg_path)
    header_ok = csv_path.read_text().startswith(
        "experiment,seed,tau,k,metric_name,metric_value,walltime_s,diverged"
    )
    elapsed = time.perf_counter() - t0
    report(
        "11a",
        "all four experiments at reference dimensions with valid outputs",
        header_ok and elapsed < 120.0,
        f"({len(series)} traces, {elapsed:.1f}s)",
    )


def test_criterion_11b_bdf2_no_slower_than_bdf1():
    problem = gen_sensing(50, 100, "exp_decay", 7)
    result = run_l1(problem, 0.01, [1, 2], 1.0, 4, 5000, stop_tol=1e-6)
    hits = {}
    for tau, trace in result.traces.items():
        gaps = np.array(trace.values("objective")) - result.f_star
        hit = next((k for k, g in zip(trace.ks, gaps) if g <= 1e-6), None)
        hits[tau] = hit
    ok = hits[1] is not None and hits[2] is not None and hits[2] <= hits[1]
    report("11b", "two-step scheme reaches the gap target no later than one-step",
           ok, f"(iterations to 1e-6 gap: {hits})")


def test_criterion_11c_matfac_instability():
    # Order 4 at a small proximal weight alpha: the exact ridge block map
    # linearised at the Eckart-Young factors has a real spectrum in [0, 1]
    # (r^2 = 100 gauge eigenvalues at 1), and BDF4 mixing is stable for every
    # real mu in [-0.2427, 1], so the lifted radius is 1 and runs converge.
    # The divergence flag trips only on a runaway start. See "Order-4
    # factorization stability" in README.md for the analysis and the scans.
    rank, h = 10, 1e-5
    xi4 = np.array(bdf_coefficients(4)[0])
    mus, flags, gaps = [], [], []
    for alpha in (0.002, 0.005, 0.01, 0.03):
        problem = gen_matfac(100, rank, alpha, 7)
        p, s, qt = np.linalg.svd(problem.r_matrix)
        u0 = p[:, :rank] * np.sqrt(s[:rank])
        v0 = qt[:rank].T * np.sqrt(s[:rank])
        x0 = np.concatenate([u0.ravel(), v0.ravel()])

        def step(x):
            factors = (x[: u0.size].reshape(u0.shape), x[u0.size :].reshape(v0.shape))
            u, v = matfac_trace(problem, (1.0,), 1, factors0=factors).state
            return np.concatenate([u.ravel(), v.ravel()])

        jac = np.empty((x0.size, x0.size))
        for j in range(x0.size):
            e = np.zeros_like(x0)
            e[j] = h
            jac[:, j] = (step(x0 + e) - step(x0 - e)) / (2 * h)
        mus.append(np.linalg.eigvals(jac))

        trace = run_matfac(problem, [4], 2000)[4]
        f_star = 0.5 * float(np.sum(s[rank:] ** 2))
        flags.append(trace.diverged)
        gaps.append(abs(trace.values("objective")[-1] - f_star) / f_star)

    mu = np.concatenate(mus)
    imag = float(np.abs(mu.imag).max())
    radius = float(_kernels.max_root_modulus_batch(-np.outer(mu.real, xi4)).max())
    # Runaway start: the alpha = 0.03 problem from factors scaled by 1e13.
    runaway = matfac_trace(problem, tuple(xi4), 2000, factors0=(1e13 * u0, 1e13 * v0))
    ok = (
        imag <= 1e-8
        and mu.real.min() >= -1e-8
        and mu.real.max() <= 1.0 + 1e-8
        and radius <= 1.0 + 1e-8
        and not any(flags)
        and max(gaps) <= 1e-3
        and runaway.diverged
        and runaway.diverged_at == 1
        and runaway.ks == [0]
    )
    report(
        "11c",
        "order-4 factorization at small proximal weight: linearised map "
        "stable, no divergence, flag trips on a runaway start",
        ok,
        f"(spectrum [{mu.real.min():.4f}, 1{mu.real.max() - 1:+.1e}], "
        f"max |imag| {imag:.1e}, order-4 radius 1{radius - 1:+.1e}; "
        f"diverged flags {flags}, worst gap {max(gaps):.1e}; "
        f"runaway diverged_at {runaway.diverged_at})",
    )
