"""Command-line entry point.

Subcommands:

- ``tables``: recompute the stability tables (max stable step size and
  optimal radius) next to their reference values; exit code 4 when a
  row misses its tolerance and fails the companion-simulation oracle.
- ``figure1``: radius-versus-beta curves per (L, m) panel.
- ``run``: one of the four application experiments (l1, lsp, altproj,
  matfac), emitting trace CSV + SVG and a ``run.json`` sidecar.
- ``accel``: tuned two-step coefficients with predicted and fitted rates.

Every flag has a config-file equivalent (a flat JSON object); explicit
flags win. ``PROXFLOW_SEED`` provides the default seed. Exit codes:
0 success, 2 usage error, 3 numeric divergence (outputs still written),
4 tolerance failure in ``tables``.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, _kernels
from .altproj_accel import (
    multistep_altproj_radius,
    prescribed_angle_pair,
    projection_spectrum,
    tuned_xi2,
    verify_rate,
)
from .experiments import (
    AxesSpec,
    altproj_trace,
    emit_csv,
    emit_svg,
    gen_matfac,
    gen_sensing,
    gen_subspaces,
    run_altproj,
    run_l1,
    run_lsp,
    run_matfac,
)
from .multistep import Trace, bdf_coefficients
from .numerics import seeded_rng
from .spectral import (
    CompanionSpec,
    beta_scan,
    max_stable_alpha,
    optimal_rate,
    simulate_companion_check,
)

PPM_TOLERANCE = 0.005
BDF_TOLERANCE = 0.02
ORACLE_SEED = 20240901

TABLE2_REFERENCE = {
    # (method, beta) -> {L: reference alpha bound}, m = 4, mu = 1
    ("ppm", 1.0): {2.0: 0.667, 10.0: 0.182},
    ("ppm", 10.0): {2.0: 0.952, 10.0: 0.198},
    ("bdf2", 1.0): {2.0: 0.665, 10.0: 0.181},
    ("bdf2", 10.0): {2.0: 0.940, 10.0: 0.197},
    ("bdf3", 1.0): {2.0: 0.608, 10.0: 0.178},
    ("bdf3", 10.0): {2.0: 0.940, 10.0: 0.197},
}

TABLE3_REFERENCE = {
    # (method, m, beta) -> {L: reference optimal rho}, mu = 1
    ("ppm", 4, 1.0): {2.0: 0.500, 10.0: 0.596},
    ("ppm", 20, 1.0): {2.0: 0.500, 10.0: 0.500},
    ("ppm", 4, 10.0): {2.0: 0.0935, 10.0: 0.466},
    ("ppm", 20, 10.0): {2.0: 0.0909, 10.0: 0.100},
    ("bdf2", 4, 1.0): {2.0: 0.326, 10.0: 0.282},
    ("bdf2", 20, 1.0): {2.0: 0.303, 10.0: 0.211},
    ("bdf2", 4, 10.0): {2.0: 0.059, 10.0: 0.423},
    ("bdf2", 20, 10.0): {2.0: 0.024, 10.0: 0.024},
    ("bdf3", 4, 1.0): {2.0: 0.377, 10.0: 0.451},
    ("bdf3", 20, 1.0): {2.0: 0.377, 10.0: 0.306},
    ("bdf3", 4, 10.0): {2.0: 0.197, 10.0: 0.459},
    ("bdf3", 20, 10.0): {2.0: 0.197, 10.0: 0.165},
}

METHOD_TAU = {"ppm": 1, "bdf2": 2, "bdf3": 3}

# Six PPM cells of the optimal-rho table are pinned at the tight
# tolerance; every other cell gets the wide one plus the oracle escape.
TABLE3_TIGHT_CELLS = {
    ("ppm", 4, 1.0, 2.0),
    ("ppm", 20, 1.0, 2.0),
    ("ppm", 4, 10.0, 2.0),
    ("ppm", 20, 10.0, 2.0),
    ("ppm", 4, 10.0, 10.0),
    ("ppm", 20, 10.0, 10.0),
}


def _method_xi(method):
    return tuple(bdf_coefficients(METHOD_TAU[method])[0])


def _fmt(v):
    return format(float(v), ".17g")


def _oracle_check(method, beta, m, alpha, mu, lmax):
    """Companion-simulation oracle for an out-of-tolerance table row."""
    tau = METHOD_TAU[method]
    rng = seeded_rng(ORACLE_SEED)
    n = 6
    eigs = np.concatenate(([mu, lmax], rng.uniform(mu, lmax, n - 2)))
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    q = basis @ np.diag(eigs) @ basis.T
    q = 0.5 * (q + q.T)
    x0 = rng.standard_normal(n)
    x0 /= np.linalg.norm(x0)
    spec = CompanionSpec(tau, _method_xi(method), 0.9 * alpha, beta, m)
    check = simulate_companion_check(spec, q, x0, 50)
    return check.discrepancy / max(1.0, check.max_norm)


def _table2_rows(only, jobs):
    cells = []
    for (method, beta), per_l in TABLE2_REFERENCE.items():
        if only and method != only:
            continue
        for lmax, reference in per_l.items():
            cells.append((method, beta, lmax, reference))

    def work(cell):
        method, beta, lmax, reference = cell
        bound = max_stable_alpha(1.0, lmax, beta, 4, METHOD_TAU[method], _method_xi(method))
        return cell, bound.alpha

    results = _parallel(work, cells, jobs)
    rows = []
    for (method, beta, lmax, reference), alpha in results:
        tol = PPM_TOLERANCE if method == "ppm" else BDF_TOLERANCE
        diff = abs(alpha - reference)
        within = diff <= tol
        oracle = ""
        passed = within
        # the simulation-oracle escape covers only the multistep rows,
        # whose reference values carry a known scaling ambiguity
        if not within and method != "ppm":
            disc = _oracle_check(method, beta, 4, alpha, 1.0, lmax)
            oracle = _fmt(disc)
            passed = disc <= 1e-9
        rows.append(
            {
                "method": method,
                "beta": beta,
                "L": lmax,
                "mu": 1.0,
                "m": 4,
                "computed_alpha": alpha,
                "reference_alpha": reference,
                "abs_diff": diff,
                "tolerance": tol,
                "within_tolerance": int(within),
                "oracle_discrepancy": oracle,
                "row_pass": int(passed),
            }
        )
    return rows


def _table3_rows(only, jobs):
    cells = []
    for (method, m, beta), per_l in TABLE3_REFERENCE.items():
        if only and method != only:
            continue
        for lmax, reference in per_l.items():
            cells.append((method, m, beta, lmax, reference))

    def work(cell):
        method, m, beta, lmax, reference = cell
        best = optimal_rate(1.0, lmax, beta, m, METHOD_TAU[method], _method_xi(method))
        return cell, best

    results = _parallel(work, cells, jobs)
    rows = []
    for (method, m, beta, lmax, reference), best in results:
        tight = (method, m, beta, lmax) in TABLE3_TIGHT_CELLS
        tol = PPM_TOLERANCE if tight else BDF_TOLERANCE
        diff = abs(best.rho - reference)
        within = diff <= tol
        oracle = ""
        passed = within
        if not within and not tight:
            disc = _oracle_check(method, beta, m, best.alpha, 1.0, lmax)
            oracle = _fmt(disc)
            passed = disc <= 1e-9
        rows.append(
            {
                "method": method,
                "m": m,
                "beta": beta,
                "L": lmax,
                "mu": 1.0,
                "computed_rho": best.rho,
                "computed_alpha": best.alpha,
                "reference_rho": reference,
                "abs_diff": diff,
                "tolerance": tol,
                "within_tolerance": int(within),
                "oracle_discrepancy": oracle,
                "row_pass": int(passed),
            }
        )
    return rows


def _parallel(fn, items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _write_table(rows, path):
    if not rows:
        return
    keys = list(rows[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            out = []
            for key in keys:
                v = row[key]
                out.append(_fmt(v) if isinstance(v, float) else str(v))
            fh.write(",".join(out) + "\n")


def cmd_tables(args):
    out = Path(args.out)
    rows2 = _table2_rows(args.only, args.jobs)
    rows3 = _table3_rows(args.only, args.jobs)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(rows2, out / "table2.csv")
    _write_table(rows3, out / "table3.csv")
    _write_metadata(out, "tables", args, {"rows_table2": len(rows2), "rows_table3": len(rows3)})
    failed = [r for r in rows2 + rows3 if not r["row_pass"]]
    for r in failed:
        print(f"tolerance failure: {r}", file=sys.stderr)
    print(f"table2: {len(rows2)} rows, table3: {len(rows3)} rows, failures: {len(failed)}")
    return 4 if failed else 0


def cmd_figure1(args):
    out = Path(args.out)
    betas = np.geomspace(args.beta_min, args.beta_max, args.beta_points)
    taus = args.tau or [1, 2, 3]
    m_list = args.m_list or [1, 4, 20]
    l_list = args.l_list or [2.0, 10.0]
    alpha = 1.0 if args.alpha is None else args.alpha
    panels = [(lmax, m) for lmax in l_list for m in m_list]

    def work(panel):
        lmax, m = panel
        return panel, beta_scan(1.0, lmax, [m], alpha, taus, betas)

    results = _parallel(work, panels, args.jobs)
    out.mkdir(parents=True, exist_ok=True)
    for (lmax, m), report in results:
        stem = f"figure1_L{lmax:g}_m{m}"
        report.to_csv(out / f"{stem}.csv")
        series = []
        for tau in taus:
            pts = [
                (r.beta, r.radius) for r in report.rows if r.tau == tau and r.m == m
            ]
            series.append(Trace(tau, experiment="figure1", metrics={"radius": pts}))
        emit_svg(
            series,
            out / f"{stem}.svg",
            AxesSpec(
                title=f"radius vs beta (L={lmax:g}, m={m}, alpha={alpha:g})",
                xlabel="beta",
                ylabel="radius",
                metric="radius",
                ylog=False,
                xlog=True,
            ),
        )
    _write_metadata(out, "figure1", args, {"panels": len(results)})
    print(f"figure1: {len(results)} panels written to {out}")
    return 0


def cmd_run(args):
    out = Path(args.out)
    seed = args.seed
    taus = args.tau or [1, 2, 3]
    iters = args.iters
    extra = {}

    if args.experiment == "l1":
        lam = 0.01 if args.lam is None else args.lam
        beta = 1.0 if args.beta is None else args.beta
        m = 4 if args.m is None else args.m
        iters = 2000 if iters is None else iters
        problem = gen_sensing(args.p or 50, args.q or 100, args.spectrum, seed)
        result = run_l1(
            problem, lam, taus, beta, m, iters, stop_tol=args.tol,
            inner_alpha=args.alpha,
        )
        extra["f_star"] = result.f_star
        traces = result.traces
        axes = AxesSpec("l1 objective gap", "iteration", "F - F*", "objective_gap")
    elif args.experiment == "lsp":
        theta = 5.0 if args.theta is None else args.theta
        beta = 1.0 if args.beta is None else args.beta
        m = 4 if args.m is None else args.m
        iters = 2000 if iters is None else iters
        problem = gen_sensing(args.p or 20, args.q or 50, args.spectrum, seed)
        result = run_lsp(
            problem, theta, taus, beta, m, iters, stop_tol=args.tol,
            inner_alpha=args.alpha,
        )
        traces = result.traces
        axes = AxesSpec(
            "lsp stationarity", "iteration", "epsilon_beta", "epsilon_beta"
        )
    elif args.experiment == "altproj":
        sigma = 0.5 if args.sigma is None else args.sigma
        iters = 300 if iters is None else iters
        pair = gen_subspaces(args.n or 500, args.d or 400, sigma, seed)
        traces = run_altproj(pair, taus, iters)
        axes = AxesSpec("alternating projections", "iteration", "residual", "residual")
    elif args.experiment == "matfac":
        alpha = 0.1 if args.alpha is None else args.alpha
        rank = 10 if args.rank is None else args.rank
        iters = 300 if iters is None else iters
        problem = gen_matfac(args.n or 100, rank, alpha, seed)
        traces = run_matfac(problem, taus, iters)
        axes = AxesSpec("matrix factorization", "iteration", "objective", "objective")
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.experiment)

    series = list(traces.values())
    for trace in series:
        trace.experiment, trace.seed = args.experiment, seed
    # a metric with no positive value (lsp from an already stationary start
    # records epsilon_beta = 0 throughout) has nothing to show on a log axis
    if not any(v > 0 for s in series for _, v in s.metrics.get(axes.metric, ())):
        axes.ylog = False
    diverged = any(s.diverged for s in series)
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(series, out / f"{args.experiment}_traces.csv")
    emit_svg(series, out / f"{args.experiment}.svg", axes)
    _write_metadata(out, f"run:{args.experiment}", args, extra)
    print(
        f"{args.experiment}: {len(series)} traces, iterations={iters}, "
        f"diverged={int(diverged)}"
    )
    return 3 if diverged else 0


def cmd_accel(args):
    out = Path(args.out)
    if args.angles:
        angles = [float(v) for v in args.angles]
        pair = prescribed_angle_pair(angles, seed=args.seed)
        spectrum = projection_spectrum(pair)
        rho = spectrum.rho
        if rho is None:
            print("degenerate pair: all principal angles are zero", file=sys.stderr)
            return 2
    else:
        rho = args.rho if args.rho is not None else 0.25
        if not 0.0 < rho < 1.0:
            print(f"rho must be in (0, 1), got {rho}", file=sys.stderr)
            return 2
        theta = float(np.arccos(np.sqrt(1.0 - rho)))
        pair = prescribed_angle_pair([theta, theta, theta], seed=args.seed)

    iters = 400 if args.iters is None else args.iters
    xi1, xi2 = tuned_xi2(rho)
    rows = []
    for label, xi in (("single-step", (1.0,)), ("tuned-2step", (xi1, xi2))):
        predicted = max(
            multistep_altproj_radius(lam, xi)
            for lam in projection_spectrum(pair).eigenvalues
        )
        fit = verify_rate(pair, xi, iters)
        rows.append(
            {
                "scheme": label,
                "tau": len(xi),
                "xi": " ".join(_fmt(v) for v in xi),
                "rho": rho,
                "predicted_rate": predicted,
                "fitted_rate": fit.rate,
                "fit_k_start": fit.k_start,
                "fit_k_end": fit.k_end,
                "truncated": int(fit.truncated),
            }
        )
        print(
            f"{label}: xi=({rows[-1]['xi']}) predicted={predicted:.6f} "
            f"fitted={fit.rate:.6f}"
        )
    out.mkdir(parents=True, exist_ok=True)
    _write_table(rows, out / "accel.csv")
    series = [altproj_trace(pair, xi, iters) for xi in ((1.0,), (xi1, xi2))]
    for trace in series:
        trace.experiment, trace.seed = "altproj_accel", args.seed
    emit_csv(series, out / "accel_traces.csv")
    emit_svg(
        series,
        out / "accel.svg",
        AxesSpec("accelerated alternating projections", "iteration", "residual", "residual"),
    )
    _write_metadata(out, "accel", args, {"rho": rho})
    return 0


def _write_metadata(out, command, args, extra):
    payload = {
        "command": command,
        "version": __version__,
        "kernel_backend": _kernels.backend_name(),
        "config": {
            k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
        },
    }
    payload.update(extra)
    with open(Path(out) / "run.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _int_list(text):
    return [int(v) for v in text.split(",") if v != ""]


def _float_list(text):
    return [float(v) for v in text.split(",") if v != ""]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="proxflow",
        description="Multi-step approximate proximal point methods: stability "
        "tables, figures, and application experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output directory (default: out)")
        p.add_argument("--jobs", type=int, default=None, help="worker pool size")
        p.add_argument("--config", help="JSON config file (flags win)")
        p.add_argument("--seed", type=int, default=None, help="random seed")

    p_tables = sub.add_parser("tables", help="reproduce the stability tables")
    common(p_tables)
    p_tables.add_argument(
        "--only", choices=sorted(METHOD_TAU), help="restrict to one method"
    )
    p_tables.set_defaults(func=cmd_tables)

    p_fig = sub.add_parser("figure1", help="radius-vs-beta curves")
    common(p_fig)
    p_fig.add_argument("--tau", type=_int_list, default=None)
    p_fig.add_argument("--m-list", type=_int_list, default=None)
    p_fig.add_argument("--l-list", type=_float_list, default=None)
    p_fig.add_argument(
        "--alpha", type=float, default=None,
        help="inner proximal-gradient step size the radii are computed for "
        "(default 1.0)",
    )
    p_fig.add_argument("--beta-min", type=float, default=None)
    p_fig.add_argument("--beta-max", type=float, default=None)
    p_fig.add_argument("--beta-points", type=int, default=None)
    p_fig.set_defaults(func=cmd_figure1)

    p_run = sub.add_parser("run", help="application experiments")
    common(p_run)
    p_run.add_argument("experiment", choices=["l1", "lsp", "altproj", "matfac"])
    p_run.add_argument("--tau", type=_int_list, default=None)
    p_run.add_argument("--beta", type=float, default=None)
    p_run.add_argument("--m", type=int, default=None)
    p_run.add_argument(
        "--alpha", type=float, default=None,
        help="l1, lsp: inner proximal-gradient step size (default "
        "beta / (beta L + 1)); matfac: proximal weight of each block solve "
        "(default 0.1); altproj: unused",
    )
    p_run.add_argument("--lambda", dest="lam", type=float, default=None)
    p_run.add_argument("--theta", type=float, default=None)
    p_run.add_argument("--sigma", type=float, default=None)
    p_run.add_argument("--rank", type=int, default=None)
    p_run.add_argument("--iters", type=int, default=None)
    p_run.add_argument("--tol", type=float, default=None)
    p_run.add_argument("--p", type=int, default=None)
    p_run.add_argument("--q", type=int, default=None)
    p_run.add_argument("--n", type=int, default=None)
    p_run.add_argument("--d", type=int, default=None)
    p_run.add_argument(
        "--spectrum",
        choices=["uniform", "inverse_r", "exp_decay"],
        default=None,
    )
    p_run.set_defaults(func=cmd_run)

    p_accel = sub.add_parser("accel", help="tuned alternating projections")
    common(p_accel)
    p_accel.add_argument("--rho", type=float, default=None)
    p_accel.add_argument("--angles", type=_float_list, default=None)
    p_accel.add_argument("--iters", type=int, default=None)
    p_accel.set_defaults(func=cmd_accel)
    return parser


# every option defaults to None at parse time so the precedence
# flag > config file > builtin default is unambiguous
_BUILTIN_DEFAULTS = {
    "out": "out",
    "jobs": 1,
    "spectrum": "uniform",
    "beta_min": 0.05,
    "beta_max": 50.0,
    "beta_points": 25,
}


def _apply_config(args, parser):
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            parser.error("config file must hold a JSON object")
        for key, value in config.items():
            dest = key.replace("-", "_")
            if hasattr(args, dest) and getattr(args, dest) is None:
                setattr(args, dest, value)
    for dest, value in _BUILTIN_DEFAULTS.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(args, parser)
    if args.seed is None:
        args.seed = int(os.environ.get("PROXFLOW_SEED", "0"))
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
