"""Command-line entry point.

Subcommands:

- ``tables``: recompute the stability tables (max stable step size and
  optimal radius) next to their reference values; exit code 4 when a
  row misses its tolerance and fails the companion-simulation oracle.
- ``figure1``: radius-versus-beta curves per (L, m) panel.
- ``run``: one of the four application experiments (l1, lsp, altproj,
  matfac), emitting trace CSV + SVG and a ``run.json`` sidecar; its
  ``fixed_at`` gives, per tau, the first step that reused a fixed point;
  for ``run l1`` ``nonpositive_gaps`` gives, per tau, how many of its
  objective-gap points are not positive (the log-scale plot leaves them
  out), and for ``run lsp`` ``start_stationary`` says, per tau, whether
  its stationarity measure is 0 at the start (k = 0).
- ``accel``: tuned two-step coefficients with predicted and fitted rates.

Every flag has a config-file equivalent (a flat JSON object); explicit
flags win over it, and the option table ``OPTIONS``, which declares each
flag once, fills in what neither sets. A config file that cannot be read
or is not JSON, a config key that names no option of the command, a
value its flag would reject, or a flag abbreviated to a prefix is a
usage error, and so is a value repeated in ``--tau``, ``--m-list`` or
``--l-list``. ``tables``, ``figure1`` and ``run`` compute
their independent cells, curves and per-tau runs (and the F* reference
of ``run l1``) on ``--jobs`` forked worker processes (default: the CPUs
available to the process; never more than there are work units), and
their ``run.json`` gives the number used as ``workers``; ``accel`` takes
``--jobs`` but runs in one process.
``PROXFLOW_SEED`` provides the default seed; a value that is not a
non-negative integer is a usage error, as it is for ``--seed``. Exit codes:
0 success, 2 usage error, 3 numeric divergence (outputs still written),
4 tolerance failure in ``tables``.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

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
    SPECTRUM_KINDS,
    AxesSpec,
    emit_csv,
    emit_svg,
    emit_table,
    gen_matfac,
    gen_sensing,
    gen_subspaces,
    run_altproj,
    run_l1,
    run_lsp,
    run_matfac,
    svg_curves,
)
from .multistep import Trace, bdf_coefficients
from .numerics import TOL, seeded_rng
from .spectral import (
    CompanionSpec,
    beta_scan,
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


def _oracle_check(method, beta, m, alpha, lmax):
    """Companion-simulation oracle for an out-of-tolerance table row."""
    rng = seeded_rng(ORACLE_SEED)
    n = 6
    eigs = np.concatenate(([1.0, lmax], rng.uniform(1.0, lmax, n - 2)))
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    q = basis @ np.diag(eigs) @ basis.T
    q = 0.5 * (q + q.T)
    x0 = rng.standard_normal(n)
    x0 /= np.linalg.norm(x0)
    spec = CompanionSpec(_method_xi(method), 0.9 * alpha, beta, m)
    check = simulate_companion_check(spec, q, x0, 50)
    return check.discrepancy / max(1.0, check.max_norm)


_VERDICT = ("abs_diff", "tolerance", "within_tolerance", "oracle_discrepancy", "row_pass")

# The CSV columns of each table, in the order they are written.
COLUMNS = {
    "table2": (
        "method", "beta", "L", "mu", "m", "computed_alpha", "reference_alpha", *_VERDICT,
    ),
    "table3": (
        "method", "m", "beta", "L", "mu", "computed_rho", "computed_alpha", "reference_rho",
        *_VERDICT,
    ),
}


def _table_row(name, cell, checked, computed, ref, tight):
    """One row of table ``name``: the computed columns and their verdict.

    ``computed["computed_<checked>"]`` is compared with ``ref``. A
    ``tight`` row is held to ``PPM_TOLERANCE`` with no oracle escape;
    every other row gets ``BDF_TOLERANCE`` and the companion-simulation
    oracle, since the multistep reference values carry a known scaling
    ambiguity.
    """
    method, m, beta, lmax = cell
    tol = PPM_TOLERANCE if tight else BDF_TOLERANCE
    diff = abs(computed["computed_" + checked] - ref)
    within = diff <= tol
    oracle, passed = "", within
    if not within and not tight:
        oracle = _oracle_check(method, beta, m, computed["computed_alpha"], lmax)
        passed = oracle <= TOL.companion_discrepancy
    row = {
        "method": method,
        "m": m,
        "beta": beta,
        "L": lmax,
        "mu": 1.0,
        **computed,
        "reference_" + checked: ref,
        "abs_diff": diff,
        "tolerance": tol,
        "within_tolerance": int(within),
        "oracle_discrepancy": oracle,
        "row_pass": int(passed),
    }
    return {key: row[key] for key in COLUMNS[name]}


def _cell_rows(cell):
    """The rows of one table-3 cell (method, m, beta, L), by table.

    An m = 4 cell also gives its table-2 row: the max stable alpha of
    table 2 is the alpha* that bounds the cell's optimal-rate search.
    """
    method, m, beta, lmax = cell
    best = optimal_rate(1.0, lmax, beta, m, _method_xi(method))
    rows = {
        "table3": _table_row(
            "table3", cell, "rho", {"computed_rho": best.rho, "computed_alpha": best.alpha},
            TABLE3_REFERENCE[method, m, beta][lmax], cell in TABLE3_TIGHT_CELLS,
        )
    }
    if m == 4:
        rows["table2"] = _table_row(
            "table2", cell, "alpha", {"computed_alpha": best.alpha_max},
            TABLE2_REFERENCE[method, beta][lmax], method == "ppm",
        )
    return rows


# Set in each worker of a _parallel pool by its initializer. The workers
# are forked, so the function and items are inherited, not pickled; only
# item indices and results cross between the processes.
_WORK = None


def _init_worker(fn, items):
    global _WORK
    _WORK = fn, items


def _work_item(index):
    fn, items = _WORK
    return fn(items[index])


def _parallel(fn, items, jobs):
    """``[fn(item) for item in items]`` on at most ``jobs`` processes.

    Returns the results in item order and the number of processes used.
    With more than one, the workers are forked, so they see the state of
    this process; the exception of the first failing item in item order
    is re-raised here, a worker that dies raises ``BrokenProcessPool``,
    and every worker has exited when this returns or raises. Fork is safe
    here: the workers are forked before the pool starts its threads, and
    OpenBLAS stops its own around a fork.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items], 1
    # imported here: a serial run needs no process pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), _init_worker, (fn, items)
    )
    try:
        return list(pool.map(_work_item, range(len(items)))), workers
    finally:
        # after a failure the items not yet started are dropped
        pool.shutdown(cancel_futures=True)


def cmd_tables(args):
    out = Path(args.out)
    # table 3's cells in its row order; their m = 4 cells are table 2's,
    # in table 2's row order
    cells = [
        (method, m, beta, lmax)
        for (method, m, beta), per_l in TABLE3_REFERENCE.items()
        if not args.only or method == args.only
        for lmax in per_l
    ]
    results, workers = _parallel(_cell_rows, cells, args.jobs)
    tables = {name: [rows[name] for rows in results if name in rows] for name in COLUMNS}
    out.mkdir(parents=True, exist_ok=True)
    counts, summary = {"workers": workers}, []
    for name, rows in tables.items():
        emit_table(rows, out / f"{name}.csv")
        # a cell within its tolerance reproduces the paper; a passing cell
        # outside it passed only through the companion-simulation oracle
        reproduced = sum(r["within_tolerance"] for r in rows)
        escaped = sum(r["row_pass"] for r in rows) - reproduced
        counts[f"rows_{name}"] = len(rows)
        counts[f"reproduced_{name}"] = reproduced
        counts[f"oracle_escaped_{name}"] = escaped
        summary.append(
            f"{name}: {len(rows)} rows, {reproduced} reproduced, {escaped} oracle_escaped"
        )
    _write_metadata(out, "tables", args, counts)
    failed = [r for rows in tables.values() for r in rows if not r["row_pass"]]
    for r in failed:
        print(f"tolerance failure: {r}", file=sys.stderr)
    print(f"{', '.join(summary)}, failures: {len(failed)}")
    return 4 if failed else 0


def cmd_figure1(args):
    out = Path(args.out)
    betas = np.geomspace(args.beta_min, args.beta_max, args.beta_points)
    panels = [(lmax, m) for lmax in args.l_list for m in args.m_list]
    # one work unit per panel, the costliest first, so that no long panel
    # starts last while the other workers idle: a panel's cost grows with m
    units = sorted(panels, key=lambda panel: -panel[1])

    def work(unit):
        lmax, m = unit
        return beta_scan(1.0, lmax, m, args.alpha, args.tau, betas)

    curves, workers = _parallel(work, units, args.jobs)
    panel_curves = dict(zip(units, curves))
    plots = []
    for lmax, m in panels:
        per_tau = panel_curves[lmax, m]
        series = [
            Trace(tau, "figure1", metrics={"radius": [(r["beta"], r["radius"]) for r in rows]})
            for tau, rows in zip(args.tau, per_tau)
        ]
        title = f"radius vs beta (L={lmax:g}, m={m}, alpha={args.alpha:g})"
        axes = AxesSpec(title, "beta", "radius", "radius", ylog=False, xlog=True)
        # a panel with nothing to plot fails before any file is written
        svg_curves(series, axes)
        # a panel's rows are its taus' curves in --tau order
        rows = [r for curve_rows in per_tau for r in curve_rows]
        plots.append((f"figure1_L{lmax:g}_m{m}", rows, series, axes))
    out.mkdir(parents=True, exist_ok=True)
    for stem, rows, series, axes in plots:
        emit_table(rows, out / f"{stem}.csv")
        emit_svg(series, out / f"{stem}.svg", axes)
    _write_metadata(out, "figure1", args, {"panels": len(plots), "workers": workers})
    print(f"figure1: {len(plots)} panels written to {out}")
    return 0


def cmd_run(args):
    out = Path(args.out)
    workers = 1

    def pooled(fn, units):
        nonlocal workers
        results, workers = _parallel(fn, units, args.jobs)
        return results

    extra = {}
    if args.experiment == "l1":
        problem = gen_sensing(args.p, args.q, args.spectrum, args.seed)
        result = run_l1(
            problem, args.lam, args.tau, args.beta, args.m, args.iters,
            stop_tol=args.tol, inner_alpha=args.alpha, mapper=pooled,
        )
        extra["f_star"] = result.f_star
        extra["nonpositive_gaps"] = {str(t): n for t, n in result.nonpositive_gaps.items()}
        traces = result.traces
        axes = AxesSpec("l1 objective gap", "iteration", "F - F*", "objective_gap")
    elif args.experiment == "lsp":
        problem = gen_sensing(args.p, args.q, args.spectrum, args.seed)
        traces = run_lsp(
            problem, args.theta, args.tau, args.beta, args.m, args.iters,
            stop_tol=args.tol, inner_alpha=args.alpha, mapper=pooled,
        )
        axes = AxesSpec(
            "lsp stationarity", "iteration", "epsilon_beta", "epsilon_beta"
        )
        # a start with epsilon_beta = 0 is stationary: the run measures nothing
        extra["start_stationary"] = {
            str(t): trace.metrics["epsilon_beta"][0] == (0, 0.0) for t, trace in traces.items()
        }
    elif args.experiment == "altproj":
        pair = gen_subspaces(args.n, args.d, args.sigma, args.seed)
        traces = run_altproj(pair, args.tau, args.iters, pooled)
        axes = AxesSpec("alternating projections", "iteration", "residual", "residual")
    elif args.experiment == "matfac":
        problem = gen_matfac(args.n, args.rank, args.alpha, args.seed)
        traces = run_matfac(problem, args.tau, args.iters, pooled)
        axes = AxesSpec("matrix factorization", "iteration", "objective", "objective")
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.experiment)

    series = list(traces.values())
    for trace in series:
        trace.experiment, trace.seed = args.experiment, args.seed
    # a metric with no positive value (lsp from an already stationary start
    # records epsilon_beta = 0 throughout) has nothing to show on a log axis
    if not any(v > 0 for s in series for _, v in s.metrics.get(axes.metric, ())):
        axes.ylog = False
    diverged = any(s.diverged for s in series)
    extra["fixed_at"] = {str(s.tau): s.fixed_at for s in series}
    extra["workers"] = workers
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(series, out / f"{args.experiment}_traces.csv")
    emit_svg(series, out / f"{args.experiment}.svg", axes)
    _write_metadata(out, f"run:{args.experiment}", args, extra)
    print(
        f"{args.experiment}: {len(series)} traces, iterations={args.iters}, "
        f"diverged={int(diverged)}"
    )
    return 3 if diverged else 0


def cmd_accel(args):
    out = Path(args.out)
    if args.angles is not None:
        pair = prescribed_angle_pair(args.angles, seed=args.seed)
        spectrum = projection_spectrum(pair)
        rho = spectrum.rho
        if rho is None:
            print("degenerate pair: all principal angles are zero", file=sys.stderr)
            return 2
    else:
        rho = args.rho
        if not 0.0 < rho < 1.0:
            print(f"rho must be in (0, 1), got {rho}", file=sys.stderr)
            return 2
        theta = float(np.arccos(np.sqrt(1.0 - rho)))
        pair = prescribed_angle_pair([theta, theta, theta], seed=args.seed)
        spectrum = projection_spectrum(pair)

    rows, series = [], []
    for label, xi in (("single-step", (1.0,)), ("tuned-2step", tuned_xi2(rho))):
        predicted = max(multistep_altproj_radius(lam, xi) for lam in spectrum.eigenvalues)
        fit = verify_rate(pair, xi, args.iters)
        fit.trace.experiment, fit.trace.seed = "altproj_accel", args.seed
        series.append(fit.trace)
        rows.append(
            {
                "scheme": label,
                "tau": len(xi),
                "xi": " ".join(format(v, ".17g") for v in xi),
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
    emit_table(rows, out / "accel.csv")
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


def _split_list(text, cast, distinct=True):
    values = [cast(v) for v in text.split(",") if v != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    if distinct and len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return values


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text):
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _int_list(text):
    return _split_list(text, int)


def _float_list(text):
    return _split_list(text, _finite_float)


def _angle_list(text):
    # principal angles may repeat
    return _split_list(text, _finite_float, distinct=False)


# Run kinds: what an option's defaults are keyed by. ``run`` has one per
# experiment, and ``accel`` with --angles has no rho default, because the
# angles determine rho.
EXPERIMENTS = ("l1", "lsp", "altproj", "matfac")
RUNS = tuple(f"run {e}" for e in EXPERIMENTS)
SENSING = ("run l1", "run lsp")
RUN_KINDS = ("tables", "figure1", *RUNS, "accel", "accel --angles")
COMMANDS = ("tables", "figure1", "run", "accel")
# the CPUs this process may run on: the default worker count of the
# commands that use the pool
CPUS = len(os.sched_getaffinity(0))


class Option(NamedTuple):
    """One command-line option, declared once for every command that takes it.

    Every option is None at parse time, so the precedence flag > config
    file > ``defaults`` is unambiguous and ``run.json`` echoes each value a
    run used. ``defaults`` maps a run kind to its value; an option with no
    default for the run kind stays None (the l1/lsp inner step size is
    computed from the problem). ``dest`` is given only where it is not the
    flag's name.
    """

    flag: str
    commands: tuple
    type: Optional[Callable] = None
    defaults: dict = {}
    help: Optional[str] = None
    choices: Optional[tuple] = None
    dest: Optional[str] = None

    @property
    def attr(self):
        """The attribute of the parsed arguments that the option sets."""
        return self.dest or self.flag[2:].replace("-", "_")


# Rows are in --help order.
OPTIONS = (
    Option("--out", COMMANDS, None, dict.fromkeys(RUN_KINDS, "out"),
           "output directory (default: out)"),
    Option("--jobs", COMMANDS, _positive_int,
           {**dict.fromkeys(RUN_KINDS, CPUS), "accel": 1, "accel --angles": 1},
           "worker processes for tables, figure1 and run (default: CPUs "
           "available); unused by accel"),
    Option("--config", COMMANDS, help="JSON config file (flags win)"),
    Option("--seed", COMMANDS, _seed_int, help="random seed (a non-negative integer)"),
    Option("--only", ("tables",), choices=tuple(sorted(METHOD_TAU)),
           help="restrict to one method"),
    Option("--tau", ("figure1", "run"), _int_list, dict.fromkeys(("figure1", *RUNS), (1, 2, 3))),
    Option("--m-list", ("figure1",), _int_list, {"figure1": (1, 4, 20)}),
    Option("--l-list", ("figure1",), _float_list, {"figure1": (2.0, 10.0)}),
    Option("--beta", ("run",), _finite_float, dict.fromkeys(SENSING, 1.0)),
    Option("--m", ("run",), int, dict.fromkeys(SENSING, 4)),
    Option(
        "--alpha", ("figure1", "run"), _finite_float, {"figure1": 1.0, "run matfac": 0.1},
        "figure1: inner proximal-gradient step size the radii are computed for "
        "(default 1.0); run l1, lsp: inner proximal-gradient step size (default "
        "beta / (beta L + 1)); run matfac: proximal weight of each block solve "
        "(default 0.1); run altproj: unused",
    ),
    Option("--beta-min", ("figure1",), _positive_float, {"figure1": 0.05}),
    Option("--beta-max", ("figure1",), _positive_float, {"figure1": 50.0}),
    Option("--beta-points", ("figure1",), _positive_int, {"figure1": 25}),
    Option("--lambda", ("run",), _finite_float, {"run l1": 0.01}, dest="lam"),
    Option("--theta", ("run",), _finite_float, {"run lsp": 5.0}),
    Option("--sigma", ("run",), _finite_float, {"run altproj": 0.5}),
    Option("--rank", ("run",), int, {"run matfac": 10}),
    Option("--rho", ("accel",), _finite_float, {"accel": 0.25}),
    Option("--angles", ("accel",), _angle_list),
    Option(
        "--iters", ("run", "accel"), int,
        {**dict.fromkeys(SENSING, 2000), "run altproj": 300, "run matfac": 300,
         "accel": 400, "accel --angles": 400},
    ),
    Option("--tol", ("run",), _finite_float),
    Option("--p", ("run",), int, {"run l1": 50, "run lsp": 20}),
    Option("--q", ("run",), int, {"run l1": 100, "run lsp": 50}),
    Option("--n", ("run",), int, {"run altproj": 500, "run matfac": 100}),
    Option("--d", ("run",), int, {"run altproj": 400}),
    Option("--spectrum", ("run",), defaults=dict.fromkeys(RUNS, "uniform"),
           choices=SPECTRUM_KINDS),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="proxflow",
        allow_abbrev=False,
        description="Multi-step approximate proximal point methods: stability "
        "tables, figures, and application experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, text in (
        ("tables", cmd_tables, "reproduce the stability tables"),
        ("figure1", cmd_figure1, "radius-vs-beta curves"),
        ("run", cmd_run, "application experiments"),
        ("accel", cmd_accel, "tuned alternating projections"),
    ):
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        if command == "run":
            p.add_argument("experiment", choices=EXPERIMENTS)
        for opt in OPTIONS:
            if command in opt.commands:
                p.add_argument(
                    opt.flag, dest=opt.attr, type=opt.type, choices=opt.choices, help=opt.help
                )
        p.set_defaults(func=func)
    return parser


def _apply_config(args, parser):
    options = [opt for opt in OPTIONS if args.command in opt.commands]
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"config file {args.config}: {exc}")
        if not isinstance(config, dict):
            parser.error("config file must hold a JSON object")
        # a key is the option's flag name or its dest
        by_key = {key: opt for opt in options for key in (opt.flag[2:], opt.attr)}
        argv = [args.command] + ([args.experiment] if args.command == "run" else [])
        for key, value in config.items():
            if key not in by_key:
                parser.error(f"config file: {key!r} is not an option of {args.command}")
            if value is not None:
                text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                argv.append(f"{by_key[key].flag}={text}")
        # each value is parsed by its own option, so it fails as the flag would
        from_config = parser.parse_args(argv)
        for dest, value in vars(from_config).items():
            if getattr(args, dest) is None:
                setattr(args, dest, value)
    kind = f"run {args.experiment}" if args.command == "run" else args.command
    if kind == "accel" and args.angles is not None:
        kind = "accel --angles"
    for opt in options:
        if getattr(args, opt.attr) is None:
            setattr(args, opt.attr, opt.defaults.get(kind))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(args, parser)
    if args.seed is None:
        seed = os.environ.get("PROXFLOW_SEED", "0")
        try:
            args.seed = _seed_int(seed)
        except (ValueError, argparse.ArgumentTypeError):
            parser.error(f"PROXFLOW_SEED must be a non-negative integer, got {seed!r}")
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
