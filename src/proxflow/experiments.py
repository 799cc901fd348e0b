"""Problem generators and experiment runners for the four applications.

Covers sparse regression with l1 and log-sum penalties on synthetic
compressed-sensing instances, alternating projections between random
subspaces, and alternating minimization for matrix factorization, plus
the CSV/SVG serialization shared by all of them. Divergence is data
here: traces carry a flag and end early instead of raising.
"""

import csv
from dataclasses import dataclass, field
from html import escape
from typing import Optional

import numpy as np

from .multistep import (
    CompositeObjective,
    DivergenceError,
    MultistepConfig,
    bdf_coefficients,
    iterate,
    run,
)
from .numerics import (
    TOL,
    RankError,
    ValidationError,
    as_vector,
    orthonormal_basis,
    seeded_rng,
)
from .prox_ops import lsp_shrink, soft_threshold

SPECTRUM_KINDS = ("uniform", "inverse_r", "exp_decay")


@dataclass
class SensingProblem:
    """Underdetermined sensing instance b = A x_true with known spectrum."""

    a: np.ndarray
    b: np.ndarray
    x_true: np.ndarray
    spectrum_kind: str
    seed: int
    singular_values: np.ndarray


def gen_sensing(p, q, spectrum_kind, seed):
    """Generate A = U diag(sigma) V^T with the declared singular values.

    U and V come from orthonormalized seeded Gaussians; x_true is
    standard normal on max(1, p // 5) entries and b = A x_true
    (noise-free).
    """
    if not 1 <= p < q:
        raise ValidationError(f"need 1 <= p < q, got p={p}, q={q}")
    if spectrum_kind not in SPECTRUM_KINDS:
        raise ValidationError(
            f"spectrum_kind must be one of {SPECTRUM_KINDS}, got {spectrum_kind!r}"
        )
    rng = seeded_rng(seed)
    u = orthonormal_basis(rng.standard_normal((p, p)))
    v = orthonormal_basis(rng.standard_normal((q, p)))
    r = np.arange(1, p + 1, dtype=float)
    if spectrum_kind == "uniform":
        sigma = np.sort(rng.uniform(size=p))[::-1]
    elif spectrum_kind == "inverse_r":
        sigma = 1.0 / r
    else:
        sigma = np.exp(-(r - 1.0))
    a = (u * sigma) @ v.T

    k = max(1, p // 5)
    x_true = np.zeros(q)
    support = rng.choice(q, size=k, replace=False)
    x_true[support] = rng.standard_normal(k)
    return SensingProblem(a, a @ x_true, x_true, spectrum_kind, seed, sigma)


def lasso_objective(problem, lam):
    """Composite F(x) = (1/2)|Ax - b|^2 + lam |x|_1.

    With lam = 0 the prox of F is an exact linear solve, exposed as
    ``exact_prox``.
    """
    if lam < 0:
        raise ValidationError(f"lam must be >= 0, got {lam}")
    a, b = problem.a, problem.b
    smoothness = float(problem.singular_values.max() ** 2)

    def value(x):
        r = a @ x - b
        return 0.5 * float(r @ r) + lam * float(np.abs(x).sum())

    exact = None
    if lam == 0.0:
        gram = a.T @ a
        atb = a.T @ b

        def exact(x, beta):
            n = x.size
            return np.linalg.solve(np.eye(n) + beta * gram, x + beta * atb)

    return CompositeObjective(
        value=value,
        grad_f=lambda x: a.T @ (a @ x - b),
        prox_h=lambda v, t: soft_threshold(v, t * lam) if lam > 0 else v,
        smoothness=smoothness,
        convexity=0.0,
        exact_prox=exact,
    )


def lsp_objective(problem, theta):
    """Composite F(x) = (1/2)|Ax - b|^2 + sum_i log(1 + |x_i|/theta)."""
    if theta <= 0:
        raise ValidationError(f"theta must be > 0, got {theta}")
    a, b = problem.a, problem.b
    smoothness = float(problem.singular_values.max() ** 2)

    def value(x):
        r = a @ x - b
        return 0.5 * float(r @ r) + float(np.log1p(np.abs(x) / theta).sum())

    return CompositeObjective(
        value=value,
        grad_f=lambda x: a.T @ (a @ x - b),
        prox_h=lambda v, t: lsp_shrink(v, theta, t),
        smoothness=smoothness,
        convexity=-1.0 / theta**2,
    )


def reference_optimum(problem, lam, beta):
    """Per-instance F* oracle: a long single-step high-budget run.

    Runs at most 50,000 exact (lam = 0) or 50 inner-step prox steps and
    stops once the objective has not improved by more than
    1e-15 relative for 50 steps in a row; returns the best value seen.
    """
    objective = lasso_objective(problem, lam)
    cfg = MultistepConfig(xi=(1.0,), beta=beta, inner_m=None if lam == 0.0 else 50)
    x0 = np.zeros(problem.a.shape[1])
    # the stop predicate also sees the start, whose value is no stall
    best, stall = objective.value(x0), -1

    def stagnated(trace):
        nonlocal best, stall
        val = trace.metrics["objective"][-1][1]
        if val >= best - 1e-15 * max(1.0, abs(best)):
            stall += 1
            if stall >= 50:
                return True
        else:
            stall = 0
        best = min(best, val)
        return False

    run(objective, cfg, x0, 50000, stop=stagnated)
    return best


def _sensing_trace(objective, tau, beta, m, iterations, x0, inner_alpha, **kwargs):
    """One ``run`` of BDF order ``tau``; a diverged run keeps its partial trace."""
    cfg = MultistepConfig.bdf(tau, beta, inner_m=m, inner_alpha=inner_alpha)
    try:
        return run(objective, cfg, x0, iterations, **kwargs)
    except DivergenceError as err:
        return err.trace


@dataclass
class SensingResult:
    """What ``run_l1`` gives: traces per tau, F* and, per tau, how many of
    its "objective_gap" points are not positive."""

    traces: dict
    f_star: float
    nonpositive_gaps: dict


def run_l1(
    problem, lam, taus, beta, m, iterations, stop_tol=None, f_star=None, inner_alpha=None,
    mapper=map,
):
    """l1-penalized sensing runs from x = 0, one trace per BDF order in ``taus``.

    ``mapper(fn, items)`` maps the work units in item order, as the
    builtin ``map`` (the default) does. Without ``f_star``,
    ``reference_optimum`` gives F*: before the taus when ``stop_tol`` stops
    each of them at the first step, the start included, whose objective
    gap is at most ``stop_tol``, otherwise as a first unit next to them.
    Each tau's "objective_gap" is filled in from its "objective" after the
    runs.
    """
    objective = lasso_objective(problem, lam)
    x0 = np.zeros(problem.a.shape[1])
    stop = None
    if stop_tol is not None:
        if f_star is None:
            f_star = reference_optimum(problem, lam, beta)

        def stop(trace):
            return trace.metrics["objective"][-1][1] - f_star <= stop_tol

    def unit(tau):
        if tau is None:
            return reference_optimum(problem, lam, beta)
        return _sensing_trace(objective, tau, beta, m, iterations, x0, inner_alpha, stop=stop)

    # None is the reference run, the longest unit, so it starts first
    results = list(mapper(unit, list(taus) if f_star is not None else [None, *taus]))
    if f_star is None:
        f_star = results.pop(0)
    nonpositive = {}
    for tau, trace in zip(taus, results):
        gaps = [(k, value - f_star) for k, value in trace.metrics["objective"]]
        trace.metrics["objective_gap"] = gaps
        nonpositive[tau] = sum(gap <= 0 for _, gap in gaps)
    return SensingResult(dict(zip(taus, results)), f_star, nonpositive)


def run_lsp(
    problem, theta, taus, beta, m, iterations, stop_tol=None, stat_every=25,
    inner_alpha=None, mapper=map,
):
    """Log-sum-penalized sensing traces, one per tau in ``taus`` through
    ``mapper`` (see ``run_l1``), from x = 0; they record the stationarity
    measure (the objective gap is not meaningful without convexity). With
    ``stop_tol`` it is recorded at every step, and each run stops at the
    first step, the start included, where it is at most ``stop_tol``."""
    objective = lsp_objective(problem, theta)
    x0 = np.zeros(problem.a.shape[1])
    stop = None
    if stop_tol is not None:
        stat_every = 1

        def stop(trace):
            return trace.metrics["epsilon_beta"][-1][1] <= stop_tol

    def unit(tau):
        return _sensing_trace(
            objective, tau, beta, m, iterations, x0, inner_alpha,
            stat_every=stat_every, stop=stop,
        )

    return dict(zip(taus, mapper(unit, taus)))


@dataclass
class SubspacePair:
    """Column-space generators of two subspaces and their orthonormal bases.

    ``b1`` and ``b2`` are computed once, when the pair is built; a
    rank-deficient generator raises RankError there. sigma is the
    coherence parameter of the random construction (None for prescribed
    angles).
    """

    c1: np.ndarray
    c2: np.ndarray
    sigma: Optional[float]
    seed: Optional[int]
    b1: np.ndarray = field(init=False, repr=False)
    b2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.b1 = orthonormal_basis(self.c1)
        self.b2 = orthonormal_basis(self.c2)


def gen_subspaces(n, d, sigma, seed):
    """Random pair C1 ~ N(0,1), C2 = (1 - sigma) C1 + sigma Z.

    Small sigma means nearly coincident (ill-conditioned) subspaces.
    Rank-deficient draws (probability ~ 0) are regenerated with a bumped
    seed, at most 3 times.
    """
    if not 1 <= d < n:
        raise ValidationError(f"need 1 <= d < n, got d={d}, n={n}")
    if not 0.0 <= sigma <= 1.0:
        raise ValidationError(f"sigma must be in [0, 1], got {sigma}")
    attempt_seed = seed
    for _ in range(4):
        rng = seeded_rng(attempt_seed)
        c1 = rng.standard_normal((n, d))
        # Z is a temporary, so it is freed before the pair's SVDs run
        c2 = (1.0 - sigma) * c1 + sigma * rng.standard_normal((n, d))
        try:
            return SubspacePair(c1, c2, sigma, seed)
        except RankError:
            attempt_seed += 1000003
    raise RankError("rank-deficient generators after 4 draws")


def altproj_trace(pair, xi, iterations, x0=None):
    """Run y = proj_1(x_mix), x = proj_2(y) with mixing on the x-iterates.

    The history starts filled with x0. The recorded metric "residual" is
    |(I - P1 P2) x^(k)| (P2 applied first).
    """
    b1, b2 = pair.b1, pair.b2
    xi = tuple(float(v) for v in xi)
    if abs(sum(xi) - 1.0) > TOL.mixing_weight_sum:
        raise ValidationError(f"xi must sum to 1, got {sum(xi)!r}")
    if x0 is None:
        x0 = seeded_rng(pair.seed if pair.seed is not None else 0).standard_normal(
            b1.shape[0]
        )
    x0 = as_vector(x0, "x0")

    def step(mixed, last):
        y = b1 @ (b1.T @ mixed[0])
        return (b2 @ (b2.T @ y),)

    def record(trace, k, state):
        x = state[0]
        residual = x - b1 @ (b1.T @ (b2 @ (b2.T @ x)))
        trace.add("residual", k, float(np.linalg.norm(residual)))

    try:
        return iterate(step, (x0,), xi, iterations, record, warmup="repeat")
    except DivergenceError as err:
        return err.trace


def run_altproj(pair, taus, iterations, mapper=map):
    """Alternating-projection traces, one per BDF order in ``taus``,
    through ``mapper`` (see ``run_l1``)."""

    def unit(tau):
        return altproj_trace(pair, tuple(bdf_coefficients(tau)[0]), iterations)

    return dict(zip(taus, mapper(unit, taus)))


@dataclass
class MatFacProblem:
    """Factorization target R with factor rank and proximal weight.

    ``alpha`` is the proximal weight of each exact block solve in
    ``matfac_trace`` (the role ``beta`` plays in the other experiments);
    there is no inner solver and no step size.
    """

    r_matrix: np.ndarray
    rank: int
    alpha: float
    seed: int

    def __post_init__(self):
        n = self.r_matrix.shape[0]
        if self.r_matrix.shape != (n, n):
            raise ValidationError("R must be square")
        if not 1 <= self.rank <= n:
            raise ValidationError(f"rank must be in 1..{n}, got {self.rank}")
        if self.alpha <= 0:
            raise ValidationError(f"alpha must be > 0, got {self.alpha}")


def gen_matfac(n, rank, alpha, seed):
    """Dense N(0,1) target matrix of size n x n."""
    rng = seeded_rng(seed)
    return MatFacProblem(rng.standard_normal((n, n)), rank, alpha, seed)


def matfac_trace(problem, xi, iterations, factors0=None):
    """Multistep alternating minimization on (1/2)|U V^T - R|_F^2.

    The state is the block pair (U, V), mixed block by block with the
    shared weights; each block update is an exact ridge-regularized
    least-squares solve. The recorded metric is "objective" and the
    trace's ``state`` holds the last accepted factors. Without
    ``factors0`` the start factors are seeded standard normals.
    """
    xi = tuple(float(v) for v in xi)
    r_mat, alpha = problem.r_matrix, problem.alpha
    if factors0 is None:
        rng = seeded_rng(problem.seed)
        shape = (r_mat.shape[0], problem.rank)
        factors0 = (rng.standard_normal(shape), rng.standard_normal(shape))
    else:
        factors0 = tuple(f.copy() for f in factors0)
    eye = np.eye(problem.rank)

    def step(mixed, last):
        u_mix, v_mix = mixed
        u = np.linalg.solve(
            (v_mix.T @ v_mix + eye / alpha).T, (r_mat @ v_mix + u_mix / alpha).T
        ).T
        v = np.linalg.solve(
            (u.T @ u + eye / alpha).T, (r_mat.T @ u + v_mix / alpha).T
        ).T
        return (u, v)

    def record(trace, k, state):
        u, v = state
        trace.add("objective", k, 0.5 * float(np.linalg.norm(u @ v.T - r_mat) ** 2))

    try:
        return iterate(step, factors0, xi, iterations, record)
    except DivergenceError as err:
        return err.trace


def run_matfac(problem, taus, iterations, mapper=map):
    """Matrix-factorization traces, one per BDF order in ``taus``, through
    ``mapper`` (see ``run_l1``)."""

    def unit(tau):
        return matfac_trace(problem, tuple(bdf_coefficients(tau)[0]), iterations)

    return dict(zip(taus, mapper(unit, taus)))


# ---------------------------------------------------------------------------
# serialization

CSV_HEADER = "experiment,seed,tau,k,metric_name,metric_value,walltime_s,diverged"


def _fmt(value):
    return format(float(value), ".17g")


def emit_csv(traces, path):
    """Write traces in the long CSV schema (17 significant digits).

    The diverged flag is set on each metric's row at a diverged trace's
    last accepted step.
    """
    if not traces:
        raise ValidationError("no traces to serialize")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for t in traces:
            last_k = t.ks[-1] if t.ks else 0
            walltimes = dict(zip(t.ks, t.walltime_s))
            for name in sorted(t.metrics):
                for k, value in t.metrics[name]:
                    flag = 1 if (t.diverged and k == last_k) else 0
                    fh.write(
                        f"{t.experiment},{t.seed},{t.tau},{k},{name},"
                        f"{_fmt(value)},{_fmt(walltimes.get(k, 0.0))},{flag}\n"
                    )


def emit_table(rows, path):
    """Write dict rows as a CSV table under the first row's keys.

    Floats get 17 significant digits, like ``emit_csv``; other values are
    written as ``str`` gives them.
    """
    if not rows:
        raise ValidationError("no rows to serialize")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow(_fmt(v) if isinstance(v, float) else v for v in row.values())


@dataclass
class AxesSpec:
    """What emit_svg plots: one metric, log-y by default."""

    title: str
    xlabel: str
    ylabel: str
    metric: str
    ylog: bool = True
    xlog: bool = False


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def svg_curves(traces, axes):
    """The (trace, points) pairs ``emit_svg`` draws: each trace with a
    point that ``axes`` can show, and those points.

    Raises ``ValidationError`` when there is no such trace, so a caller
    can check its plots before it writes any file.
    """
    if not traces:
        raise ValidationError("no traces to plot")
    curves = []
    for s in traces:
        pts = [
            (float(k), float(v))
            for k, v in s.metrics.get(axes.metric, [])
            if np.isfinite(v) and (not axes.ylog or v > 0) and (not axes.xlog or k > 0)
        ]
        if pts:
            curves.append((s, pts))
    if not curves:
        raise ValidationError(f"metric {axes.metric!r} has no plottable points")
    return curves


def emit_svg(traces, path, axes):
    """Self-contained static SVG line plot, one polyline per trace."""
    curves = svg_curves(traces, axes)
    width, height = 880, 540
    left, right, top, bottom = 70, 150, 46, 56
    plot_w, plot_h = width - left - right, height - top - bottom

    def tx(v):
        return np.log10(v) if axes.xlog else v

    def ty(v):
        return np.log10(v) if axes.ylog else v

    xs = [tx(x) for _, pts in curves for x, _ in pts]
    ys = [ty(y) for _, pts in curves for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(v):
        return left + (tx(v) - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return top + (y_hi - ty(v)) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="13">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="16">{escape(axes.title, quote=False)}</text>',
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 14}" '
        f'text-anchor="middle">{escape(axes.xlabel, quote=False)}</text>',
        f'<text x="20" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {top + plot_h / 2:.1f})">{escape(axes.ylabel, quote=False)}</text>',
    ]

    for i in range(5):
        frac = i / 4
        gx = x_lo + frac * (x_hi - x_lo)
        label = f"{10 ** gx:.3g}" if axes.xlog else f"{gx:.3g}"
        x_pix = left + frac * plot_w
        parts.append(
            f'<line x1="{x_pix:.1f}" y1="{top + plot_h}" x2="{x_pix:.1f}" '
            f'y2="{top + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x_pix:.1f}" y="{top + plot_h + 20}" '
            f'text-anchor="middle">{escape(label, quote=False)}</text>'
        )
    for i in range(5):
        frac = i / 4
        gy = y_lo + frac * (y_hi - y_lo)
        label = f"{10 ** gy:.2e}" if axes.ylog else f"{gy:.3g}"
        y_pix = top + plot_h - frac * plot_h
        parts.append(
            f'<line x1="{left - 5}" y1="{y_pix:.1f}" x2="{left}" '
            f'y2="{y_pix:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{left - 9}" y="{y_pix + 4:.1f}" '
            f'text-anchor="end">{escape(label, quote=False)}</text>'
        )

    for idx, (s, pts) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"/>'
        )
        legend_y = top + 16 + 20 * idx
        label = f"tau={s.tau}" + (" (diverged)" if s.diverged else "")
        parts.append(
            f'<line x1="{left + plot_w + 12}" y1="{legend_y}" '
            f'x2="{left + plot_w + 36}" y2="{legend_y}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{left + plot_w + 42}" y="{legend_y + 4}">{escape(label, quote=False)}</text>'
        )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
