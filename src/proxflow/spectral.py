"""Stability analysis of the multistep iteration on quadratics.

For f(x) = (1/2) x^T Q x solved with m inner proximal-gradient steps of
step alpha inside a prox of weight beta, the iteration restricted to an
eigendirection with eigenvalue lambda is the scalar recursion

    x^(k+1) = a^m x^(k) + b * sum_i xi_i x^(k-tau+i),
    a = 1 - alpha/beta - alpha*lambda,
    b = (alpha/beta) * sum_{j=1}^{m} a^(j-1),

whose characteristic polynomial is
eta^tau - (a^m + b xi_tau) eta^(tau-1) - b xi_(tau-1) eta^(tau-2) - ...
- b xi_1. The convergence radius is the max root modulus (what
Gelfand's formula asks of the lifted block matrix), taken in the worst
case over the eigenvalues of Q.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .multistep import (
    DivergenceError,
    MultistepConfig,
    bdf_coefficients,
    quadratic_objective,
    run,
)
from .numerics import TOL, ValidationError, as_vector, check_symmetric
from .prox_ops import QuadraticProblem

_LAMBDA_GRID_POINTS = 512
_ALPHA_GRID_POINTS = 2048
_COARSE_STRIDE = 32
_PLATEAU_TOL = 1e-12
_BISECTION_STEPS = 60
_CERTIFY_MARGIN = 1e-6
_BLOCK_ROWS = 8192


class StabilityError(ArithmeticError):
    """No stable step size exists for the requested configuration."""


@dataclass
class CompanionSpec:
    """Parameters of the lifted first-order system; tau is ``len(xi)``."""

    xi: tuple
    alpha: float
    beta: float
    m: int

    def __post_init__(self):
        self.xi = tuple(float(v) for v in self.xi)
        if not 1 <= self.tau <= TOL.max_poly_degree:
            raise ValidationError(
                f"xi must hold 1..{TOL.max_poly_degree} weights, got {self.tau}"
            )
        if not all(map(math.isfinite, (self.alpha, self.beta, *self.xi))):
            raise ValidationError(
                f"alpha, beta and xi must be finite, got alpha={self.alpha}, "
                f"beta={self.beta}, xi={self.xi}"
            )
        if self.alpha <= 0 or self.beta <= 0:
            raise ValidationError("alpha and beta must be > 0")
        if self.m < 1:
            raise ValidationError(f"m must be >= 1, got {self.m}")

    @property
    def tau(self):
        return len(self.xi)


def _powers(alpha, beta, lams, m):
    """``a**m`` and b of the recursion at every (alpha, beta, lambda).

    ``alpha`` or ``beta`` may be a column of k values, shape (k, 1); both
    results then have shape (k, ``lams.size``), one row per value. A
    value's bits do not depend on the other values: every entry is built
    by the same elementwise operations. When ``a**m`` overflows, the
    entries hold inf or NaN, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ab = alpha / beta
        a = 1.0 - ab - alpha * lams
        am = a**m
        one_minus_a = 1.0 - a
        series = np.where(
            np.abs(one_minus_a) > 1e-12, (1.0 - am) / np.where(one_minus_a == 0, 1.0, one_minus_a), float(m)
        )
        return am, ab * series


def _rows(am, b, xi):
    """Ascending monic coefficient rows of the characteristic polynomial
    with weights ``xi``, one per entry of ``_powers``' ``am`` and ``b``, in
    their C order. A row that holds inf or NaN gets the radius inf from
    the root-modulus kernel.
    """
    tau = len(xi)
    rows = np.empty(am.shape + (tau,))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(tau - 1):
            rows[..., i] = -b * xi[i]
        rows[..., tau - 1] = -(am + b * xi[tau - 1])
    return rows.reshape(-1, tau)


def _coeff_rows(alpha, lams, spec):
    """The rows of ``spec`` over every (alpha, lambda) pair, alpha-major.

    ``alpha`` is a float or a column of k alphas, shape (k, 1);
    ``spec.alpha`` is not read.
    """
    return _rows(*_powers(alpha, spec.beta, lams, spec.m), spec.xi)


def _inside(inner, s):
    """Whether every root of each row lies inside its group's radius.

    ``inner`` holds g groups of rows, shape (g, k, d), and ``s`` the g
    radii. Each row is scaled to p(s z), whose coefficients are
    q_i / s^(d-i), and passes when the sum of their moduli is below 1
    (Rouché's theorem: every root of z^d + sum c_i z^i then lies inside
    the unit circle), or else when ``schur_stable_batch`` passes it. A
    NaN or inf row fails the sum and goes on to Schur–Cohn, which fails
    it too.
    """
    d = inner.shape[-1]
    powers = np.arange(d, 0, -1)
    # s = frac * 2^exp, so that no power of s overflows
    frac, exp = np.frexp(s[:, None, None])
    with np.errstate(over="ignore", under="ignore"):
        scaled = np.ldexp(inner / frac**powers, -exp * powers).reshape(-1, d)
    inside = np.abs(scaled).sum(axis=1) < 1.0
    rest = np.flatnonzero(~inside)
    if rest.size:
        inside[rest] = _kernels.schur_stable_batch(scaled[rest])
    return inside.reshape(inner.shape[:2])


def _group_max_radius(rows, size):
    """Largest kernel radius of each group of ``size`` consecutive rows.

    Each group runs over the lambda grid, and its largest radius mostly
    lies at an endpoint, mu or L. So the kernel first runs on the endpoint
    rows of every group. With s = (1 - ``_CERTIFY_MARGIN``) times the
    larger endpoint radius, an inner row whose roots ``_inside`` puts
    inside radius s cannot set the maximum: the kernel stops at 1e-13, far
    inside the margin, which also covers the rounding of the scaled sum.
    The certificate runs on the inner rows of at most ``_BLOCK_ROWS`` rows'
    worth of groups at a time, so its scaled copies stay small. Only the
    rows it leaves go to the kernel, in one more call. A row's radius does
    not depend on its batch, so every maximum has the bits of the kernel
    on all rows. A group whose endpoint radius is 0, inf or NaN certifies
    nothing. A single group, such as a golden-section probe of
    ``optimal_rate``, is certified too: its two kernel calls mostly hold
    few enough rows for the numpy kernel's row-by-row path. Degrees 1 and
    2 (closed forms) and grids of fewer than 3 points take one kernel
    call on all rows.
    """
    d = rows.shape[1]
    if d <= 2 or size < 3:
        return _kernels.max_root_modulus_batch(rows).reshape(-1, size).max(axis=1)
    groups = rows.reshape(-1, size, d)
    radii = np.full(groups.shape[:2], -np.inf)  # a certified row stays below
    ends = groups[:, [0, -1]].reshape(-1, d)
    radii[:, [0, -1]] = _kernels.max_root_modulus_batch(ends).reshape(-1, 2)
    s = (1.0 - _CERTIFY_MARGIN) * radii.max(axis=1)
    sure = np.flatnonzero(np.isfinite(s) & (s > 0.0))
    todo = np.ones(radii.shape, dtype=bool)
    todo[:, [0, -1]] = False
    per_block = max(1, _BLOCK_ROWS // (size - 2))
    for first in range(0, sure.size, per_block):
        block = sure[first : first + per_block]
        todo[block, 1:-1] = ~_inside(groups[block, 1:-1], s[block])
    if todo.any():
        radii[todo] = _kernels.max_root_modulus_batch(groups[todo])
    return radii.max(axis=1)


def _worst_radius(alpha, lams, spec):
    """Worst-case radius over ``lams``.

    A float for a scalar ``alpha``; for a column of k alphas (an ndarray
    of shape (k, 1)), an array of k radii.
    """
    radii = _group_max_radius(_coeff_rows(alpha, lams, spec), lams.size)
    if isinstance(alpha, np.ndarray):
        return radii
    return float(radii[0])


def _lambda_grid(mu, lmax):
    if not (math.isfinite(mu) and math.isfinite(lmax)):
        raise ValidationError(f"mu and L must be finite, got mu={mu}, L={lmax}")
    if mu < 0 or lmax < mu:
        raise ValidationError(f"need 0 <= mu <= L, got mu={mu}, L={lmax}")
    if mu == lmax:
        return np.array([mu])
    lo = mu if mu > 0 else lmax * 1e-9
    return np.concatenate(([mu], np.geomspace(lo, lmax, _LAMBDA_GRID_POINTS), [lmax]))


def spectrum_radius(xis, alpha, betas, m, mu, lmax):
    """Worst-case radius over eigenvalues in [mu, L] of each weight vector
    of ``xis`` at each beta of ``betas``, as a (len(xis), len(betas)) array.

    Each (xi, beta) pair is checked as its ``CompanionSpec`` would be,
    though only the specs of the first xi and of the first beta are built.
    ``a**m`` and b do not depend on xi, so they are computed once, with
    beta as a column, and only the coefficient rows are built per xi.
    This matters for ``figure1``: at alpha = 1 every base
    a = 1 - alpha/beta - alpha lambda is negative, and numpy's array pow
    costs 20 to 30 times more per element on a negative base than on a
    positive one. The 514-point grid is mu, 512 log-spaced points and L.
    Each xi's radii come from at most two kernel calls
    (``_group_max_radius``); a radius does not depend on the other betas,
    because the kernel's result for a row does not depend on the other
    rows of its batch.
    """
    # a check fails on xi or on beta, never on their pairing, so the first
    # row and the first column of the (xi, beta) grid fail at the first
    # pair, with its message, that the row-major loop over them would
    for i, xi in enumerate(xis):
        for beta in betas if i == 0 else betas[:1]:
            CompanionSpec(xi, alpha, beta, m)
    lams = _lambda_grid(mu, lmax)
    am, b = _powers(alpha, np.asarray(betas, dtype=float)[:, None], lams, m)
    return np.array([_group_max_radius(_rows(am, b, xi), lams.size) for xi in xis])


class StableAlpha(NamedTuple):
    alpha: float
    stable: bool
    capped: bool = False


def max_stable_alpha(mu, lmax, beta, m, xi):
    """Largest inner step alpha keeping the worst-case radius below 1.

    Bisection over (0, 10 beta]; returns alpha = 0 with ``stable=False``
    when no stable step size was found, and the cap 10 beta with
    ``capped=True`` when the radius is below 1 there, so no bound was
    found inside the search interval. Each probe asks whether every root
    lies inside the unit circle with the Schur–Cohn test, which finds no
    root. A probe first tests the L row, and builds and tests every row
    only when that row passes, so most unstable probes cost one row. The
    bisection ends once the midpoint is ``lo`` or ``hi``: from then on
    every probe would repeat a known answer. Raises ``ValidationError``
    for a non-finite or out-of-range input.
    """
    spec = CompanionSpec(xi, beta, beta, m)  # alpha placeholder
    lams = _lambda_grid(mu, lmax)

    def stable(alpha):
        # a length-1 slice, not the scalar lams[-1]: numpy's scalar power
        # can differ in the last bit from the array power that builds the
        # full batch
        row = _coeff_rows(alpha, lams[-1:], spec)
        if not _kernels.schur_stable_batch(row)[0]:
            return False
        return bool(_kernels.schur_stable_batch(_coeff_rows(alpha, lams, spec)).all())

    hi = 10.0 * beta
    if stable(hi):
        return StableAlpha(hi, True, capped=True)
    lo = None
    probe = hi
    for _ in range(_BISECTION_STEPS):
        probe /= 2.0
        if stable(probe):
            lo = probe
            break
    if lo is None:
        return StableAlpha(0.0, False)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return StableAlpha(lo, True)


class OptimalRate(NamedTuple):
    rho: float
    alpha: float
    alpha_max: float


def _lattice_argmin(alphas, lams, spec):
    """First index of the smallest worst-case radius over ``alphas``, and that radius.

    Stands in for ``np.argmin`` over a dense scan of every alpha. The
    radius is taken on every ``_COARSE_STRIDE``-th alpha, then on every
    alpha of the coarse cells on both sides of two kinds of coarse point:
    those within ``_PLATEAU_TOL`` of the coarse minimum, which covers a
    plateau where the radius is flat to the last bit, and every coarse
    local minimum that a neighbour exceeds by more than ``_PLATEAU_TOL``,
    because the radius can have two basins (a narrow spectrum gives two of
    nearly equal depth). A basin narrower than a coarse cell is not seen.
    The fine pass builds every grid row only for the alphas whose endpoint
    rows do not already put them above a computed worst radius; index and
    radius are those of the full fine pass.
    """
    coarse = np.arange(0, alphas.size, _COARSE_STRIDE)
    worst = _worst_radius(alphas[coarse, None], lams, spec)
    padded = np.pad(worst, 1, constant_values=np.inf)
    low = np.minimum(padded[:-2], padded[2:])
    high = np.maximum(padded[:-2], padded[2:])
    bottom = worst <= worst.min() + _PLATEAU_TOL
    basin = (worst <= low) & (worst + _PLATEAU_TOL < high)
    fine = np.zeros(alphas.size, dtype=bool)
    for c in coarse[bottom | basin]:
        fine[max(c - _COARSE_STRIDE, 0) : c + _COARSE_STRIDE + 1] = True
    index = np.flatnonzero(fine)
    # the larger endpoint radius bounds each fine alpha's worst radius from
    # below; an alpha whose bound exceeds one computed worst radius w0 cannot
    # hold the minimum, keeps the placeholder inf, and is not computed
    ends = _worst_radius(alphas[index, None], lams[[0, -1]], spec)
    first = index[np.argmin(ends)]
    w0 = _worst_radius(alphas[first : first + 1, None], lams, spec)[0]
    keep = ~(ends > w0)  # holds the alpha of w0, whose bound is at most w0
    worst = np.full(index.size, np.inf)
    worst[keep] = _worst_radius(alphas[index[keep], None], lams, spec)
    best = int(np.argmin(worst))
    return int(index[best]), float(worst[best])


def optimal_rate(mu, lmax, beta, m, xi):
    """Smallest worst-case radius over alpha, the minimizing alpha, and
    the max stable alpha that bounds the search.

    The basin is located on the 2048-point lattice
    ``linspace(alpha*/2048, alpha*, 2048)`` over (0, alpha*], alpha* the
    max stable alpha, scanned coarse-to-fine by ``_lattice_argmin`` (64
    coarse points, then the 32-point cells around each coarse basin and
    across a plateau at the bottom). A golden-section pass then refines
    between the lattice neighbours of the best point (the radius is
    piecewise smooth in alpha, with kinks where the maximizing root
    switches).
    """
    bound = max_stable_alpha(mu, lmax, beta, m, xi)
    if not bound.stable:
        raise StabilityError(
            f"no stable step size for tau={len(xi)}, beta={beta}, m={m}, "
            f"spectrum [{mu}, {lmax}]"
        )
    spec = CompanionSpec(xi, bound.alpha, beta, m)
    lams = _lambda_grid(mu, lmax)
    alphas = np.linspace(bound.alpha / _ALPHA_GRID_POINTS, bound.alpha, _ALPHA_GRID_POINTS)
    best, best_rho = _lattice_argmin(alphas, lams, spec)
    best_alpha = float(alphas[best])

    def radius(alpha):
        return _worst_radius(alpha, lams, spec)

    lo = float(alphas[max(best - 1, 0)])
    hi = float(alphas[min(best + 1, alphas.size - 1)])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = radius(c), radius(d)
    for _ in range(40):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = radius(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = radius(d)
    refined_alpha = c if fc < fd else d
    refined_rho = min(fc, fd)
    if refined_rho < best_rho:
        best_alpha, best_rho = float(refined_alpha), float(refined_rho)
    return OptimalRate(best_rho, best_alpha, bound.alpha)


def beta_scan(mu, lmax, m, alpha, taus, betas):
    """One figure-1 panel: for each tau of ``taus``, the radius curve of the
    order-tau BDF weights over a beta grid.

    A curve is one dict per grid point, keyed by the figure-1 CSV columns,
    and the curves come in ``taus`` order. One ``spectrum_radius`` call
    computes the whole panel.
    """
    xis = [bdf_coefficients(tau)[0] for tau in taus]
    span = f"[{mu:g},{lmax:g}]"
    return [
        [
            {
                "tau": tau,
                "m": m,
                "alpha": alpha,
                "beta": beta,
                "lambda_or_range": span,
                "radius": rho,
                "stable": int(rho < 1.0),
            }
            for beta, rho in zip(betas, curve)
        ]
        for tau, curve in zip(taus, spectrum_radius(xis, alpha, betas, m, mu, lmax).tolist())
    ]


def companion_matrix(spec, q):
    """Explicit block companion matrix M of the lifted system."""
    q = check_symmetric(q, "Q")
    n = q.shape[0]
    a = (1.0 - spec.alpha / spec.beta) * np.eye(n) - spec.alpha * q
    am = np.linalg.matrix_power(a, spec.m)
    series = np.zeros_like(a)
    power = np.eye(n)
    for _ in range(spec.m):
        series += power
        power = power @ a
    b = (spec.alpha / spec.beta) * series

    tau = spec.tau
    m_mat = np.zeros((n * tau, n * tau))
    m_mat[:n, :n] = am + spec.xi[tau - 1] * b
    for i in range(1, tau):
        m_mat[:n, i * n : (i + 1) * n] = spec.xi[tau - 1 - i] * b
    for i in range(1, tau):
        m_mat[i * n : (i + 1) * n, (i - 1) * n : i * n] = np.eye(n)
    return m_mat


class CompanionCheck(NamedTuple):
    discrepancy: float
    max_norm: float


def simulate_companion_check(spec, q, x0, steps):
    """Max discrepancy between the real iteration and the lifted system.

    Runs ``steps`` outer multistep iterations on f(x) = (1/2) x^T Q x
    (inner proximal-gradient with ``spec``'s m and alpha, history padded
    with x0) against the block recursion z <- M z, and returns the max
    over k of the iterate difference norm together with the max iterate
    norm. The contract is
    discrepancy <= ``TOL.companion_discrepancy`` * max_norm.
    """
    x0 = as_vector(x0, "x0")
    problem = QuadraticProblem(q)
    if problem.mu < -TOL.spectrum_match:
        raise ValidationError(f"Q must be PSD, min eigenvalue {problem.mu}")
    objective = quadratic_objective(problem)
    cfg = MultistepConfig(
        xi=spec.xi,
        beta=spec.beta,
        inner_m=spec.m,
        inner_alpha=spec.alpha,
        warmup="repeat",
        inner_start="previous",
    )
    # the iterates 0..steps, collected by a stop predicate that never stops
    iterates = []
    run(objective, cfg, x0, steps, stop=lambda trace: iterates.append(trace.state[0]))

    m_mat = companion_matrix(spec, problem.q)
    n = x0.size
    z = np.tile(x0, spec.tau)
    worst = 0.0
    scale = float(np.linalg.norm(x0))
    for k, x in enumerate(iterates[1:], 1):
        z = m_mat @ z
        if not np.all(np.isfinite(z)) or np.linalg.norm(z) > TOL.divergence_norm:
            raise DivergenceError(f"companion recursion diverged at step {k}")
        worst = max(worst, float(np.linalg.norm(x - z[:n])))
        scale = max(scale, float(np.linalg.norm(x)))
    return CompanionCheck(worst, scale)
