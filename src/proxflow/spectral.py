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


class StabilityError(ArithmeticError):
    """No stable step size exists for the requested configuration."""


@dataclass
class CompanionSpec:
    """Parameters of the lifted first-order system."""

    tau: int
    xi: tuple
    alpha: float
    beta: float
    m: int

    def __post_init__(self):
        self.xi = tuple(float(v) for v in self.xi)
        if len(self.xi) != self.tau or self.tau < 1:
            raise ValidationError("xi length must equal tau >= 1")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValidationError("alpha and beta must be > 0")
        if self.m < 1:
            raise ValidationError(f"m must be >= 1, got {self.m}")
        if self.tau > TOL.max_poly_degree:
            raise ValidationError(f"tau must be <= {TOL.max_poly_degree}, got {self.tau}")


def _coeff_rows(alpha, lams, spec):
    """Ascending monic coefficient rows of the characteristic polynomial.

    ``alpha`` is a float or a column of k alphas, shape (k, 1); the rows
    run over every (alpha, lambda) pair, alpha-major. ``spec.alpha`` is
    not read. A row's bits do not depend on the other alphas: every row is
    built by the same elementwise operations.
    """
    ab = alpha / spec.beta
    a = 1.0 - ab - alpha * lams
    am = a**spec.m
    one_minus_a = 1.0 - a
    series = np.where(
        np.abs(one_minus_a) > 1e-12, (1.0 - am) / np.where(one_minus_a == 0, 1.0, one_minus_a), float(spec.m)
    )
    b = ab * series
    rows = np.empty(a.shape + (spec.tau,))
    for i in range(spec.tau - 1):
        rows[..., i] = -b * spec.xi[i]
    rows[..., spec.tau - 1] = -(am + b * spec.xi[spec.tau - 1])
    return rows.reshape(-1, spec.tau)


def _worst_radius(alpha, lams, spec):
    """Worst-case radius over ``lams``, in one kernel call.

    A float for a scalar ``alpha``; for a column of k alphas (an ndarray
    of shape (k, 1)), an array of k radii.
    """
    radii = _kernels.max_root_modulus_batch(_coeff_rows(alpha, lams, spec))
    if isinstance(alpha, np.ndarray):
        return radii.reshape(-1, lams.size).max(axis=1)
    return float(radii.max())


def scalar_radius(lam, spec):
    """Convergence radius of the recursion at a single eigenvalue of Q."""
    if lam < 0:
        raise ValidationError(f"lambda must be >= 0, got {lam}")
    return _worst_radius(spec.alpha, np.array([lam]), spec)


def _lambda_grid(mu, lmax):
    if mu < 0 or lmax < mu:
        raise ValidationError(f"need 0 <= mu <= L, got mu={mu}, L={lmax}")
    if mu == lmax:
        return np.array([mu])
    lo = mu if mu > 0 else lmax * 1e-9
    return np.concatenate(([mu], np.geomspace(lo, lmax, _LAMBDA_GRID_POINTS), [lmax]))


def spectrum_radius(spec, mu, lmax):
    """Worst-case radius over eigenvalues in [mu, L] (512-point log grid)."""
    return _worst_radius(spec.alpha, _lambda_grid(mu, lmax), spec)


class StableAlpha(NamedTuple):
    alpha: float
    stable: bool
    capped: bool = False


def max_stable_alpha(mu, lmax, beta, m, tau, xi):
    """Largest inner step alpha keeping the worst-case radius below 1.

    Bisection over (0, 10 beta]; returns alpha = 0 with ``stable=False``
    when no stable step size was found, and the cap 10 beta with
    ``capped=True`` when the radius is below 1 there, so no bound was
    found inside the search interval. Each probe asks whether every root
    lies inside the unit circle with the Schur–Cohn test, which finds no
    root.
    """
    spec = CompanionSpec(tau, tuple(xi), beta, beta, m)  # alpha placeholder
    lams = _lambda_grid(mu, lmax)

    def stable(alpha):
        return _kernels.schur_stable_batch(_coeff_rows(alpha, lams, spec)).all()

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
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return StableAlpha(lo, True)


class OptimalRate(NamedTuple):
    rho: float
    alpha: float


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
    worst = _worst_radius(alphas[index, None], lams, spec)
    best = int(np.argmin(worst))
    return int(index[best]), float(worst[best])


def optimal_rate(mu, lmax, beta, m, tau, xi):
    """Smallest worst-case radius over alpha, and the minimizing alpha.

    The basin is located on the 2048-point lattice
    ``linspace(alpha*/2048, alpha*, 2048)`` over (0, alpha*], alpha* the
    max stable alpha, scanned coarse-to-fine by ``_lattice_argmin`` (64
    coarse points, then the 32-point cells around each coarse basin and
    across a plateau at the bottom). A golden-section pass then refines
    between the lattice neighbours of the best point (the radius is
    piecewise smooth in alpha, with kinks where the maximizing root
    switches).
    """
    bound = max_stable_alpha(mu, lmax, beta, m, tau, xi)
    if not bound.stable:
        raise StabilityError(
            f"no stable step size for tau={tau}, beta={beta}, m={m}, "
            f"spectrum [{mu}, {lmax}]"
        )
    spec = CompanionSpec(tau, tuple(xi), bound.alpha, beta, m)
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
    return OptimalRate(best_rho, best_alpha)


def beta_scan(mu, lmax, m_list, alpha, tau_list, betas):
    """Radius curves over a beta grid per (tau, m) pair, with BDF weights.

    One dict per grid point, keyed by the figure-1 CSV columns.
    """
    rows = []
    span = f"[{mu:g},{lmax:g}]"
    for tau in tau_list:
        xi = tuple(bdf_coefficients(tau)[0])
        for m in m_list:
            for beta in betas:
                rho = spectrum_radius(CompanionSpec(tau, xi, alpha, beta, m), mu, lmax)
                rows.append(
                    {
                        "tau": tau,
                        "m": m,
                        "alpha": alpha,
                        "beta": beta,
                        "lambda_or_range": span,
                        "radius": rho,
                        "stable": int(rho < 1.0),
                    }
                )
    return rows


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
    q = check_symmetric(q, "Q")
    x0 = as_vector(x0, "x0")
    problem = QuadraticProblem.from_matrix(q)
    if problem.mu < -TOL.spectrum_match:
        raise ValidationError(f"Q must be PSD, min eigenvalue {problem.mu}")
    objective = quadratic_objective(problem)
    cfg = MultistepConfig(
        tau=spec.tau,
        xi=spec.xi,
        beta=spec.beta,
        inner_m=spec.m,
        inner_alpha=spec.alpha,
        warmup="repeat",
        inner_start="previous",
    )
    trace = run(objective, cfg, x0, steps)

    m_mat = companion_matrix(spec, q)
    n = x0.size
    z = np.tile(x0, spec.tau)
    worst = 0.0
    scale = float(np.linalg.norm(x0))
    for k in range(1, steps + 1):
        z = m_mat @ z
        if not np.all(np.isfinite(z)) or np.linalg.norm(z) > TOL.divergence_norm:
            raise DivergenceError(f"companion recursion diverged at step {k}")
        worst = max(worst, float(np.linalg.norm(trace.iterates[k] - z[:n])))
        scale = max(scale, float(np.linalg.norm(trace.iterates[k])))
    return CompanionCheck(worst, scale)
