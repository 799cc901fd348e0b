"""Accelerated alternating projections between linear subspaces.

The multistep alternating-projection iteration restricted to a principal
direction with projector-product eigenvalue lambda = cos^2(theta) obeys
the recursion t^(k+1) = lambda * sum_i xi_i t^(k-tau+i), with
characteristic polynomial

    eta^tau - xi_tau lambda eta^(tau-1) - ... - xi_1 lambda.

For tau = 2 the coefficients can be tuned so that the polynomial has a
double root at 1 - sqrt(rho) when lambda = 1 - rho, which beats the
single-step rate 1 - rho.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .experiments import SubspacePair, altproj_trace
from .multistep import Trace
from .numerics import (
    TOL,
    ValidationError,
    orthonormal_basis,
    polynomial_max_root_modulus,
    seeded_rng,
)


@dataclass
class ProjectionSpectrum:
    """Eigenvalues of the composed projector on nontrivial directions.

    ``rho`` is min over eigenvalues below 1 of (1 - lambda); it is None
    when every direction has lambda = 1, i.e. the subspaces coincide.
    """

    eigenvalues: np.ndarray

    _UNIT = 1.0 - 1e-12

    @property
    def rho(self) -> Optional[float]:
        lams = self.eigenvalues[self.eigenvalues < self._UNIT]
        if lams.size == 0:
            return None
        return float(1.0 - lams.max())


def projection_spectrum(pair):
    """Squared cosines of the principal angles between the pair's spans."""
    sv = np.linalg.svd(pair.b1.T @ pair.b2, compute_uv=False)
    if sv.size and sv[0] > 1.0 + 1e-10:
        raise ValidationError(f"cosine {sv[0]} above 1 beyond tolerance")
    return ProjectionSpectrum(np.clip(sv, 0.0, 1.0) ** 2)


def multistep_altproj_radius(lam, xi):
    """Max root modulus of the mixed alternating-projection recursion.

    tau <= 2 has a closed form; a longer recursion goes to the batch
    root-modulus kernel through ``polynomial_max_root_modulus``.
    """
    if not -1e-12 <= lam <= 1.0 + 1e-12:
        raise ValidationError(f"lambda must be in [0, 1], got {lam}")
    lam = min(max(lam, 0.0), 1.0)
    xi = tuple(float(v) for v in xi)
    if abs(sum(xi) - 1.0) > TOL.mixing_weight_sum:
        raise ValidationError(f"xi must sum to 1, got {sum(xi)!r}")
    tau = len(xi)
    if lam == 0.0:
        return 0.0
    if tau == 1:
        return lam
    if tau == 2:
        return _quadratic_radius(xi[1] * lam, xi[0] * lam)
    coeffs = [1.0] + [-xi[tau - 1 - i] * lam for i in range(tau)]
    return polynomial_max_root_modulus(coeffs)


def _quadratic_radius(c1, c0):
    """Max root modulus of eta^2 - c1 eta - c0, stable near double roots.

    The discriminant's sign is decided in exact rational arithmetic: a
    complex pair has modulus sqrt(-c0) (the root product), which stays
    accurate where the float discriminant would cancel.
    """
    disc = Fraction(c1) * Fraction(c1) + 4 * Fraction(c0)
    if disc <= 0:
        return math.sqrt(-c0) if c0 != 0.0 else abs(c1) / 2.0
    return 0.5 * (abs(c1) + math.sqrt(float(disc)))


def tuned_xi2(rho):
    """Two-step weights with a double root at 1 - sqrt(rho).

    Built from the double-root construction at lambda = 1 - rho:
    xi_2 = (2 - 2 sqrt(rho)) / (1 - rho), xi_1 = -(1 - sqrt(rho))^2 /
    (1 - rho). The float representative of xi_1 is nudged down by at
    most one ulp when needed so the induced discriminant stays on the
    non-positive side it occupies in exact arithmetic.
    """
    if not 0.0 < rho < 1.0:
        raise ValidationError(f"rho must be in (0, 1), got {rho}")
    s = math.sqrt(rho)
    lam = 1.0 - rho
    # stable forms of (2 - 2 sqrt(rho))/(1 - rho) and -(1 - sqrt(rho))^2/(1 - rho)
    xi2 = 2.0 / (1.0 + s)
    xi1 = -lam / (1.0 + s) ** 2

    def disc(x1):
        c1 = Fraction(xi2 * lam)
        c0 = Fraction(x1 * lam)
        return c1 * c1 + 4 * c0

    for _ in range(4):
        if disc(xi1) <= 0:
            break
        xi1 = np.nextafter(xi1, -np.inf)
    return float(xi1), float(xi2)


def prescribed_angle_pair(angles, ambient=None, seed=None):
    """Subspace pair with exactly the given principal angles.

    Spans are built from pairs (e_i, cos(theta_i) e_i + sin(theta_i)
    e_i'), in a shared orthonormal frame, so the principal angles are
    exact; an optional seeded rotation places them in general position.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1 or angles.size < 1:
        raise ValidationError("need at least one angle")
    if np.any(angles < 0) or np.any(angles > np.pi / 2):
        raise ValidationError("angles must lie in [0, pi/2]")
    d = angles.size
    n = 2 * d if ambient is None else int(ambient)
    if n < 2 * d:
        raise ValidationError(f"ambient dimension {n} too small for {d} angles")
    c1 = np.zeros((n, d))
    c2 = np.zeros((n, d))
    for i, theta in enumerate(angles):
        c1[2 * i, i] = 1.0
        c2[2 * i, i] = np.cos(theta)
        c2[2 * i + 1, i] = np.sin(theta)
    if seed is not None:
        rot = orthonormal_basis(seeded_rng(seed).standard_normal((n, n)))
        c1 = rot @ c1
        c2 = rot @ c2
    return SubspacePair(c1=c1, c2=c2, sigma=None, seed=seed)


@dataclass
class RateFit:
    """Log-linear fit of a residual decay curve, with the trace it fits."""

    rate: float
    k_start: int
    k_end: int
    truncated: bool
    trace: Trace


def verify_rate(pair, xi, iterations):
    """Fit the empirical decay rate of multistep alternating projections.

    Runs the iteration, then regresses log |r^(k)| on k over the last
    half of the iterations. If the residual falls to 1e-280 or below
    before the fit window ends, the window shrinks and the fit is flagged
    truncated.
    """
    if iterations < 1:
        raise ValidationError(f"iterations must be >= 1 to fit a rate, got {iterations}")
    trace = altproj_trace(pair, tuple(xi), iterations)
    resid = np.asarray(trace.values("residual"))
    ks = np.arange(resid.size)
    window = ks >= iterations // 2
    alive = resid > 1e-280
    truncated = bool(np.any(window & ~alive))
    keep = window & alive
    if keep.sum() < 2:
        keep = alive
        truncated = True
    if keep.sum() < 2:
        raise ValidationError("residual underflowed immediately; nothing to fit")
    slope = np.polyfit(ks[keep], np.log(resid[keep]), 1)[0]
    kept = ks[keep]
    return RateFit(float(np.exp(slope)), int(kept[0]), int(kept[-1]), truncated, trace)
