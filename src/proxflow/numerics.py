"""Dense linear algebra and root-finding primitives shared by all modules.

Vectors and matrices are plain float64 numpy arrays. Public operations
validate that no NaN/Inf enters or leaves. All tolerances are collected
in the module-level :data:`TOL` record rather than scattered as literals.

Randomness comes from numpy's PCG64 bit generator (O'Neill's permuted
congruential generator, 128-bit state / 64-bit output), so a seed yields
the same stream on every platform for a pinned numpy version.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels


class ValidationError(ValueError):
    """An input violates an operation's preconditions."""


class SymmetryError(ValidationError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class SingularMatrixError(ArithmeticError):
    """Linear solve rejected: matrix singular or too ill-conditioned."""


class RankError(ValidationError):
    """A matrix required to have full column rank is rank-deficient."""


@dataclass(frozen=True)
class Tolerances:
    """Absolute-relative hybrid tolerances used across the package."""

    symmetry_rel: float = 1e-12
    condition_limit: float = 1e12
    rank_rel: float = 1e-10
    mixing_weight_sum: float = 1e-12
    spectrum_match: float = 1e-8
    companion_discrepancy: float = 1e-9
    divergence_norm: float = 1e12
    max_eigen_dim: int = 2000
    max_poly_degree: int = _kernels.MAX_DEGREE


TOL = Tolerances()


def as_vector(x, name="vector"):
    """Validate and return a finite 1-D float array of length >= 1."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValidationError(f"{name} must be 1-D with length >= 1")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} contains non-finite entries")
    return v


def as_matrix(a, name="matrix"):
    """Validate and return a finite 2-D float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.size < 1:
        raise ValidationError(f"{name} must be 2-D and non-empty")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def check_symmetric(a, name="matrix"):
    """Raise SymmetryError unless max |A_ij - A_ji| <= tol * max |A|."""
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise SymmetryError(f"{name} is not square: {m.shape}")
    scale = np.abs(m).max(initial=0.0)
    dev = np.abs(m - m.T).max(initial=0.0)
    if dev > TOL.symmetry_rel * max(scale, 1e-300):
        raise SymmetryError(
            f"{name} asymmetry {dev:.3e} exceeds {TOL.symmetry_rel:g} * max|A|"
        )
    return m


def sym_eigen(a):
    """Eigenvalues, ascending, of a symmetric matrix ``a``.

    ``a`` must be symmetric within ``TOL.symmetry_rel``, with
    n <= ``TOL.max_eigen_dim``.
    """
    m = check_symmetric(a)
    if m.shape[0] > TOL.max_eigen_dim:
        raise ValidationError(f"dimension {m.shape[0]} exceeds {TOL.max_eigen_dim}")
    return np.linalg.eigvalsh(0.5 * (m + m.T))


def polynomial_max_root_modulus(coeffs):
    """Max modulus among all complex roots of a monic real polynomial.

    ``coeffs`` lists the coefficients in descending degree order,
    ``[1, c_{d-1}, ..., c_0]``; the leading coefficient must be 1 and
    1 <= d <= 16. The value is that of ``_kernels.max_root_modulus_batch``
    on the ascending row ``[c_0, ..., c_{d-1}]``, bit for bit.
    """
    c = as_vector(coeffs, "coeffs")
    d = c.size - 1
    if d < 1:
        raise ValidationError("polynomial must have degree >= 1")
    if d > TOL.max_poly_degree:
        raise ValidationError(f"degree {d} exceeds {TOL.max_poly_degree}")
    if c[0] != 1.0:
        raise ValidationError(f"leading coefficient must be 1, got {c[0]!r}")
    return float(_kernels.max_root_modulus_batch(c[:0:-1][None, :])[0])


def solve_linear(a, b):
    """Solve A x = b for square nonsingular A.

    Rejects systems whose 2-norm condition estimate exceeds
    ``TOL.condition_limit``, naming the estimate in the error.
    """
    m = as_matrix(a, "A")
    v = as_vector(b, "b")
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"A must be square, got {m.shape}")
    if m.shape[0] != v.size:
        raise ValidationError(f"shape mismatch: A {m.shape}, b {v.shape}")
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > TOL.condition_limit:
        raise SingularMatrixError(
            f"condition estimate {cond:.3e} exceeds {TOL.condition_limit:g}"
        )
    return np.linalg.solve(m, v)


def orthonormal_basis(c):
    """Orthonormal basis B for the column space of a full-column-rank C.

    Raises RankError (reporting the numerical rank at tolerance
    ``TOL.rank_rel`` * sigma_max) when C is column-rank deficient.
    """
    m = as_matrix(c, "C")
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    cols = m.shape[1]
    rank = int(np.sum(s > TOL.rank_rel * s[0])) if s[0] > 0 else 0
    if rank < cols:
        raise RankError(f"numerical rank {rank} < {cols} columns")
    return u[:, :cols]


def seeded_rng(seed):
    """Deterministic random stream (PCG64) for the given integer seed."""
    if not isinstance(seed, (int, np.integer)):
        raise ValidationError(f"seed must be an integer, got {type(seed).__name__}")
    return np.random.Generator(np.random.PCG64(int(seed)))
