"""Closed-form and exactly solvable proximal operators.

Every operator here maps ``(point, weight)`` to a point of the same
dimension, and weight 0 is the identity. These are the inner oracles
consumed by the multistep driver.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .numerics import (
    ValidationError,
    as_matrix,
    as_vector,
    solve_linear,
    sym_eigen,
)


def soft_threshold(v, t):
    """``prox_l1`` without validation: ``v`` a float array, ``t >= 0``.

    For inner loops whose caller has checked both once.
    """
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def prox_l1(x, t):
    """Soft threshold: argmin_u t|u|_1 + (1/2)|u - x|^2, elementwise.

    Entries with |x_i| <= t collapse to 0; the rest shrink toward 0 by t.
    """
    v = as_vector(x, "x")
    if t < 0:
        raise ValidationError(f"threshold must be >= 0, got {t}")
    return soft_threshold(v, t)


def lsp_shrink(v, theta, beta):
    """``prox_lsp`` without validation: ``v`` a float array, ``theta > 0``
    and ``beta >= 0``.

    For inner loops whose caller has checked all three once.
    """
    a = np.abs(v)
    disc = (a + theta) ** 2 - 4.0 * beta
    has_root = disc >= 0.0
    root = np.where(has_root, ((a - theta) + np.sqrt(np.maximum(disc, 0.0))) / 2.0, 0.0)
    positive = has_root & (root > 0.0)

    candidate = np.where(positive, root, 0.0)
    obj_root = beta * np.log1p(candidate / theta) + 0.5 * (candidate - a) ** 2
    obj_zero = 0.5 * a**2
    take_root = positive & (obj_root < obj_zero)
    out = np.where(take_root, root, 0.0)
    overflow = np.isinf(disc)
    if overflow.any():
        # (a + theta)^2 overflowed, and both objectives with it. The root's
        # objective is finite and the zero's is not, so the root is the prox.
        # Halving each term first is exact and keeps a sum near the top of
        # the float range finite.
        big = a[overflow]
        s = big + theta
        out[overflow] = 0.5 * (big - theta) + 0.5 * s * np.sqrt(1.0 - 4.0 * beta / s / s)
    return np.sign(v) * out


def prox_lsp(x, theta, beta):
    """Proximal operator of the log-sum penalty, elementwise.

    For each coordinate this minimizes
    ``beta * log(1 + |u|/theta) + (1/2)(u - x_i)^2`` over u.
    Stationarity on u > 0 gives the quadratic
    ``u^2 + (theta - |x|) u + (beta - theta |x|) = 0`` whose larger root is
    ``u+ = ((|x| - theta) + sqrt((|x| + theta)^2 - 4 beta)) / 2``.
    We return ``sign(x) * u+`` when that root exists, is positive and has a
    strictly lower 1-D objective than 0; otherwise 0 (ties prefer the
    sparser point, so the operator is a deterministic function even in the
    nonconvex regime where the prox is set-valued). Where ``(|x| + theta)^2``
    overflows, ``u+`` is taken as
    ``((|x| - theta) + (|x| + theta) sqrt(1 - 4 beta / (|x| + theta)^2)) / 2``,
    whose objective is finite where the zero's is not; ``+-inf`` maps to
    ``+-inf``.
    """
    v = as_vector(x, "x")
    if theta <= 0:
        raise ValidationError(f"theta must be > 0, got {theta}")
    if beta < 0:
        raise ValidationError(f"beta must be >= 0, got {beta}")
    # an entry above about 1e154 overflows when squared, with a finite result
    with np.errstate(over="ignore"):
        return lsp_shrink(v, theta, beta)


@dataclass
class QuadraticProblem:
    """Quadratic objective f(x) = (1/2) x^T Q x + c^T x with Q symmetric PSD.

    ``c`` defaults to 0. ``mu`` and ``lmax`` (L) are the extreme
    eigenvalues of Q, computed once by the constructor.
    """

    q: np.ndarray
    c: Optional[np.ndarray] = None
    mu: float = field(init=False)
    lmax: float = field(init=False)

    def __post_init__(self):
        self.q = as_matrix(self.q, "Q")
        self.c = np.zeros(self.q.shape[0]) if self.c is None else as_vector(self.c, "c")
        if self.q.shape[0] != self.c.size:
            raise ValidationError("Q and c dimensions disagree")
        w = sym_eigen(self.q)
        self.mu, self.lmax = float(w[0]), float(w[-1])

    def value(self, x):
        return 0.5 * float(x @ self.q @ x) + float(self.c @ x)

    def grad(self, x):
        return self.q @ x + self.c


def prox_quadratic(problem, x, beta):
    """Exact prox of a quadratic: solve (I + beta Q) z = x - beta c."""
    v = as_vector(x, "x")
    if beta < 0:
        raise ValidationError(f"beta must be >= 0, got {beta}")
    if beta == 0:
        return v.copy()
    n = v.size
    return solve_linear(np.eye(n) + beta * problem.q, v - beta * problem.c)

