"""Vectorized numpy implementation of the root-modulus kernels.

Polynomials are monic and real: p(z) = z^d + q[d-1] z^(d-1) + ... + q[0].
A batch is a (N, d) float array whose rows hold [q_0, ..., q_{d-1}].
"""

import numpy as np

MAX_DEGREE = 16  # the native kernel compiles in the same limit
_MAX_ITER = 120
_TOL = 1e-13
_CHUNK = 1 << 18


def _quadratic_max_modulus(q0, q1):
    # z^2 + q1 z + q0; complex pair has modulus sqrt(q0), real pair
    # has max modulus (|q1| + sqrt(disc)) / 2.
    disc = q1 * q1 - 4.0 * q0
    complex_pair = disc < 0.0
    out = np.where(
        complex_pair,
        np.sqrt(np.where(complex_pair, q0, 1.0)),
        0.5 * (np.abs(q1) + np.sqrt(np.abs(disc))),
    )
    return out


def _durand_kerner_chunk(coeffs):
    """All roots of each row's polynomial, shape (n, d) complex."""
    n, d = coeffs.shape
    radius = 1.0 + np.abs(coeffs).max(axis=1)
    angles = 2.0 * np.pi * np.arange(d) / d + 0.4
    z = radius[:, None] * np.exp(1j * angles)[None, :]

    for it in range(_MAX_ITER):
        p = np.ones_like(z)
        for i in range(d - 1, -1, -1):
            p = p * z + coeffs[:, i][:, None]
        step_max = 0.0
        znew = z.copy()
        for j in range(d):
            den = np.ones(n, dtype=complex)
            zj = z[:, j]
            for k in range(d):
                if k == j:
                    continue
                den = den * (zj - z[:, k])
            den[den == 0] = 1e-300
            w = p[:, j] / den
            znew[:, j] = zj - w
            step_max = max(step_max, float(np.abs(w).max(initial=0.0)))
        z = znew
        if step_max <= _TOL * (1.0 + float(np.abs(z).max(initial=0.0))):
            break
    return z


def max_root_modulus_batch(coeffs):
    """Max root modulus per row of a (N, d) batch of monic polynomials.

    Raises ValueError for a degree outside 1..``MAX_DEGREE``, as the
    native kernel does.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=float)
    n, d = coeffs.shape
    if d < 1 or d > MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {d}")
    if d == 1:
        return np.abs(coeffs[:, 0])
    if d == 2:
        return _quadratic_max_modulus(coeffs[:, 0], coeffs[:, 1])

    out = np.empty(n)
    for lo in range(0, n, _CHUNK):
        chunk = coeffs[lo : lo + _CHUNK]
        trivial = np.abs(chunk).max(axis=1) == 0.0
        roots = _durand_kerner_chunk(chunk)
        radii = np.abs(roots).max(axis=1)
        radii[trivial] = 0.0
        out[lo : lo + _CHUNK] = radii
    return out
