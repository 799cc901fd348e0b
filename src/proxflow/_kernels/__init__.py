"""Root-modulus kernels with a compiled core and a numpy fallback.

The native Cython extension is preferred when it was built; the numpy
fallback implements the same contract. A caller picks a backend per call
with ``backend=``. ``schur_stable_batch`` answers the stability question
alone, without roots, and has one numpy implementation for both.
"""

import numpy as np

from . import _fallback

try:  # pragma: no cover - depends on whether the extension was built
    from . import _native

    HAVE_NATIVE = True
except ImportError:  # pragma: no cover
    _native = None
    HAVE_NATIVE = False

MAX_DEGREE = _fallback.MAX_DEGREE


def backend_name():
    return "native" if HAVE_NATIVE else "fallback"


def max_root_modulus_batch(coeffs, backend=None):
    """Max root modulus per row of (N, d) ascending monic coefficients.

    A row with a NaN or infinite coefficient gets the radius ``inf``, and
    only the finite rows reach the backend, so both backends share that
    rule. Raises ValueError for a degree outside 1..``MAX_DEGREE``.
    ``backend`` may be "native" or "fallback" to bypass the default
    selection; requesting "native" without the extension is an error.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=float)
    if backend is None:
        backend = backend_name()
    if backend == "native":
        if not HAVE_NATIVE:
            raise RuntimeError("native kernel requested but not built")
        kernel = _native.max_root_modulus_batch
    else:
        kernel = _fallback.max_root_modulus_batch
    finite = np.isfinite(coeffs).all(axis=1)
    if finite.all():
        return kernel(coeffs)
    out = np.full(coeffs.shape[0], np.inf)
    out[finite] = kernel(coeffs[finite])
    return out


def schur_stable_batch(coeffs):
    """Whether every root lies strictly inside the unit circle, per row.

    Takes the (N, d) ascending monic rows of ``max_root_modulus_batch``
    and runs the Schur–Cohn recursion (Jury, 1964) without finding a root:
    with p the full row of degree k, the reflection coefficient
    c = p_0 / p_k must satisfy |c| < 1, and p becomes (p - c p*) / z, p*
    the reversed row, one degree lower. A row is stable iff every |c| < 1.
    A vanishing leading coefficient (a root on the circle, or a pair
    mirrored in it) and a NaN or infinite coefficient count as not
    stable. A row leaves the recursion at its first failure, so it raises
    no warning. Raises ValueError for a degree outside 1..``MAX_DEGREE``.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=float)
    d = coeffs.shape[1]
    if d < 1 or d > MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {d}")
    stable = np.isfinite(coeffs).all(axis=1)
    rows = np.flatnonzero(stable)
    p = np.concatenate((coeffs[rows], np.ones((rows.size, 1))), axis=1)
    with np.errstate(all="ignore"):
        for k in range(d, 0, -1):
            c = p[:, 0] / p[:, k]
            inside = np.abs(c) < 1.0
            if not inside.all():
                stable[rows[~inside]] = False
                rows, p, c = rows[inside], p[inside], c[inside]
            p = p[:, 1 : k + 1] - c[:, None] * p[:, k - 1 :: -1]
    return stable
