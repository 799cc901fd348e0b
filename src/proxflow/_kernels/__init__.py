"""Root-modulus kernels with a compiled core and a numpy fallback.

The native extension, compiled from the hand-written ``_native.c``, is
preferred when it was built. The fallback runs the same Durand–Kerner
iteration in the same real arithmetic and operation order: row by row in
Python floats for a batch of at most ``_fallback._ROW_PATH_ROWS`` rows,
vectorized over rows with numpy for a larger one. So the backends and
the two paths give the same bits, and a row's radius depends neither on
the other rows of its batch nor on numpy's SIMD dispatch for the CPU. A
caller picks a backend per call with ``backend=``.
``schur_stable_batch`` answers the stability question alone, without
roots, and has one numpy implementation for both.
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
_TINY = 2.0**-10  # root bound below which a row is solved scaled


def backend_name():
    return "native" if HAVE_NATIVE else "fallback"


def _native_radius(coeffs):
    """The native kernel's radii of the C-contiguous float rows ``coeffs``."""
    out = np.empty(coeffs.shape[0])
    _native.max_root_modulus_batch(coeffs, out)
    return out


def _degree(coeffs):
    d = coeffs.shape[1]
    if d < 1 or d > MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {d}")
    return d


def _root_bound(coeffs):
    """max_i |q_i|^(1/(d-i)) per row: every root lies within twice it."""
    powers = np.arange(coeffs.shape[1], 0, -1)  # q_i scales as s^(d-i)
    return (np.abs(coeffs) ** (1.0 / powers)).max(axis=1)


def _scaled_radius(kernel, coeffs):
    """``kernel``'s radii of rows with huge or tiny roots, at scale 1.

    Each row is solved for y = z / s, with s = 2^k the power of two at or
    above its root bound: the coefficients of y are q_i / s^(d-i), at most
    1 in modulus, and a radius of y times s is one of z. Scaling by a
    power of two is exact.
    """
    powers = np.arange(coeffs.shape[1], 0, -1)
    k = np.ceil(np.log2(_root_bound(coeffs))).astype(int)
    return np.ldexp(kernel(np.ldexp(coeffs, -k[:, None] * powers)), k)


def max_root_modulus_batch(coeffs, backend=None):
    """Max root modulus per row of (N, d) ascending monic coefficients.

    A row with a NaN or infinite coefficient gets the radius ``inf``, and
    only the finite rows reach the backend. A row with a coefficient of
    modulus 2^(960/(2d-1)) or more (about 1e58 at degree 3, 2e9 at degree
    16) reaches it scaled by ``_scaled_radius``: the iteration multiplies
    up to 2d - 1 numbers of the start radius's size, which would overflow
    to inf and NaN and stop the row at once with the radius 0. From
    degree 3 on, so does a nonzero row whose root bound is below
    ``_TINY``: the iteration stops once its corrections are below about
    1e-13 in absolute terms, so roots near 1e-20 would all come out near
    1e-13. Both backends share these rules. Raises ValueError for a
    degree outside 1..``MAX_DEGREE``. ``backend`` may be "native" or
    "fallback" to bypass the default selection; requesting "native"
    without the extension is an error.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=float)
    d = _degree(coeffs)
    if backend is None:
        backend = backend_name()
    if backend == "native":
        if not HAVE_NATIVE:
            raise RuntimeError("native kernel requested but not built")
        kernel = _native_radius
    else:
        kernel = _fallback.max_root_modulus_batch
    tiny = np.empty(0, dtype=int)
    if d >= 3:
        # a root bound below _TINY needs |q_(d-1)| below it
        small = np.flatnonzero(np.abs(coeffs[:, -1]) < _TINY)
        bound = _root_bound(coeffs[small])
        tiny = small[(bound > 0.0) & (bound < _TINY)]
    limit = 2.0 ** (960 / (2 * d - 1))
    # false for a NaN anywhere, as for an inf or huge coefficient
    if not tiny.size and -limit < coeffs.min(initial=0.0) and coeffs.max(initial=0.0) < limit:
        return kernel(coeffs)
    finite = np.isfinite(coeffs).all(axis=1)
    scaled = finite & (np.abs(coeffs).max(axis=1) >= limit)
    scaled[tiny] = True
    plain = finite & ~scaled
    out = np.full(coeffs.shape[0], np.inf)
    out[plain] = kernel(coeffs[plain])
    out[scaled] = _scaled_radius(kernel, coeffs[scaled])
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
    no warning. The recursion runs in place in one (d + 1, N) work array,
    coefficient-major, with O(N) temporaries. Raises ValueError for a
    degree outside 1..``MAX_DEGREE``.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=float)
    d = _degree(coeffs)
    stable = np.isfinite(coeffs).all(axis=1)
    rows = np.arange(stable.size) if stable.all() else np.flatnonzero(stable)
    p = np.empty((d + 1, rows.size))
    if rows.size == stable.size:
        p[:d] = coeffs.T
    else:
        for i in range(d):
            p[i] = coeffs[rows, i]
    p[d] = 1.0
    with np.errstate(all="ignore"):
        for k in range(d, 0, -1):
            c = p[0] / p[k]
            inside = np.abs(c) < 1.0
            if not inside.all():
                stable[rows[~inside]] = False
                keep = np.flatnonzero(inside)
                rows, c = rows[keep], c[keep]
                for i in range(k + 1):
                    p[i, : keep.size] = p[i, keep]
                p = p[:, : keep.size]
            if k == 1:
                break
            # q_i = p_i - c p_(k-i) for i = 1..k, in place pair by pair;
            # q_0 = 0, so q_1..q_k is the next row
            for i in range(1, (k + 1) // 2):
                low = p[i] - c * p[k - i]
                p[k - i] -= c * p[i]
                p[i] = low
            if k % 2 == 0:
                p[k // 2] -= c * p[k // 2]
            p[k] -= c * p[0]
            p = p[1:]
    return stable
