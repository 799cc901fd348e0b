"""Root-modulus kernels: the largest root modulus and the stability test.

Polynomials are monic and real: p(z) = z^d + q[d-1] z^(d-1) + ... + q[0].
A batch is a (N, d) float array whose rows hold [q_0, ..., q_{d-1}].

``max_root_modulus_batch`` screens its rows and solves the rest. Degrees
1 and 2 have closed forms. From degree 3 on, every row runs the
Durand–Kerner iteration (Kerner, 1966) in real arithmetic: roots updated
one after another (Gauss–Seidel), and a stop per row. A batch of at most
``_ROW_PATH_ROWS`` rows runs row by row in Python floats
(``_row_radius``); a larger one runs vectorized over chunks of rows
(``_sweep``), and a row leaves its chunk when it stops. A vectorized
sweep makes about a hundred numpy calls whatever its row count, so for a
few rows the Python loop is faster. Both paths make one operation order,
written line for line alike. The start directions come from libm's cos
and sin, and every later operation is an IEEE basic operation, so a
row's radius depends neither on the path, nor on the other rows of its
batch, nor on numpy's SIMD dispatch for the CPU. ``schur_stable_batch``
answers the stability question alone, without roots.
"""

import math

import numpy as np

# The highest degree at which the tests check the kernel (huge and tiny
# rows, and the bits of both paths, up to 16); above it the iteration's
# accuracy is unverified. The paper's BDF orders need degree 4 at most.
MAX_DEGREE = 16
_TINY = 2.0**-10  # root bound below which a row is solved scaled
_MAX_ITER = 120
_TOL = 1e-13
_CHUNK = 4096  # rows iterated at once; a chunk ends when its last row stops
# batches of at most this many rows run row by row: on recorded rows, the
# vectorized path is faster from about 20 rows on at degree 3, and from
# about 50 at degree 4
_ROW_PATH_ROWS = 16
# kept, with backend_name() and backend=, for the benchmark harness
# (perfbench/child.py), which reads them
HAVE_NATIVE = False


def backend_name():
    return "fallback"


def _degree(coeffs):
    d = coeffs.shape[1]
    if d < 1 or d > MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {d}")
    return d


def _root_bound(coeffs):
    """max_i |q_i|^(1/(d-i)) per row: every root lies within twice it."""
    powers = np.arange(coeffs.shape[1], 0, -1)  # q_i scales as s^(d-i)
    return (np.abs(coeffs) ** (1.0 / powers)).max(axis=1)


def max_root_modulus_batch(coeffs, backend="fallback"):
    """Max root modulus per row of (N, d) ascending monic coefficients.

    A row with a NaN or infinite coefficient gets the radius ``inf``, and
    only the finite rows reach the kernel. A row with a coefficient of
    modulus 2^(960/(2d-1)) or more (about 1e58 at degree 3, 2e9 at degree
    16) reaches it scaled by ``_scaled_radius``: the iteration multiplies
    up to 2d - 1 numbers of the start radius's size, which would overflow
    to inf and NaN and stop the row at once with the radius 0. From
    degree 3 on, so does a nonzero row whose root bound is below
    ``_TINY``: the iteration stops once its corrections are below about
    1e-13 in absolute terms, so roots near 1e-20 would all come out near
    1e-13. Raises ValueError for a degree outside 1..``MAX_DEGREE``, and
    for a ``backend`` other than "fallback", the one kernel's name.
    """
    if backend != "fallback":
        raise ValueError(f"backend must be 'fallback', got {backend!r}")
    coeffs = np.ascontiguousarray(coeffs, dtype=float)
    d = _degree(coeffs)
    tiny = np.empty(0, dtype=int)
    if d >= 3:
        # a root bound below _TINY needs |q_(d-1)| below it
        small = np.flatnonzero(np.abs(coeffs[:, -1]) < _TINY)
        bound = _root_bound(coeffs[small])
        tiny = small[(bound > 0.0) & (bound < _TINY)]
    limit = 2.0 ** (960 / (2 * d - 1))
    # false for a NaN anywhere, as for an inf or huge coefficient; a batch
    # of plain rows, the common case, needs no row mask
    if not tiny.size and -limit < coeffs.min(initial=0.0) and coeffs.max(initial=0.0) < limit:
        return _radii(coeffs)
    finite = np.isfinite(coeffs).all(axis=1)
    scaled = finite & (np.abs(coeffs).max(axis=1) >= limit)
    scaled[tiny] = True
    plain = finite & ~scaled
    out = np.full(coeffs.shape[0], np.inf)
    out[plain] = _radii(coeffs[plain])
    out[scaled] = _scaled_radius(coeffs[scaled])
    return out


def _scaled_radius(coeffs):
    """The radii of rows with huge or tiny roots, solved at scale 1.

    Each row is solved for y = z / s, with s = 2^k the power of two at or
    above its root bound: the coefficients of y are q_i / s^(d-i), at most
    1 in modulus, and a radius of y times s is one of z. Scaling by a
    power of two is exact.
    """
    powers = np.arange(coeffs.shape[1], 0, -1)
    k = np.ceil(np.log2(_root_bound(coeffs))).astype(int)
    scaled = np.ldexp(coeffs, -k[:, None] * powers)
    return np.ldexp(_radii(scaled), k)


def _radii(coeffs):
    """The radii of finite rows that need no scaling; a zero row's is 0."""
    n, d = coeffs.shape
    if d == 1:
        return np.abs(coeffs[:, 0])
    # an overflow gives inf or NaN without a warning, as in Python floats
    with np.errstate(all="ignore"):
        if d == 2:
            # z^2 + q1 z + q0: a complex pair has the modulus sqrt(q0), a
            # real pair the largest modulus (|q1| + sqrt(disc)) / 2
            q0, q1 = coeffs[:, 0], coeffs[:, 1]
            disc = q1 * q1 - 4.0 * q0
            complex_pair = disc < 0.0
            return np.where(
                complex_pair,
                np.sqrt(np.where(complex_pair, q0, 1.0)),
                0.5 * (np.abs(q1) + np.sqrt(np.abs(disc))),
            )
        out = np.zeros(n)
        _durand_kerner(coeffs, np.flatnonzero(np.abs(coeffs).max(axis=1) != 0.0), out)
    return out


def _start_directions(d):
    """cos and sin of the start angles 2 pi j / d + 0.4, from libm.

    numpy dispatches its own vectorized cos and sin per CPU, and they
    need not round as libm does; Python's ``math`` calls libm.
    """
    angles = [6.283185307179586 * j / d + 0.4 for j in range(d)]
    return [math.cos(a) for a in angles], [math.sin(a) for a in angles]


def _durand_kerner(coeffs, rows, out):
    """Write the radius of each of ``rows`` (degree >= 3) into ``out``.

    At most ``_ROW_PATH_ROWS`` rows run one by one through ``_row_radius``.
    More run ``_CHUNK`` rows at a time, and a row leaves its chunk once it
    stops: when its step falls below the tolerance, or after ``_MAX_ITER``
    sweeps.
    """
    d = coeffs.shape[1]
    directions = _start_directions(d)
    if rows.size <= _ROW_PATH_ROWS:
        q = coeffs[rows]
        r0 = 1.0 + np.abs(q).max(axis=1)  # as below, so NaN for a NaN row
        out[rows] = [_row_radius(*row, *directions) for row in zip(q.tolist(), r0.tolist())]
        return
    cos0, sin0 = (np.array(v)[:, None] for v in directions)
    for first in range(0, rows.size, _CHUNK):
        chunk = rows[first : first + _CHUNK]
        q = coeffs[chunk].T.copy()
        r0 = 1.0 + np.abs(q).max(axis=0)
        zr, zi = r0 * cos0, r0 * sin0
        for sweep in range(1, _MAX_ITER + 1):
            step, zmax = _sweep(q, zr, zi)
            radius = np.sqrt(zmax)
            stop = np.sqrt(step) <= _TOL * (1.0 + radius)
            stop |= sweep == _MAX_ITER
            if not stop.any():
                continue
            out[chunk[stop]] = radius[stop]
            keep = ~stop
            if not keep.any():
                break
            chunk, q, zr, zi = chunk[keep], q[:, keep], zr[:, keep], zi[:, keep]


def _row_radius(q, r0, cos0, sin0):
    """The radius of one row, in Python floats.

    ``q`` holds the row's coefficients and ``r0`` its start radius, both as
    ``_durand_kerner`` computes them; ``cos0`` and ``sin0`` come from
    ``_start_directions``. Every operation is the vectorized ``_sweep``'s,
    in its order, so the two paths give the same bits.
    """
    d = len(q)
    zr = [r0 * c for c in cos0]
    zi = [r0 * s for s in sin0]
    others = [[k for k in range(d) if k != j] for j in range(d)]
    for _ in range(_MAX_ITER):
        step = zmax = 0.0
        for j in range(d):
            xr, xi = zr[j], zi[j]
            # Horner from 1 + 0i: the 0*z terms are -0.0 for a negative
            # z, which sets the sign of a zero sum
            pr = (xr - xi * 0.0) + q[d - 1]
            pi = xi + xr * 0.0
            for i in range(d - 2, -1, -1):
                pr, pi = pr * xr - pi * xi + q[i], pr * xi + pi * xr
            first, *rest = others[j]
            ar, ai = xr - zr[first], xi - zi[first]
            dr, di = ar - ai * 0.0, ai + ar * 0.0
            for k in rest:
                ar, ai = xr - zr[k], xi - zi[k]
                dr, di = dr * ar - di * ai, dr * ai + di * ar
            den = dr * dr + di * di
            # Python's / raises on a zero divisor; this makes it unreachable
            if den == 0.0:
                den, dr, di = 1e-300, 1e-150, 0.0
            wr = (pr * dr + pi * di) / den
            wi = (pi * dr - pr * di) / den
            xr -= wr
            xi -= wi
            zr[j], zi[j] = xr, xi
            # `>` passes over a NaN, as np.fmax does
            w2 = wr * wr + wi * wi
            if w2 > step:
                step = w2
            z2 = xr * xr + xi * xi
            if z2 > zmax:
                zmax = z2
        radius = math.sqrt(zmax)
        if math.sqrt(step) <= _TOL * (1.0 + radius):
            break
    return radius


def _sweep(q, zr, zi):
    """One Durand–Kerner sweep over the root-major rows of a chunk, in place.

    ``q``, ``zr`` and ``zi`` have shape (d, m): ``zr[j]`` holds root j of
    every row. Returns, per row, the largest |w|^2 of the sweep's
    corrections and the largest |z|^2 of its updated roots, as
    ``_row_radius``'s ``step`` and ``zmax``. Its lines are
    ``_row_radius``'s on arrays of rows, Horner's hoisted out of the root
    loop and the maxima taken after it; numpy fuses no operations, so
    both make the same IEEE operations in the same order.
    """
    d = q.shape[0]
    # p(z_j) at every root before any moves: Gauss–Seidel reads p(z_j)
    # before z_j itself moves, and the other roots do not enter it
    pr = (zr - zi * 0.0) + q[d - 1]
    pi = zi + zr * 0.0
    for i in range(d - 2, -1, -1):
        pr, pi = pr * zr - pi * zi + q[i], pr * zi + pi * zr
    wr, wi = [], []
    for j in range(d):
        # prod_{k != j} (z_j - z_k), the roots k < j already moved
        dzr, dzi = zr[j] - zr, zi[j] - zi
        (ar, ai), *rest = [(dzr[k], dzi[k]) for k in range(d) if k != j]
        dr, di = ar - ai * 0.0, ai + ar * 0.0
        for ar, ai in rest:
            dr, di = dr * ar - di * ai, dr * ai + di * ar
        den = dr * dr + di * di
        if not den.all():
            zero = den == 0.0
            den[zero], dr[zero], di[zero] = 1e-300, 1e-150, 0.0
        wr.append((pr[j] * dr + pi[j] * di) / den)
        wi.append((pi[j] * dr - pr[j] * di) / den)
        zr[j] -= wr[j]
        zi[j] -= wi[j]
    wr, wi = np.array(wr), np.array(wi)
    # fmax passes over a NaN as _row_radius's `>` comparisons do
    step = np.fmax.reduce(wr * wr + wi * wi, axis=0, initial=0.0)
    return step, np.fmax.reduce(zr * zr + zi * zi, axis=0, initial=0.0)


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
