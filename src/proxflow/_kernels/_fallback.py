"""The root-modulus kernel, in Python floats and in numpy.

Polynomials are monic and real: p(z) = z^d + q[d-1] z^(d-1) + ... + q[0].
A batch is a (N, d) float array whose rows hold [q_0, ..., q_{d-1}].

Degrees 1 and 2 have closed forms. From degree 3 on, every row runs the
Durand–Kerner iteration (Kerner, 1966) in real arithmetic: roots updated
one after another (Gauss–Seidel), and a stop per row. A batch of at most
``_ROW_PATH_ROWS`` rows runs row by row in Python floats
(``_row_radius``); a larger one runs vectorized over chunks of rows
(``_sweep``), and a row leaves its chunk when it stops. A vectorized
sweep makes about a hundred numpy calls whatever its row count, so for a
few rows the Python loop is faster. Both paths make one operation order.
The start directions come from libm's cos and sin, and every later
operation is an IEEE basic operation, so a row's radius depends neither
on the path, nor on the other rows of its batch, nor on numpy's SIMD
dispatch for the CPU.
"""

import math

import numpy as np

_MAX_ITER = 120
_TOL = 1e-13
_CHUNK = 4096  # rows iterated at once; a chunk ends when its last row stops
# batches of at most this many rows run row by row: on recorded rows, the
# vectorized path is faster from about 20 rows on at degree 3, and from
# about 50 at degree 4
_ROW_PATH_ROWS = 16


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


def _start_directions(d):
    """cos and sin of the start angles 2 pi j / d + 0.4, from libm.

    numpy dispatches its own vectorized cos and sin per CPU, and they
    need not round as libm does; Python's ``math`` calls libm.
    """
    angles = [6.283185307179586 * j / d + 0.4 for j in range(d)]
    return [math.cos(a) for a in angles], [math.sin(a) for a in angles]


def _mul(ar, ai, br, bi, out_r, out_i, tmp):
    """(ar + i ai)(br + i bi) into ``out_r``, ``out_i``, as ``_row_radius`` multiplies."""
    np.multiply(ar, br, out=out_r)
    np.multiply(ai, bi, out=tmp)
    out_r -= tmp
    np.multiply(ar, bi, out=out_i)
    np.multiply(ai, br, out=tmp)
    out_i += tmp


def _mul_one(br, bi, out_r, out_i, tmp):
    """``_mul`` with a = 1 + 0i, the start value of a product.

    1*b is b exactly, so only the 0*b terms are computed: 0*b is -0.0 for
    a negative b, which sets the sign of a zero sum as in ``_row_radius``.
    """
    np.multiply(bi, 0.0, out=tmp)
    np.subtract(br, tmp, out=out_r)
    np.multiply(br, 0.0, out=tmp)
    np.add(bi, tmp, out=out_i)


def _abs2(re, im, out, tmp):
    np.multiply(re, re, out=out)
    np.multiply(im, im, out=tmp)
    out += tmp


def _sweep(q, zr, zi, work):
    """One Durand–Kerner sweep over the root-major rows of a chunk, in place.

    ``q``, ``zr`` and ``zi`` have shape (d, m): ``zr[j]`` holds root j of
    every row. ``work`` comes from ``_work_arrays``. Returns, per row,
    the largest |w|^2 of the sweep's corrections and the largest |z|^2 of
    its updated roots, as ``_row_radius``'s ``step`` and ``zmax``. Every
    operation is one ``_row_radius`` makes, in its order.
    """
    d = q.shape[0]
    (pr, pi, ta, tb, tc, wr, wi), (dr, di, s1, s2, s3, den) = work
    # p(z_j) at every root before any moves: Gauss–Seidel reads p(z_j)
    # before z_j itself moves, and the other roots do not enter it
    _mul_one(zr, zi, pr, pi, ta)
    pr += q[d - 1]
    for i in range(d - 2, -1, -1):
        _mul(pr, pi, zr, zi, ta, tb, tc)
        ta += q[i]
        pr, pi, ta, tb = ta, tb, pr, pi
    ar, ai = ta, tb
    for j in range(d):
        # prod_{k != j} (z_j - z_k), the roots k < j already moved
        np.subtract(zr[j], zr, out=ar)
        np.subtract(zi[j], zi, out=ai)
        first, *rest = [k for k in range(d) if k != j]
        _mul_one(ar[first], ai[first], dr, di, s1)
        for k in rest:
            _mul(dr, di, ar[k], ai[k], s1, s3, s2)
            dr, di, s1, s3 = s1, s3, dr, di
        _abs2(dr, di, den, s2)
        if not den.all():
            zero = den == 0.0
            den[zero] = 1e-300
            dr[zero] = 1e-150
            di[zero] = 0.0
        # w = p / d, as p * conj(d) / |d|^2
        np.multiply(pr[j], dr, out=s1)
        np.multiply(pi[j], di, out=s2)
        s1 += s2
        np.divide(s1, den, out=wr[j])
        np.multiply(pi[j], dr, out=s1)
        np.multiply(pr[j], di, out=s2)
        s1 -= s2
        np.divide(s1, den, out=wi[j])
        zr[j] -= wr[j]
        zi[j] -= wi[j]
    # fmax passes over a NaN as _row_radius's `>` comparisons do
    _abs2(wr, wi, ta, tb)
    step = np.fmax.reduce(ta, axis=0, initial=0.0)
    _abs2(zr, zi, ta, tb)
    return step, np.fmax.reduce(ta, axis=0, initial=0.0)


def _work_arrays(d, m):
    """The work arrays of ``_sweep`` for m rows: seven (d, m) and six (m,)."""
    return np.empty((7, d, m)), np.empty((6, m))


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
            # Horner from 1 + 0i, the first product as _mul_one computes it
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
        work = _work_arrays(d, chunk.size)
        for sweep in range(1, _MAX_ITER + 1):
            step, zmax = _sweep(q, zr, zi, work)
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
            work = _work_arrays(d, chunk.size)


def max_root_modulus_batch(coeffs):
    """Max root modulus per row of a (N, d) batch of monic polynomials.

    The caller checks the degree, as ``_kernels.max_root_modulus_batch``
    does, and screens out non-finite, huge and tiny rows.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=float)
    n, d = coeffs.shape
    if d == 1:
        return np.abs(coeffs[:, 0])
    # an overflow gives inf or NaN without a warning, as in Python floats
    with np.errstate(all="ignore"):
        if d == 2:
            return _quadratic_max_modulus(coeffs[:, 0], coeffs[:, 1])
        out = np.zeros(n)  # a row of zeros has the radius 0
        _durand_kerner(coeffs, np.flatnonzero(np.abs(coeffs).max(axis=1) != 0.0), out)
    return out
