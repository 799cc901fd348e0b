"""Root-modulus kernels with a compiled core and a numpy fallback.

The native Cython extension is preferred when it was built; the numpy
fallback implements the same contract. A caller picks a backend per call
with ``backend=``.
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
poly_roots = _fallback.poly_roots


def backend_name():
    return "native" if HAVE_NATIVE else "fallback"


def max_root_modulus_batch(coeffs, backend=None):
    """Max root modulus per row of (N, d) ascending monic coefficients.

    ``backend`` may be "native" or "fallback" to bypass the default
    selection; requesting "native" without the extension is an error.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=float)
    if backend is None:
        backend = backend_name()
    if backend == "native":
        if not HAVE_NATIVE:
            raise RuntimeError("native kernel requested but not built")
        return _native.max_root_modulus_batch(coeffs)
    return _fallback.max_root_modulus_batch(coeffs)
