"""Build script: compiles the optional native radius kernel.

The package works without the extension (a vectorized numpy fallback is
selected at import time), so any build failure here is non-fatal: we fall
back to a pure-python build rather than aborting the install.
"""

import os

from setuptools import setup

ext_modules = []
if os.environ.get("PROXFLOW_NO_NATIVE") != "1":
    try:
        from Cython.Build import cythonize
        from setuptools import Extension

        ext_modules = cythonize(
            [
                Extension(
                    "proxflow._kernels._native",
                    ["src/proxflow/_kernels/_native.pyx"],
                    # no fused multiply-add, so that the kernel has the
                    # bits of its numpy twin
                    extra_compile_args=["-O3", "-ffp-contract=off"],
                )
            ],
            compiler_directives={"language_level": "3"},
        )
    except Exception as exc:  # pragma: no cover - build-env dependent
        print(f"proxflow: skipping native kernel build ({exc!r})")

setup(ext_modules=ext_modules)
