"""Build script: compiles the optional native radius kernel.

The package works without the extension (a vectorized numpy fallback is
selected at import time), so the extension is optional: a failed compile
is a warning, and the install goes on without it.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "proxflow._kernels._native",
            ["src/proxflow/_kernels/_native.c"],
            # no fused multiply-add, so that the kernel has the bits of its
            # numpy twin
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
