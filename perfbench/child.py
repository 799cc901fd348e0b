"""One benchmark child process; prints one JSON object as its last stdout line.

    python3 perfbench/child.py main --trace 0|1 [--spans FILE] -- ARGS...
        Runs ``proxflow.cli.main(ARGS)`` in this process and reports its wall
        time. With ``--trace 1`` every public function of the proxflow
        modules is first wrapped, at every name it is bound to, so that each
        call records a span (name, parent, start, end); the spans are
        written to FILE at the end and summarized per function.
    python3 perfbench/child.py micro
        Times ``_kernels.max_root_modulus_batch`` on 2^20-row batches for
        tau = 1..4 with each available backend, passed as ``backend=``.
    python3 perfbench/child.py facts
        Python, numpy and kernel backend facts.

The package is imported from ``PYTHONPATH``, which the harness sets.
"""

import argparse
import functools
import gzip
import importlib
import inspect
import json
import os
import platform
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "_kernels",
    "numerics",
    "prox_ops",
    "multistep",
    "spectral",
    "experiments",
    "altproj_accel",
    "cli",
)


def _kernel_attrs(args, result):
    rows, degree = np.shape(args["coeffs"])
    return {"rows": rows, "bytes": rows * degree * 8, "variant": f"tau{degree}"}


def _stable_alpha_attrs(args, result):
    return {"capped": int(result.stable and result.alpha >= 10.0 * args["beta"])}


def _run_attrs(args, result):
    return {"outer_steps": len(result.ks) - 1, "inner_steps": sum(result.inner_steps)}


def _emit_attrs(args, result):
    return {"bytes": os.path.getsize(args["path"])}


# Counters read from a call's arguments and result, per span name. A key
# "variant" also counts the span under "<name>[<variant>]".
HOOKS = {
    "_kernels.max_root_modulus_batch": _kernel_attrs,
    "spectral.max_stable_alpha": _stable_alpha_attrs,
    "multistep.run": _run_attrs,
    "experiments.emit_csv": _emit_attrs,
    "experiments.emit_svg": _emit_attrs,
}


class Tracer:
    """In-memory spans: [name, parent index, start, end, attrs]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.hook_errors = defaultdict(int)

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[4] = hook(bound.arguments, result)
                except (AttributeError, TypeError, KeyError, ValueError, OSError):
                    self.hook_errors[name] += 1
            return result

        return traced

    def install(self):
        """Wrap each public function of the layers wherever a layer binds it."""
        modules = [importlib.import_module(f"proxflow.{layer}") for layer in LAYERS]
        wrappers, names = {}, []
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                defined_here = inspect.isfunction(obj) and (
                    obj.__module__ == module.__name__
                    or obj.__module__.startswith(module.__name__ + ".")
                )
                if defined_here and not attr.startswith("_") and obj not in wrappers:
                    names.append(f"{layer}.{obj.__name__}")
                    wrappers[obj] = self.wrap(names[-1], obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        return sorted(names)

    def summarize(self):
        """Per span name: calls, busy_s, self_s and summed attrs.

        busy_s counts a call only when no caller has the same name, so a
        recursive function is not counted twice; self_s is a span's
        duration minus its direct children's. For the functions in HOOKS, a
        key "outer>inner" also holds the totals of ``inner`` calls made
        anywhere below an ``outer`` call.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: defaultdict(float))
        selfs, ancestors, interned = [], [], {}
        for i, (name, parent, start, end, attrs) in enumerate(spans):
            # a parent precedes its children, so its ancestor set is known
            above = frozenset()
            if parent >= 0:
                key = (ancestors[parent], spans[parent][0])
                above = interned.setdefault(key, key[0] | {key[1]})
            ancestors.append(above)
            attrs = dict(attrs or {})
            variant = attrs.pop("variant", None)
            self_s = end - start - child_time[i]
            selfs.append(self_s)
            keys = [name] + ([f"{name}[{variant}]"] if variant else [])
            for key in keys:
                t = totals[key]
                t["calls"] += 1
                t["self_s"] += self_s
                if name not in above:
                    t["busy_s"] += end - start
                for k, v in attrs.items():
                    t[k] += v
            if name in HOOKS:
                for outer in above - {name}:
                    t = totals[f"{outer}>{name}"]
                    t["calls"] += 1
                    for k, v in attrs.items():
                        t[k] += v
        return {k: dict(v) for k, v in totals.items()}, selfs

    def write(self, path, selfs):
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s,self_s\n")
            for i, (name, parent, start, end, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f},{selfs[i]:.9f}\n")


def run_main(trace, spans_path, argv):
    tracer = Tracer() if trace else None
    wrapped = tracer.install() if tracer else []
    from proxflow import cli

    t0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - t0
    result = {"exit": code, "wall_s": wall}
    if tracer:
        layers, selfs = tracer.summarize()
        if spans_path:
            tracer.write(spans_path, selfs)
        result.update(
            layers=layers,
            wrapped=wrapped,
            spans=len(tracer.spans),
            hook_errors=dict(tracer.hook_errors),
        )
    return result


def coefficient_rows(tau):
    """2^20 characteristic-polynomial rows: 2048 alphas x 512 eigenvalues.

    Rows follow the recursion in ``proxflow.spectral``'s docstring with BDF
    weights, m = 4, beta = 1 and eigenvalues in [1, 10], the cell sizes the
    stability tables feed the kernel.
    """
    from proxflow.multistep import bdf_coefficients

    m, beta = 4, 1.0
    xi = np.asarray(bdf_coefficients(tau)[0], dtype=float)
    alphas = np.linspace(0.18 / 2048, 0.18, 2048)[:, None]
    lams = np.geomspace(1.0, 10.0, 512)[None, :]
    a = (1.0 - alphas / beta - alphas * lams).ravel()
    b = (np.repeat(alphas.ravel(), 512) / beta) * sum(a**j for j in range(m))
    rows = -b[:, None] * xi[None, :]
    rows[:, -1] -= a**m
    return rows


def micro():
    from proxflow import _kernels

    backends = ["fallback"] + (["native"] if _kernels.HAVE_NATIVE else [])
    out = {b: {} for b in backends}
    for tau in (1, 2, 3, 4):
        rows = coefficient_rows(tau)
        for backend in backends:
            t0 = time.perf_counter()
            radii = _kernels.max_root_modulus_batch(rows, backend=backend)
            elapsed = time.perf_counter() - t0
            if not np.all(np.isfinite(radii)):
                raise ArithmeticError(f"non-finite radius from {backend}, tau={tau}")
            out[backend][f"tau{tau}"] = rows.shape[0] / elapsed
    return {"rows_per_s": out}


def facts():
    from proxflow import _kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": _kernels.backend_name(),
        "have_native": _kernels.HAVE_NATIVE,
    }


def main():
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["main", "micro", "facts"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv[:cut])
    if args.mode == "main":
        result = run_main(args.trace, args.spans, argv[cut + 1 :])
    elif args.mode == "micro":
        result = micro()
    else:
        result = facts()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
