"""Spans around calls into fihom's layers, recorded from outside the program.

`Tracer.install` replaces every public function of the fihom modules, in
every fihom namespace that holds it, with a wrapper that records a span:
name, start, end and the span that was open when it was called.  It also
wraps the working methods of `Matrix` and `QuotientCoords`.  Spans stay in
memory; the read-out methods turn them into per-layer figures at the end of
a run, and `write` dumps them.  A run without `--trace 1` never imports this
module, so it carries no wrappers.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

LAYERS = ("cli", "io", "fimodule", "homology", "complexes", "linalg",
          "verify", "bounds", "generate")

# O(1) accessors are left alone: a wrapper around `entry` inside an
# elimination loop would cost more than the entry itself and distort
# every share.
MATRIX_METHODS = ("from_rows", "from_flat", "from_sparse", "zeros",
                  "identity", "diagonal", "to_rows", "to_flat", "is_zero",
                  "nnz", "transpose", "__matmul__", "__add__", "__neg__",
                  "__sub__", "scale", "mul_vec", "column", "to_ring",
                  "__eq__")
QUOTIENT_METHODS = ("__init__", "kernel_vector", "reduce", "rep",
                    "rep_matrix", "induced")


def _nnz(m):
    return sum(len(r) for r in m.rows)


def _bits(m):
    return max((abs(v).bit_length() for r in m.rows for v in r.values()),
               default=0)


def _source_bytes(args, kwargs, out):
    src = args[0] if args else kwargs.get("source")
    if hasattr(src, "fileno"):
        return os.fstat(src.fileno()).st_size
    text = str(src)
    if "\n" not in text:
        return os.path.getsize(text)
    return len(text.encode())


# counts recorded at a boundary: span name -> f(args, kwargs, result) -> dict
COUNTS = {
    "io.parse": lambda a, k, out: {"bytes": _source_bytes(a, k, out)},
    "homology.fih_chain_complex": lambda a, k, out: {
        "cells": sum(out.sizes), "nnz": sum(_nnz(d) for d in out.d)},
    "complexes.hyper_total_complex": lambda a, k, out: {
        "cells": sum(out.sizes.values())},
    "linalg.rank": lambda a, k, out: {"nnz": _nnz(a[0])},
    "linalg.snf": lambda a, k, out: {"bits": max(
        _bits(out.S), _bits(out.U), _bits(out.V), _bits(out.U_inv),
        _bits(out.V_inv))},
    "verify.run_suite": lambda a, k, out: {"checks": out.checks},
}


class Tracer:
    """Records spans of calls into fihom; one per process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, counts or None]
        self._stack = []
        self._wrappers = {}
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = t0
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, out)
            return out

        return traced

    def _wrapper_for(self, fn):
        w = self._wrappers.get(fn)
        if w is None:
            layer = fn.__module__.rsplit(".", 1)[-1]
            w = self._wrap("%s.%s" % (layer, fn.__qualname__), fn)
            self._wrappers[fn] = w
        return w

    def install(self, package):
        """Wrap fihom's public functions everywhere they are bound."""
        prefix = package.__name__ + "."
        modules = [package] + [sys.modules[prefix + name] for name in LAYERS]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(prefix)):
                    continue
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, self._wrapper_for(obj))
        linalg = sys.modules[prefix + "linalg"]
        for cls, names in ((linalg.Matrix, MATRIX_METHODS),
                           (linalg.QuotientCoords, QUOTIENT_METHODS)):
            for attr in names:
                raw = cls.__dict__[attr]
                self._undo.append((cls, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrapper_for(raw.__func__)))
                else:
                    setattr(cls, attr, self._wrapper_for(raw))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -----------------------------------------------------------------
    # read-out: every figure is weighted per span, so that spans of the
    # set-up count once and spans of R rounds count 1/R each

    def _outer(self, names):
        """Indices of spans named in `names` with no ancestor named there."""
        inside = [False] * len(self.spans)   # itself or an ancestor in names
        out = []
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            hit = name in names
            up = parent >= 0 and inside[parent]
            inside[i] = hit or up
            if hit and not up:
                out.append(i)
        return out

    def inclusive(self, names, weight):
        """(seconds, calls) of the outermost spans named in `names`."""
        idx = self._outer(set(names))
        return (sum(weight(i) * (self.spans[i][2] - self.spans[i][1]) for i in idx),
                sum(weight(i) for i in idx))

    def count(self, name, key, weight):
        return sum(weight(i) * s[4][key] for i, s in enumerate(self.spans)
                   if s[0] == name and s[4])

    def count_max(self, name, key):
        return max((s[4][key] for s in self.spans if s[0] == name and s[4]),
                   default=0)

    def self_times(self, weight):
        """Seconds per layer of span time not covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += weight(i) * ((t1 - t0) - child[i])
        return out

    def write(self, path):
        """All spans, one tab-separated line each: name start end parent counts."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, counts in self.spans:
                extra = ",".join("%s=%s" % kv for kv in sorted((counts or {}).items()))
                fh.write("%s\t%.9f\t%.9f\t%d\t%s\n" % (name, t0, t1, parent, extra))
