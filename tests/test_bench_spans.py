"""The benchmark's tracer wraps fihom by name; these names must exist.

`bench/spans.py` replaces fihom's public functions and named methods of
`Matrix` and `QuotientCoords` with recording wrappers (`--trace 1`).  A
method deleted or turned into a plain attribute makes `install` fail, so
the contract is pinned here, next to the program's own tests.
"""

import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "bench"))

import spans  # noqa: E402

import fihom  # noqa: E402
from fihom import (  # noqa: E402
    QQ, ZZ, Matrix, QuotientCoords, fih_chain_complex, hyper_total_complex,
    representable,
)
from fihom import linalg  # noqa: E402
from fihom.fimodule import _Injections  # noqa: E402
from fihom.generate import gen_complex  # noqa: E402


def bindings():
    """Every attribute of the traced modules and classes, by owner."""
    mods = [fihom] + [importlib.import_module("fihom." + name)
                      for name in spans.LAYERS]
    out = {mod.__name__: dict(vars(mod)) for mod in mods}
    for cls in (linalg.Matrix, linalg.QuotientCoords):
        out[cls.__qualname__] = dict(cls.__dict__)
    return out


def test_tracer_installs_and_restores_every_wrapped_attribute():
    before = bindings()
    tracer = spans.Tracer()
    tracer.install(fihom)
    try:
        for name in spans.QUOTIENT_METHODS:
            assert QuotientCoords.__dict__[name] is not before["QuotientCoords"][name]
        q = QuotientCoords(Matrix.zeros(QQ, 2, 0), Matrix.zeros(QQ, 0, 2))
        q.induced(Matrix.identity(QQ, 2), q)
        fihom.rank(Matrix.identity(QQ, 2))
        names = {s[0] for s in tracer.spans}
        assert {"linalg.QuotientCoords.__init__", "linalg.QuotientCoords.induced",
                "linalg.Matrix.__matmul__", "linalg.rank"} <= names
    finally:
        tracer.uninstall()
    assert bindings() == before


def test_the_traced_counts_read_the_whole_complex():
    """The tracer's counts for the complex builders, and the total complex's
    D that the `hyper` workload's oracle reads, are the whole build's on a
    single-level build and on a level of a walk alike."""
    V = representable(2, 5, ZZ)
    cube_count = spans.COUNTS["homology.fih_chain_complex"]
    for n in range(V.truncation + 1):
        full = fih_chain_complex(V, n)
        want = {"cells": sum(full.sizes), "nnz": sum(d.nnz() for d in full.d)}
        for cpx in (fih_chain_complex(V, n), fih_chain_complex(V, n, _Injections(V))):
            assert cube_count((V, n), {}, cpx) == want
    W = gen_complex("spans", ring=ZZ, trunc=4)
    total_count = spans.COUNTS["complexes.hyper_total_complex"]
    for n in range(W.truncation + 1):
        full = hyper_total_complex(W, n)
        cells = sum(full.sizes.values())
        walk = hyper_total_complex(W, n, tuple(map(_Injections, W.modules)))
        for tot in (hyper_total_complex(W, n), walk):
            assert total_count((W, n), {}, tot) == {"cells": cells}
            assert tot.D.keys() == set(range(W.q_min + 1, W.q_max + n + 1))
            assert tot.D == full.D
