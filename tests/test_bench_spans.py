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
from fihom import QQ, Matrix, QuotientCoords  # noqa: E402
from fihom import linalg  # noqa: E402


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
