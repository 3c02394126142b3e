"""Every name a src module imports is used there (no linter is assumed)."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "fihom"


def unused_imports(source):
    """The names that `source` imports but never reads as an `ast.Name`.

    `__future__` imports are directives, not names, and are skipped.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom math import gcd, lcm as l\n"
              "def f(x: int) -> int:\n    return gcd(x, os.sep)\n")
    assert unused_imports(source) == [(3, "l")]


def test_src_modules_use_every_name_they_import():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert files
    found = {p.name: bad for p in files if (bad := unused_imports(p.read_text()))}
    assert found == {}


def defined_names(stmt):
    """The names a top-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {t.id for t in targets if isinstance(t, ast.Name)}


def names_read(source):
    """The names that `source` reads as a name or an attribute, outside the
    statement that defines them (so a function that only calls itself is
    not read)."""
    read = set()
    for stmt in ast.parse(source).body:
        own = defined_names(stmt)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name not in own:
                read.add(name)
    return read


def unread_private_names(sources):
    """(file, line, name) of each private module-level function, class or
    constant (one leading underscore, not a dunder) in `sources`, a dict
    file -> text, that no file reads."""
    read = set().union(*map(names_read, sources.values()))
    return sorted((f, stmt.lineno, name) for f, text in sources.items()
                  for stmt in ast.parse(text).body for name in defined_names(stmt)
                  if name[:1] == "_" and name[:2] != "__" and name not in read)


def test_the_check_sees_an_unread_private_helper():
    kept = ("__all__ = []\n_LIMIT = 3\n"
            "def _used(x):\n    return x < _LIMIT\n"
            "def _self_only(n):\n    return _self_only(n - 1) if n else 0\n"
            "class _Orphan:\n    pass\n"
            "def public(x):\n    return _used(x)\n")
    other = "def g(m):\n    return m._by_attribute()\ndef _by_attribute():\n    pass\n"
    assert unread_private_names({"a.py": kept, "b.py": other}) == [
        ("a.py", 5, "_self_only"), ("a.py", 7, "_Orphan")]


def test_every_private_src_name_is_read_in_src():
    """A private helper that only tests reach is dead code in the program."""
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []
