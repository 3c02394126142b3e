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
