"""Matrix entries stay exact: a Q entry is an int when integral and a
Fraction otherwise, never a float, and src/fihom holds no true division."""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fihom import Matrix, QQ, ZZ, hyper_total_complex, parse
from fihom.cli import EXIT_OK, main
from fihom.generate import gen_complex

ROOT = Path(__file__).parent.parent
HYPER_FILES = sorted((ROOT / "bench" / "data" / "hyper").glob("*.fic"))

# (module file, line) of each allowed true division: none
DIVISION_ALLOWED = set()


def test_src_has_no_true_division():
    """`int / int` is a float, so no `/` or `/=` may reach an entry."""
    files = sorted((ROOT / "src" / "fihom").glob("*.py"))
    assert files
    found = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.add((path.name, node.lineno))
    assert found - DIVISION_ALLOWED == set()


def test_integral_rationals_are_stored_as_ints():
    assert type(Matrix.from_rows(QQ, [[Fraction(4, 2)]]).rows[0][0]) is int
    M = Matrix.from_rows(QQ, [[Fraction(4, 2), Fraction(1, 2)], [3, 0]])
    assert [[type(v) for v in r.values()] for r in M.rows] == [[int, Fraction], [int]]
    for built in (Matrix.from_flat(QQ, 1, 2, [Fraction(6, 3), 5]),
                  Matrix.from_sparse(QQ, 1, 2, [{0: Fraction(6, 3), 1: 5}]),
                  Matrix.diagonal(QQ, 2, 2, [Fraction(6, 3), 5]),
                  Matrix.identity(QQ, 2).scale(Fraction(2, 1)),
                  Matrix.from_rows(ZZ, [[2, 5]]).to_ring(QQ)):
        assert {type(v) for r in built.rows for v in r.values()} == {int}
    with pytest.raises(TypeError):
        Matrix.from_rows(QQ, [[0.5]])
    with pytest.raises(TypeError):
        Matrix.from_rows(ZZ, [[Fraction(1, 2)]])


def test_public_readers_return_fractions_over_q_and_ints_over_z():
    Q = Matrix.from_rows(QQ, [[2, Fraction(1, 2)], [0, 3]])
    assert Q.rows[0][0] == 2 and type(Q.rows[0][0]) is int
    readouts = [[Q.entry(0, 0), Q.entry(1, 0)], Q.to_flat(), Q.column(0)] + Q.to_rows()
    for vals in readouts:
        assert {type(v) for v in vals} == {Fraction}
    assert Q.to_rows() == [[2, Fraction(1, 2)], [0, 3]]
    Z = Q.scale(2).to_ring(ZZ)
    readouts = [[Z.entry(0, 0), Z.entry(1, 0)], Z.to_flat(), Z.column(1)] + Z.to_rows()
    for vals in readouts:
        assert {type(v) for v in vals} == {int}


def test_the_text_reader_stores_integral_q_tokens_as_ints():
    V = parse("fimodule\nring Q\ntruncation 1\ndims 1 4\niota 0\n4/2\n1/2\n-3\n2.0\nend\n")
    iota = V.iota[0]
    assert [type(r[0]) for r in iota.rows] == [int, Fraction, int, int]
    assert iota.to_rows() == [[2], [Fraction(1, 2)], [-3], [2]]


# Matrices built here hold only parsed or generated data, so an integral
# entry must be an int.  Everything else (RREF and quotient coordinates,
# maps read through them) may hold a Fraction with denominator 1.
STRICT_BUILDERS = {("fihom.fimodule", "free_fi_module"),
                   ("fihom.fimodule", "regular_fbdata")}
STRICT_MODULES = {"fihom.io", "fihom.generate"}
_MATRIX_CODE = {getattr(getattr(v, "__func__", v), "__code__", None)
                for v in vars(Matrix).values()}


def _builder():
    """(module, function) of the first caller outside Matrix's own methods."""
    f = sys._getframe(2)
    while f.f_code in _MATRIX_CODE:
        f = f.f_back
    return f.f_globals.get("__name__"), f.f_code.co_name


def _bad_entries(M, strict):
    """Entries of M that are not exact, or (strict) integral Fractions."""
    bad = []
    for r in M.rows:
        for v in r.values():
            if type(v) is int:
                continue
            if type(v) is not Fraction or (strict and v.denominator == 1):
                bad.append(v)
    return bad


class _Watch:
    """Violations seen so far and the count of strict matrices checked;
    `strict_all` makes every later matrix strict."""

    def __init__(self):
        self.found = []
        self.strict = 0
        self.strict_all = False


@pytest.fixture
def watch(monkeypatch):
    """Check every Matrix as it is built."""
    w = _Watch()
    init = Matrix.__init__

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        where = _builder()
        strict = w.strict_all or where[0] in STRICT_MODULES or where in STRICT_BUILDERS
        w.strict += strict
        bad = _bad_entries(self, strict)
        if bad:
            w.found.append((where, bad[:3]))

    monkeypatch.setattr(Matrix, "__init__", checked)
    return w


def test_verify_battery_builds_exact_entries(watch, capsys):
    assert main(["verify", "--suite", "all", "--seed", "0"]) == EXIT_OK
    capsys.readouterr()
    assert watch.found == []
    assert watch.strict > 0


def test_bench_hyper_complexes_over_q_hold_ints_only(watch, tmp_path):
    """io.parse and every total complex of the bench hyper files read as Q:
    the data are integral, so every matrix built holds ints only."""
    assert len(HYPER_FILES) == 4
    watch.strict_all = True
    for path in HYPER_FILES:
        copy = tmp_path / path.name
        copy.write_text(path.read_text().replace("ring Z\n", "ring Q\n"))
        W = parse(str(copy))
        assert W.ring == QQ
        for n in range(W.truncation + 1):
            tot = hyper_total_complex(W, n)
            for D in tot.D.values():
                assert _bad_entries(D, True) == []
    assert watch.found == []


def test_gen_complex_over_q_stores_integral_entries_as_ints():
    """Generator images drawn from Q kernel bases are stored as ints where
    integral, so no matrix of a generated complex holds Fraction(n, 1)."""
    for seed in range(10):
        W = gen_complex(seed, QQ)
        mats = [M for d in W.diffs for M in d.levels]
        mats += [M for V in W.modules for M in V.iota + sum(V.trans, ())]
        assert [v for M in mats for v in _bad_entries(M, True)] == [], seed


def test_mul_vec_matches_the_sum_formula_in_values_and_types():
    """`Matrix.mul_vec` against sum(v * vec[j]) row by row: the same values,
    int or Fraction alike, on sparse int and Fraction rows."""
    import random

    rng = random.Random("mul_vec")
    entries = [1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]
    # a pushed vector may hold an integral Fraction, made by a product
    coords = entries + [0, Fraction(2)]
    for _ in range(300):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 5)
        rows = [{j: rng.choice(entries) for j in range(ncols) if rng.random() < 0.4}
                for _ in range(nrows)]
        vec = [rng.choice(coords) for _ in range(ncols)]
        got = Matrix(QQ, nrows, ncols, rows).mul_vec(vec)
        want = [sum(v * vec[j] for j, v in r.items()) for r in rows]
        assert [(x, type(x)) for x in got] == [(x, type(x)) for x in want]
