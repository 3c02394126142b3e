"""Tests of the benchmark's reference computations.

    python -m pytest bench/test_oracles.py

The oracles stand in for fihom's answers, so each is tested here against a
second, more naive computation or a known value.  A few tests also feed an
oracle's output to fihom, which must accept it.
"""

import itertools
import os
import random
import sys
from fractions import Fraction
from math import comb, factorial

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
from fihom import ZZ, Matrix, snf  # noqa: E402
from fihom.complexes import hyper_total_complex  # noqa: E402
from fihom.io import parse  # noqa: E402


def _leibniz(a):
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inv = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inv
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def _rank_q(a):
    rows = [[Fraction(x) for x in r] for r in a]
    rank, col = 0, 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col] / rows[rank][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def _free_dims(ms, N):
    """dim of (+) M(m) at each level: C(n, m) m! injections m_ -> n_."""
    return [sum(comb(n, m) * factorial(m) for m in ms) for n in range(N + 1)]


def _sparse(a):
    return [{j: v for j, v in enumerate(r) if v} for r in a]


def test_free_module_text_is_a_valid_module_of_the_right_size():
    for ms, N, ring in [((2,), 4, "Z"), ((1, 0), 4, "Q"), ((2, 1, 0), 3, "Z")]:
        V = parse(oracles.free_module_text(ms, N, ring, random.Random(7)))
        assert list(V.dims) == _free_dims(ms, N)
        assert V.ring == ring


def test_free_module_structure_maps_are_permutation_matrices():
    V = parse(oracles.free_module_text((2,), 4, "Z", random.Random(3)))
    for mat in list(V.iota) + [m for level in V.trans for m in level]:
        rows = mat.to_rows()
        assert all(set(r) <= {0, 1} for r in rows)
        assert all(sum(c) == 1 for c in zip(*rows))   # injective on the basis
        if mat.nrows == mat.ncols:
            assert all(sum(r) == 1 for r in rows)    # and onto it


def test_rank_mod_p_known_values():
    assert oracles.rank_mod_p(_sparse([[2, 0], [0, 3]]), 2) == 1
    assert oracles.rank_mod_p(_sparse([[2, 0], [0, 3]]), 3) == 1
    assert oracles.rank_mod_p(_sparse([[2, 0], [0, 3]]), 5) == 2
    assert oracles.rank_mod_p(_sparse([[1, 1], [1, 1]]), 7) == 1
    assert oracles.rank_mod_p([], 2) == 0


def test_rank_mod_large_prime_is_the_rational_rank():
    rng = random.Random(1)
    for _ in range(40):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        a = [[rng.choice((0, 0, 1, -1, 2, 5)) for _ in range(nc)] for _ in range(nr)]
        assert oracles.rank_mod_p(_sparse(a), 2147483647) == _rank_q(a)


def test_bareiss_det_matches_leibniz():
    rng = random.Random(2)
    for n in range(0, 6):
        for _ in range(10):
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert oracles.bareiss_det(a) == _leibniz(a)
    assert oracles.bareiss_det([[0, 1], [1, 0]]) == -1
    assert oracles.bareiss_det([[1, 2], [2, 4]]) == 0


def test_planted_matrix_has_its_planted_invariants():
    for seed in range(6):
        rng = random.Random(seed)
        m, divisors = oracles.planted_matrix(rng, 6, 6)
        assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
        prod = 1
        for d in divisors:
            prod *= d
        assert abs(oracles.bareiss_det(m)) == prod
        m, divisors = oracles.planted_matrix(rng, 6, 4)
        assert oracles.bareiss_det(m) == 0
        assert oracles.rank_mod_p(_sparse(m), 2147483647) == 4


def test_planted_divisors_are_the_smith_diagonal():
    m, divisors = oracles.planted_matrix(random.Random(5), 7, 5)
    res = snf(Matrix.from_rows(ZZ, m))
    assert [d for d in res.divisors() if d] == divisors


def test_smith_checks_accept_a_smith_form_and_reject_a_broken_one():
    m = oracles.dense_matrix(random.Random(4), 5, 4)
    res = snf(Matrix.from_rows(ZZ, m))
    parts = [x.to_rows() for x in (res.S, res.U, res.V, res.U_inv, res.V_inv)]
    assert oracles.smith_checks(m, *parts) == []
    s = [list(r) for r in parts[0]]
    s[0][1] = 1
    assert oracles.smith_checks(m, s, *parts[1:])


def test_total_euler_matches_the_total_complex_sizes():
    path = os.path.join(HERE, "data", "hyper", "complex-s3.fic")
    W = parse(path)
    dims = [V.dims for V in W.modules]
    for n in range(W.truncation + 1):
        tot = hyper_total_complex(W, n)
        chi = sum((-1) ** m * s for m, s in tot.sizes.items())
        assert oracles.total_euler(dims, W.q_min, n) == chi


def test_total_euler_by_hand():
    # one module W_0 = M(0) (dim 1 everywhere): chi at level n is sum (-1)^p C(n, p) = 0
    assert oracles.total_euler([[1, 1, 1, 1]], 0, 3) == 0
    assert oracles.total_euler([[1, 1, 1, 1]], 0, 0) == 1
    assert oracles.total_euler([[1, 1], [0, 2]], 0, 1) == (1 - 1) + (-2 + 0)
