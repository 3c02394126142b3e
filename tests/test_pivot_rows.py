"""Chain-complex eliminations on the rows the map below leaves, against the
full eliminations of the stored matrices.

`_ChainComplex` eliminates D_{m+1} only on the rows of C_m that are not
pivot columns of D_m, when D_m was eliminated first.  Every cached rank
(Q) and divisor list (Z) is checked here against `rank` and
`elementary_divisors` on the whole stored matrix, in three sweep orders.
"""

import random
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fihom import (
    AbelianClass, Matrix, QQ, ZZ, direct_sum, elementary_divisors,
    fih_chain_complex, hyper_total_complex, rank, representable,
)
from fihom.generate import gen_coker, gen_complex
from fihom.io import parse
from fihom.linalg import _ChainComplex, _divisors_of, _rank_of

from test_homology import ORDERS, doubling_module, in_order, old_homology_class

HYPER_FILES = sorted((Path(__file__).parent.parent / "bench" / "data" / "hyper").glob("*.fic"))


def cube_family(V):
    """(build, degrees) for the cube complex of V at every level."""
    return [(lambda n=n: fih_chain_complex(V, n), range(-1, n + 2))
            for n in range(V.truncation + 1)]


def total_family(W):
    """(build, degrees) for the total complex of W at every level."""
    return [(lambda n=n: hyper_total_complex(W, n), range(W.q_min - 1, W.q_max + n + 2))
            for n in range(W.truncation + 1)]


def representable_sums():
    out = []
    for ring in (ZZ, QQ):
        for ms in ((1, 0), (2, 1), (1, 1, 0), (2,)):
            out += cube_family(direct_sum(*(representable(m, 5, ring) for m in ms)))
    return out


def coker_family():
    out = []
    for s in range(4):
        for ring in (ZZ, QQ):
            out += cube_family(gen_coker("rows:%d" % s, ring=ring, trunc=5).module)
    return out


def doubling_family():
    V = doubling_module(5)
    return cube_family(V) + cube_family(direct_sum(V, representable(1, 5, ZZ)))


def complex_family():
    out = []
    for s in range(3):
        for ring in (ZZ, QQ):
            out += total_family(gen_complex("rows:%d" % s, ring=ring, trunc=4))
    return out


def hyper_file_family():
    out = []
    for path in HYPER_FILES:
        text = path.read_text()
        for ring in ("Z", "Q"):
            out += total_family(parse(text.replace("ring Z\n", "ring %s\n" % ring)))
    return out


FAMILIES = {
    "representable": representable_sums,
    "coker": coker_family,
    "doubling": doubling_family,
    "complex": complex_family,
    "hyper-files": hyper_file_family,
}


def check_sweep(C, degs, order):
    """Sweep C in `order`; check every cached invariant against the full
    elimination of its stored matrix; return the count of pivots kept."""
    for m in in_order(degs, order):
        C.homology(m)
    for m, invariant in C._invariants.items():
        D = C.boundary_out(m)
        assert invariant == (rank(D) if C._ring == QQ else elementary_divisors(D))
    for m in degs:
        assert C.homology(m) == old_homology_class(C.boundary_in(m), C.boundary_out(m))
    return sum(map(len, C._pivots.values()))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_compressed_invariants_match_full_elimination(family, order):
    assert sum(check_sweep(build(), degs, order) for build, degs in FAMILIES[family]())


@pytest.mark.parametrize("family", ["doubling", "hyper-files"])
def test_families_reach_z_torsion(family):
    torsion = 0
    for build, degs in FAMILIES[family]():
        C = build()
        torsion += sum(len(C.homology(m).torsion) for m in degs)
    assert torsion > 0


def row_dicts(M, skip=()):
    """M's nonzero rows {i: row}, copied, those in `skip` left out."""
    return {i: dict(r) for i, r in enumerate(M.rows) if r and i not in skip}


def two_step(ring):
    """D_1 = [[2, 3]], D_2 = [[3], [-2]]: H_1 = 0, and D_1 has no unit pivot."""
    D = {1: Matrix.from_rows(ring, [[2, 3]]), 2: Matrix.from_rows(ring, [[3], [-2]])}
    return _ChainComplex.of(D)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_a_non_unit_pivot_never_drops_rows_for_the_divisors(ring, order):
    C = two_step(ring)
    got = {m: C.homology(m) for m in in_order(range(-1, 4), order)}
    assert got == {-1: AbelianClass(0), 0: AbelianClass(0), 1: AbelianClass(0),
                   2: AbelianClass(0), 3: AbelianClass(0)}
    # dropping row 0 by rank's pivot of D_1 would report Z/2
    assert _rank_of(row_dicts(C.boundary_out(1))) == (1, [0])
    assert _divisors_of(row_dicts(two_step(ZZ).boundary_out(2), {0}))[0] == [2]


def test_rank_pivots_of_the_map_below_leave_the_divisors_whole():
    """Over Z the map below is eliminated for its divisors, never for rank
    pivots: D_1 = [[2, 3]] has no unit pivot, and the pivot of its dense
    residue is not reported, so D_2 keeps every row."""
    C = two_step(ZZ)
    assert len(C._invariant(1)) == 1 and C._pivots[1] == set()
    assert C._invariant(2) == [1]
    assert C.homology(1) == AbelianClass(0)


# ---------------------------------------------------------------------------
# unimodular conjugates of elementary complexes


def unimodular_pair(rng, n, steps):
    """(U, U^-1) as dense integer rows: a product of elementary row ops."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    Ui = [row[:] for row in U]
    for _ in range(steps if n > 1 else 0):
        i, k = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # U <- E U with E = I + c e_i e_k; U^-1 <- U^-1 E^-1
        U[i] = [a + c * b for a, b in zip(U[i], U[k])]
        for row in Ui:
            row[k] -= c * row[i]
    return U, Ui


def invariant_factors(orders):
    """The divisor chain of the sum of Z/t over t in `orders` (t | 12)."""
    powers = {}
    for t in orders:
        for p in (2, 3):
            e = 0
            while t % p == 0:
                t, e = t // p, e + 1
            if e:
                powers.setdefault(p, []).append(p ** e)
    chain = [1] * max(map(len, powers.values()), default=0)
    for qs in powers.values():
        for k, q in enumerate(sorted(qs, reverse=True)):
            chain[k] *= q
    return tuple(sorted(chain))


def test_invariant_factors():
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([2, 4, 6, 1]) == (2, 2, 12)
    assert invariant_factors([1]) == ()


def dense_mul(A, B, ncols):
    return [[sum(a * B[t][j] for t, a in enumerate(row) if a) for j in range(ncols)]
            for row in A]


@st.composite
def elementary_complexes(draw):
    """(sizes, D, expected homology): C_0 .. C_L built from free pieces and
    pieces Z --t--> Z, each chain group then changed by a unimodular basis."""
    L = draw(st.integers(1, 4))
    free = [draw(st.integers(0, 2)) for _ in range(L + 1)]
    # pieces[m]: the divisors t of the pieces Z (degree m+1) -> Z (degree m)
    pieces = [draw(st.lists(st.sampled_from((1, 1, 2, 3, 4, 6)), max_size=3))
              for _ in range(L)] + [[]]
    seed = draw(st.integers(0, 2 ** 16))
    order = draw(st.sampled_from(ORDERS))
    rng = random.Random(seed)
    # basis of C_m: free ones, then sources of pieces into m-1, then targets
    sizes = [free[m] + (len(pieces[m - 1]) if m else 0) + len(pieces[m])
             for m in range(L + 1)]
    dense = {}
    for m in range(1, L + 1):
        A = [[0] * sizes[m] for _ in range(sizes[m - 1])]
        src0 = free[m]
        tgt0 = free[m - 1] + (len(pieces[m - 2]) if m > 1 else 0)
        for k, t in enumerate(pieces[m - 1]):
            A[tgt0 + k][src0 + k] = t
        dense[m] = A
    conj = [unimodular_pair(rng, n, 3 * n) for n in sizes]
    D = {}
    for m, A in dense.items():
        U, _ = conj[m - 1]
        _, Vi = conj[m]
        D[m] = Matrix.from_rows(ZZ, dense_mul(dense_mul(U, A, sizes[m]), Vi, sizes[m]),
                                sizes[m])
    expected = {m: AbelianClass(free[m], invariant_factors(pieces[m]))
                for m in range(L + 1)}
    return sizes, D, expected, order


@given(elementary_complexes())
@settings(max_examples=150, deadline=None)
def test_unimodular_conjugates_of_elementary_complexes(case):
    sizes, D, expected, order = case
    L = len(sizes) - 1
    for m in range(2, L + 1):
        assert (D[m - 1] @ D[m]).is_zero()
    for ring in (ZZ, QQ):
        Dr = {m: d.to_ring(ring) for m, d in D.items()}
        C = _ChainComplex.of(Dr)
        assert C._sizes == dict(enumerate(sizes))
        got = {m: C.homology(m) for m in in_order(range(L + 1), order)}
        for m, want in expected.items():
            assert got[m] == (want if ring == ZZ else AbelianClass(want.rank))
        for m, invariant in C._invariants.items():
            out = C.boundary_out(m)
            assert invariant == (rank(out) if ring == QQ else elementary_divisors(out))
