"""The streamed level walk of `degrees` and `hyper_degrees`.

Each level of the walk multiplies only the d^2 pairs through total degree
q_max + 2 (the cube complex's (d_1, d_2)), builds those differentials
whole, and writes every higher D_{m+1} only on the rows that the pivots
of D_m leave.  The profiles are checked against the old two-map formula
on the whole build, and the public eliminations against their own inputs.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from fihom import (
    FIModule, Matrix, QQ, ZZ, degrees, direct_sum, elementary_divisors,
    fih_chain_complex, hyper_degrees, hyper_total_complex,
    rank, representable,
)
from fihom import fimodule, homology
from fihom.fimodule import fi_coker
from fihom.generate import gen_coker, gen_complex
from fihom.homology import DegreeProfile
from fihom.linalg import _divisors_of, _rank_of, rref

from test_homology import doubling_module, old_homology_class


def full_profile(complex_at, N, ks):
    """t_k with every level built whole and every H_k read by
    old_homology_class on the maps written whole: no cache and no
    pivot-row compression."""
    values = dict.fromkeys(ks)
    for n in range(N + 1):
        cpx = complex_at(n)
        for k in ks:
            if not old_homology_class(cpx.boundary_in(k), cpx.boundary_out(k)).is_zero():
                values[k] = n
    certified = {k: v is not None and v < N for k, v in values.items()}
    return DegreeProfile(N, values, certified)


def signed_permutation(rng, ring, n):
    """(P, P^-1) for a random signed permutation matrix of size n."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    P = Matrix(ring, n, n, [{perm[i]: signs[i]} for i in range(n)])
    return P, P.transpose()


def permuted(V, seed):
    """V with the basis of every level changed by a signed permutation."""
    rng = random.Random(seed)
    P = [signed_permutation(rng, V.ring, d) for d in V.dims]
    iota = tuple(P[n + 1][0] @ V.iota[n] @ P[n][1] for n in range(V.truncation))
    trans = tuple(tuple(P[n][0] @ s @ P[n][1] for s in V.trans[n])
                  for n in range(V.truncation + 1))
    return FIModule(V.ring, V.truncation, V.dims, iota, trans)


def free_modules():
    for ring in (ZZ, QQ):
        for s, ms in enumerate(((1, 0), (2,), (2, 1), (1, 1, 0), (3,))):
            yield permuted(direct_sum(*(representable(m, 6, ring) for m in ms)),
                           "free:%s:%d" % (ring, s))


def coker_modules():
    for ring in (ZZ, QQ):
        for s in range(12):
            yield gen_coker(s, ring=ring, trunc=5).module


# ---------------------------------------------------------------------------
# the profiles against the whole build


@pytest.mark.parametrize("family", ["coker", "free"])
def test_degrees_match_homology_class_on_the_whole_build(family):
    rings, nonzero = set(), 0
    for V in coker_modules() if family == "coker" else free_modules():
        full = full_profile(lambda n: fih_chain_complex(V, n), V.truncation, range(4))
        for kmax in range(4):
            got = degrees(V, kmax)
            assert got.values == {k: full.values[k] for k in range(kmax + 1)}
            assert got.certified == {k: full.certified[k] for k in range(kmax + 1)}
        rings.add(V.ring)
        nonzero += sum(v is not None for v in full.values.values())
    assert rings == {ZZ, QQ} and nonzero > 0


def test_hyper_degrees_match_homology_class_on_the_whole_build():
    for ring in (ZZ, QQ):
        for s in range(3):
            W = gen_complex("stream:%d" % s, ring=ring, trunc=4)
            ks = range(W.q_min - 1, W.q_max + W.truncation + 2)
            full = full_profile(lambda n: hyper_total_complex(W, n), W.truncation, ks)
            assert hyper_degrees(W, (ks[0], ks[-1])) == full


# ---------------------------------------------------------------------------
# which d^2 pairs a walk multiplies


def tracking_products(monkeypatch):
    """Make `homology` build its matrices as a Matrix subclass that records
    the shapes of every product of two of them; return the record."""
    products = []

    class Tracked(Matrix):
        __slots__ = ()

        def __matmul__(self, other):
            if isinstance(other, Tracked):
                products.append((self.shape, other.shape))
            return Matrix.__matmul__(self, other)

    monkeypatch.setattr(homology, "Matrix", Tracked)
    return products


def pair_shapes(sizes, ms):
    """The shapes of D_{m-1} @ D_m for m in ms, from the sizes of C."""
    return [((sizes.get(m - 2, 0), sizes[m - 1]), (sizes[m - 1], sizes[m])) for m in ms]


def test_degrees_multiplies_only_d1_d2_at_each_level(monkeypatch):
    modules = [representable(2, 6, ZZ), doubling_module(5),
               direct_sum(representable(1, 6, QQ), representable(2, 6, QQ))]
    want = []
    for V in modules:
        for n in range(V.truncation + 1):
            want += pair_shapes(dict(enumerate(fih_chain_complex(V, n).sizes)),
                                [2] if n >= 2 else [])
    products = tracking_products(monkeypatch)
    for V in modules:
        degrees(V, 3)
    assert products == want


def test_hyper_degrees_multiplies_only_the_pairs_through_q_max_plus_2(monkeypatch):
    complexes_ = [gen_complex("pairs:%d" % s, ring=ring, trunc=4)
                  for ring in (ZZ, QQ) for s in range(2)]
    want = []
    for W in complexes_:
        for n in range(W.truncation + 1):
            sizes = hyper_total_complex(W, n).sizes
            want += pair_shapes(sizes, range(W.q_min + 2, min(W.q_max + 2, max(sizes)) + 1))
    products = tracking_products(monkeypatch)
    for W in complexes_:
        hyper_degrees(W, (W.q_min - 1, W.q_max + W.truncation + 1))
    assert products == want


# ---------------------------------------------------------------------------
# what a walk writes


def test_the_walk_writes_no_entry_into_rows_the_pivots_below_remove(monkeypatch):
    """Every entry the walk writes lies in d_1, d_2 or the rows of d_p
    (p = 3, 4) outside the pivots of d_{p-1} that its elimination used."""
    for V in (representable(2, 6, ZZ), permuted(representable(2, 6, QQ), "writes"),
              direct_sum(doubling_module(6), representable(1, 6, ZZ))):
        walked, written = [], [0]
        build, put = homology.fih_chain_complex, homology._put_entries

        def tracked(*args):
            walked.append(build(*args))
            return walked[-1]

        def counted(rows, r0, c0, entries):
            put(rows, r0, c0, entries)
            written[0] += sum(rows[r0 + i] is not None for i, _, _ in entries)

        monkeypatch.setattr(homology, "fih_chain_complex", tracked)
        monkeypatch.setattr(homology, "_put_entries", counted)
        degrees(V, 3)
        monkeypatch.undo()
        want = whole = 0
        for cpx in walked:
            full = fih_chain_complex(V, cpx.level)
            for p in range(1, min(cpx.level, 4) + 1):
                below = cpx._pivots.get(p - 1, set())
                dropped = () if p <= 2 else below
                rows = full.differential(p).rows
                want += sum(len(r) for i, r in enumerate(rows) if i not in dropped)
                whole += sum(map(len, rows))
        assert written[0] == want < whole


# ---------------------------------------------------------------------------
# eliminations and their inputs


def sample_matrices():
    rng = random.Random("inputs")
    for ring in (ZZ, QQ):
        for _ in range(20):
            nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
            rows = []
            for _ in range(nrows):
                scale = rng.choice((1, 2, 6))
                rows.append([scale * rng.randint(-3, 3) if rng.random() < 0.5 else 0
                             for _ in range(ncols)])
            M = Matrix.from_rows(ring, rows, ncols)
            if ring == QQ and nrows:
                M = M.scale(Fraction(1, 3)) + M   # Fraction entries
            yield M


def entries(M):
    """M's stored entries, with their types, row by row."""
    return [[(j, type(v), v) for j, v in r.items()] for r in M.rows]


def test_public_eliminations_leave_their_input_unchanged():
    contents = set()
    for M in sample_matrices():
        before = entries(M)
        rank(M)
        rref(M)
        if M.ring == ZZ:
            elementary_divisors(M)
            contents |= {gcd(*r.values()) for r in M.rows if r}
        assert entries(M) == before
    # rows that the eliminations scale by their content were among them
    assert max(contents) > 1


def kept_rows(M, skip):
    """(M's nonzero rows {i: row} outside `skip`, copied; M with the `skip`
    rows zeroed)."""
    rows = {i: dict(r) for i, r in enumerate(M.rows) if r and i not in skip}
    return rows, Matrix(M.ring, M.nrows, M.ncols,
                        [{} if i in skip else r for i, r in enumerate(M.rows)])


def columns(M, cols):
    """The columns `cols` of M, in that order."""
    return Matrix(M.ring, M.nrows, len(cols),
                  [{k: r[j] for k, j in enumerate(cols) if j in r} for r in M.rows])


def test_the_consuming_eliminations_match_the_public_ones():
    units = 0
    for M in sample_matrices():
        rows, kept = kept_rows(M, {0})
        r, piv = _rank_of(rows)
        # as many pivot columns as the rank, independent over Q
        assert r == rank(kept) == len(piv) == rank(columns(kept, piv))
        if M.ring == ZZ:
            rows, kept = kept_rows(M, {0})
            divs, piv = _divisors_of(rows)
            assert divs == elementary_divisors(kept)
            # the unit-peel pivot columns span a unimodular minor
            assert elementary_divisors(columns(kept, piv)) == [1] * len(piv)
            units += len(piv)
    assert units > 0


# ---------------------------------------------------------------------------
# gen_coker over Z


def test_a_z_coker_attempt_stops_at_its_first_torsion_level(monkeypatch):
    built, checked, sums = [], [], [0]
    levels_of, check, free_sum = (fimodule._free_morphism_levels,
                                  fimodule._z_coker_level, fimodule._free_sum)

    def counted_levels(*args):
        for L in levels_of(*args):
            built.append(L)
            yield L

    def counted_check(L, n):
        checked.append(n)
        return check(L, n)

    def counted_sum(*args):
        sums[0] += 1
        return free_sum(*args)

    stopped = 0
    for s in range(12):
        monkeypatch.setattr(fimodule, "_free_morphism_levels", counted_levels)
        monkeypatch.setattr(fimodule, "_z_coker_level", counted_check)
        monkeypatch.setattr(fimodule, "_free_sum", counted_sum)
        del built[:], checked[:]
        sums[0] = 0
        inst = gen_coker(s, ring=ZZ, trunc=5)
        # no source module is built while drawing; reading the presentation
        # builds it once, for the attempt kept; a Z attempt builds and checks
        # the levels 0, 1, ... one at a time and stops at its first torsion
        # level; the Q attempt of a downgrade checks none
        assert sums[0] == 0
        N = inst.presentation.target.truncation
        assert sums[0] == 1
        monkeypatch.undo()
        assert len(built) == len(checked) + (N + 1) * (inst.ring == QQ)
        starts = [i for i, n in enumerate(checked) if n == 0] + [len(checked)]
        runs = [checked[a:b] for a, b in zip(starts, starts[1:])]
        assert all(run == list(range(len(run))) for run in runs)
        torsion = runs if inst.downgraded else runs[:-1]
        assert len(torsion) == (4 if inst.downgraded else len(runs) - 1)
        stopped += sum(len(run) <= N for run in torsion)
        if inst.ring == ZZ:
            assert len(runs[-1]) == N + 1
            C = fi_coker(inst.presentation)
            assert (C.dims, C.iota, C.trans) == (inst.module.dims, inst.module.iota,
                                                 inst.module.trans)
    assert stopped > 0
