"""FI-chain complexes: total complex, hyperhomology, the shift cone."""

import dataclasses
import sys
from collections import namedtuple
from math import comb
from pathlib import Path

import pytest

from fihom import (
    AbelianClass,
    FIModule,
    FIMorphism,
    QQ,
    ZZ,
    complex_from_morphisms,
    degrees,
    fih_group,
    fih_chain_complex,
    free_morphism,
    gan_li_bounds,
    hyper_degrees,
    hyper_total_complex,
    levelwise_homology_module,
    parse,
    representable,
    shift_module,
    validate_complex,
    zero_module,
)
from fihom import complexes, fimodule, homology, linalg
from fihom.complexes import _cone_holds, _shift_levels, _three_term_exact
from fihom.fimodule import face_matrices
from fihom.generate import gen_coker, gen_complex, gen_free, random_fbdata
from fihom.homology import _check_square_zero, subset_layout
from fihom.linalg import Matrix, block_matrix


def derivative_two_term(V):
    """The complex [V -> SV] in degrees 1, 0 computing the derived derivative."""
    sd = shift_module(V)
    return complex_from_morphisms([sd.module, sd.natural.source], [sd.natural])


def identity_complex(trunc=3, ring=QQ):
    """[M(1) --id--> M(1)] in degrees 1, 0: acyclic."""
    target = representable(1, trunc, ring)
    f = free_morphism([1], target, [[1]])
    return complex_from_morphisms([target, f.source], [f])


# ---------------------------------------------------------------------------
# the total complex


def test_single_module_complex_recovers_cube_homology():
    for i in range(2):
        V, _ = gen_free("single:%d" % i, ring=ZZ, trunc=3)
        W = complex_from_morphisms([V], [])
        for n in range(4):
            for m in range(n + 1):
                assert hyper_total_complex(W, n).homology(m) == fih_group(V, n, m)


def test_single_module_complex_regraded():
    V = gen_coker("regrade:0", ring=QQ, trunc=3).module
    W = complex_from_morphisms([V], [], q_min=2)
    for n in range(4):
        for m in range(n + 3):
            expect = fih_group(V, n, m - 2) if 0 <= m - 2 <= n \
                else AbelianClass(0)
            assert hyper_total_complex(W, n).homology(m) == expect


def test_acyclic_complex_has_no_hyperhomology():
    W = identity_complex()
    for n in range(4):
        T = hyper_total_complex(W, n)
        for m in range(T.m_min, T.m_max + 1):
            assert T.homology(m).is_zero()


def test_total_differential_squares_to_zero():
    W = gen_complex("dsq:0", trunc=4)
    for n in range(5):
        T = hyper_total_complex(W, n)
        for m in range(T.m_min, T.m_max + 1):
            assert (T.boundary_out(m) @ T.boundary_in(m)).is_zero()


def test_derivative_of_constant_module_is_acyclic():
    W = derivative_two_term(representable(0, 4, ZZ))
    for n in range(4):
        T = hyper_total_complex(W, n)
        for m in range(T.m_min, T.m_max + 1):
            assert T.homology(m).is_zero()


def test_derivative_of_point_module_shifts_homology():
    # H(D M(1)) = S H(M(1)): the generator moves from cardinality 1 to 0
    W = derivative_two_term(representable(1, 4, ZZ))
    assert hyper_total_complex(W, 0).homology(0) == AbelianClass(1)
    for n in range(4):
        T = hyper_total_complex(W, n)
        for m in range(T.m_min, T.m_max + 1):
            if (n, m) != (0, 0):
                assert T.homology(m).is_zero()


def test_derivative_cokernel_is_constant():
    # the underived degree-0 homology: SM(1)/M(1) has the new point only
    W = derivative_two_term(representable(1, 4, QQ))
    H0 = levelwise_homology_module(W, 0)
    assert H0.dims == (1, 1, 1, 1)
    H1 = levelwise_homology_module(W, 1)
    assert H1.is_zero()


# ---------------------------------------------------------------------------
# hyperhomology degrees


def test_hyper_degrees_of_free_generator():
    W = complex_from_morphisms([representable(2, 4, ZZ)], [])
    prof = hyper_degrees(W, (0, 2))
    assert prof.value(0) == 2
    assert prof.certified[0]
    assert prof.value(1) is None
    assert prof.value(2) is None


def test_hyper_degrees_of_acyclic_complex():
    prof = hyper_degrees(identity_complex(), (0, 2))
    assert all(prof.value(k) is None for k in range(3))


def test_hyper_degrees_refuses_an_empty_degree_range():
    with pytest.raises(ValueError, match="empty degree range 3..1"):
        hyper_degrees(identity_complex(), (3, 1))


def test_gan_li_inequality_small_batch():
    from fihom import DegreeSeq

    for i in range(3):
        W = gen_complex("gl:%d" % i, trunc=4)
        prof = hyper_degrees(W, (0, W.q_max + 1))
        seq = DegreeSeq({k: prof.bound_value(k)
                         for k in range(W.q_max + 2)})
        for k in range(W.q_max + 1):
            rep = gan_li_bounds(seq, k)
            hk = degrees(levelwise_homology_module(W, k), 1)
            assert hk.bound_value(0) <= rep.t0_bound
            assert hk.bound_value(1) <= rep.t1_bound


# ---------------------------------------------------------------------------
# one builder behind the cube complex and the total complex


def old_add_block(rows, r0, c0, blk, scale=1):
    """rows[r0 + i][c0 + j] += scale * blk[i, j] on sparse rows, zeros unstored."""
    for i, r in enumerate(blk.rows):
        tgt = rows[r0 + i]
        for j, v in r.items():
            w = tgt.get(c0 + j, 0) + scale * v
            if w:
                tgt[c0 + j] = w
            else:
                tgt.pop(c0 + j, None)


OldCube = namedtuple("OldCube", "sizes offsets d")


def old_fih_chain_complex(V, n):
    """The cube complex built on its own, one differential at a time: an
    OldCube with d[p-1] the differential S_p -> S_{p-1}."""
    if n > V.truncation or n < 0:
        raise ValueError("level %d outside truncation %d" % (n, V.truncation))
    ring = V.ring
    layouts = [subset_layout(V, n, n - p) for p in range(n + 1)]
    sizes = tuple(layouts[p][1] for p in range(n + 1))
    faces = {k: face_matrices(V, k) for k in range(n)}
    ds = []
    for p in range(1, n + 1):
        src, sdim = layouts[p]
        tgt, tdim = layouts[p - 1]
        k = n - p
        rows = [{} for _ in range(tdim)]
        for S, soff in src.items():
            for i in range(n):
                if i in S:
                    continue
                T = tuple(sorted(S + (i,)))
                pos = T.index(i)
                old_add_block(rows, tgt[T], soff, faces[k][pos], -1 if pos % 2 else 1)
        ds.append(Matrix(ring, tdim, sdim, rows))
    _check_square_zero(dict(enumerate(ds, 1)),
                       "d^2 != 0 at (level %d, degree %%d): structure maps "
                       "violate the FI relations or the sign bookkeeping broke" % n)
    return OldCube(sizes, tuple(layouts[p][0] for p in range(n + 1)), tuple(ds))


def old_hyper_total_complex(W, n):
    """(sizes, D): a checked cube complex per W_q, copied block by block
    into the total rows, with the del blocks added beside them."""
    if n > W.truncation or n < 0:
        raise ValueError("level %d outside truncation %d" % (n, W.truncation))
    ring = W.ring
    rows_ = {q: old_fih_chain_complex(W.module(q), n)
             for q in range(W.q_min, W.q_max + 1)}
    m_min, m_max = W.q_min, W.q_max + n
    sizes, layouts = {}, {}
    for m in range(m_min, m_max + 1):
        off, offs = 0, {}
        for q in range(W.q_min, W.q_max + 1):
            if 0 <= m - q <= n:
                offs[(m - q, q)] = off
                off += rows_[q].sizes[m - q]
        layouts[m], sizes[m] = offs, off
    D = {}
    for m in range(m_min + 1, m_max + 1):
        src = layouts[m]
        tgt = layouts[m - 1]
        mat_rows = [{} for _ in range(sizes[m - 1])]
        for (p, q), soff in src.items():
            if p >= 1 and (p - 1, q) in tgt:
                old_add_block(mat_rows, tgt[(p - 1, q)], soff, rows_[q].d[p - 1])
            if (p, q - 1) in tgt:
                sgn = -1 if p % 2 else 1
                lvl = W.diff_level(q, n - p)
                sdim = W.module(q).dims[n - p]
                tdim = W.module(q - 1).dims[n - p]
                toff = tgt[(p, q - 1)]
                for t in range(comb(n, n - p)):
                    old_add_block(mat_rows, toff + t * tdim, soff + t * sdim, lvl, sgn)
        D[m] = Matrix(ring, sizes[m - 1], sizes[m], mat_rows)
    _check_square_zero(D, "D^2 != 0 at total degree %d (bug)")
    return sizes, D


def same_matrix(A, B):
    """Equal, and every row holds its entries in the same order, so code that
    iterates a row meets them as it did with the old builders."""
    return A == B and all(list(r.items()) == list(s.items())
                          for r, s in zip(A.rows, B.rows))


HYPER_FILES = sorted((Path(__file__).parent.parent / "bench" / "data" / "hyper")
                     .glob("*.fic"))


def test_cube_complex_matches_the_old_builder():
    modules = [representable(2, 6, ZZ)]
    for ring in (ZZ, QQ):
        modules += [gen_coker("cube-old:%d" % i, ring=ring, trunc=5).module
                    for i in range(3)]
    cells = 0
    for V in modules:
        for n in range(V.truncation + 1):
            new, old = fih_chain_complex(V, n), old_fih_chain_complex(V, n)
            assert new.sizes == old.sizes
            assert new.offsets == old.offsets
            assert len(new.d) == len(old.d) == n
            assert all(same_matrix(a, b) for a, b in zip(new.d, old.d))
            cells += sum(new.sizes)
    assert cells > 1500


def test_total_complex_matches_the_old_builder():
    complexes_ = [gen_complex("total-old:%d" % i, ring=ring, trunc=4)
                  for ring in (ZZ, QQ) for i in range(3)]
    assert [f.name for f in HYPER_FILES] == [
        "complex-s2.fic", "complex-s3.fic", "complex-s4.fic", "complex-s6.fic"]
    for path in HYPER_FILES:
        text = path.read_text()
        complexes_ += [parse(text), parse(text.replace("ring Z\n", "ring Q\n"))]
    assert {W.ring for W in complexes_} == {ZZ, QQ}
    for W in complexes_:
        for n in range(W.truncation + 1):
            T = hyper_total_complex(W, n)
            sizes, D = old_hyper_total_complex(W, n)
            assert T.sizes == sizes
            assert T.D.keys() == D.keys()
            assert all(same_matrix(T.D[m], D[m]) for m in D)


def test_total_complex_builds_no_cube_complex_and_checks_once(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for mod in (homology, complexes):
        for name in ("_check_square_zero", "fih_chain_complex"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    W = gen_complex("once:0", ring=QQ, trunc=4)
    for n in range(W.truncation + 1):
        del calls[:]
        hyper_total_complex(W, n)
        assert calls == ["_check_square_zero"]


def test_block_writes_never_overlap(monkeypatch):
    """Every caller of the block writer places blocks on fresh entries."""
    callers = set()
    real = linalg._put_block

    def checked(rows, r0, c0, blk, negate=False):
        callers.add(sys._getframe(1).f_code.co_name)
        for i, r in enumerate(blk.rows):
            hit = set(rows[r0 + i]) & {c0 + j for j in r}
            assert not hit, "block write over existing entries %s" % sorted(hit)
        real(rows, r0, c0, blk, negate)

    for mod in (linalg, homology, fimodule, complexes):
        monkeypatch.setattr(mod, "_put_block", checked)
    import random

    X = random_fbdata(random.Random("overlap"), QQ, 4)
    fimodule.free_fi_module(X)
    for ring in (ZZ, QQ):
        V = gen_coker("overlap:%s" % ring, ring=ring, trunc=4).module
        for n in range(V.truncation + 1):
            fih_chain_complex(V, n)
            fimodule.colim_compare(V, n, 1)
        W = gen_complex("overlap:%s" % ring, ring=ring, trunc=3)
        for n in range(W.truncation + 1):
            hyper_total_complex(W, n)
        assert shift_cones(V, 2) == [True, True]
    eye = Matrix.identity(QQ, 2)
    assert block_matrix(QQ, [2, 2], [2, 2], {(0, 0): eye, (1, 1): eye, (0, 1): eye}) \
        == Matrix.from_rows(QQ, [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert callers >= {"_cube_total", "block_matrix", "free_fi_module",
                       "_poset_presentation", "_cube_chain_map"}


def test_both_square_zero_messages_survive():
    # s_1 at level 2 acting by -1 breaks s_1 o iota = iota: the cube d^2 fails
    V = representable(0, 3, ZZ)
    trans = list(V.trans)
    trans[2] = (-V.trans[2][0],)
    bad = dataclasses.replace(V, trans=tuple(trans))
    with pytest.raises(ArithmeticError,
                       match=r"d\^2 != 0 at \(level 2, degree 2\): structure maps"):
        fih_chain_complex(bad, 2)
    # del: M(0) -> M(0) is 1 at level 0 and 0 above, so not natural
    W0, W1 = representable(0, 2, ZZ), representable(0, 2, ZZ)
    levels = (Matrix.identity(ZZ, 1),) + (Matrix.zeros(ZZ, 1, 1),) * 2
    W = complex_from_morphisms([W0, W1], [FIMorphism(W1, W0, levels)])
    assert hyper_total_complex(W, 0).homology(0).is_zero()
    with pytest.raises(ArithmeticError,
                       match=r"D\^2 != 0 at total degree 2 \(bug\)"):
        hyper_total_complex(W, 1)


# ---------------------------------------------------------------------------
# complex validation


def test_non_composing_differentials_rejected():
    target = representable(1, 3, QQ)
    f = free_morphism([1], target, [[1]])       # identity on M(1)
    g = free_morphism([1], f.source, [[1]])     # identity again: f o g != 0
    with pytest.raises(ValueError, match="del o del != 0 at degree 2"):
        complex_from_morphisms([target, f.source, g.source], [f, g])


def test_differential_endpoints_must_be_the_modules():
    target = representable(1, 3, QQ)
    f = free_morphism([1], target, [[1]])
    src = f.source
    # the same dims as M(1) with other structure maps: iota negated
    twisted = FIModule(QQ, 3, src.dims, tuple(-m for m in src.iota), src.trans)
    bad = FIMorphism(twisted, target, f.levels)
    with pytest.raises(ValueError, match="differential 0 endpoints mismatch"):
        complex_from_morphisms([target, src], [bad])
    # an equal copy of the source is accepted
    copy = FIModule(QQ, 3, src.dims, src.iota, src.trans, name=src.name)
    W = complex_from_morphisms([target, src], [FIMorphism(copy, target, f.levels)])
    assert W.modules[1] is src


def test_validate_complex_empty_on_generated():
    W = gen_complex("vc:0")
    assert validate_complex(W) == []


def test_validate_complex_messages_name_the_degree():
    V = representable(1, 3, ZZ)
    trans = list(V.trans)
    trans[3] = (V.trans[3][0].scale(-1), V.trans[3][1])
    bad_module = fimodule.FIModule(ZZ, 3, V.dims, V.iota, tuple(trans))
    levels = [Matrix.identity(ZZ, d) for d in V.dims]
    levels[2] = levels[2].scale(2)
    levels[3] = Matrix.diagonal(ZZ, 3, 3, [2, 4, 6])
    bad_map = fimodule.FIMorphism(V, V, tuple(levels))
    zero = fimodule.FIMorphism(V, bad_module,
                               tuple(Matrix.zeros(ZZ, d, d) for d in V.dims))
    W = complex_from_morphisms([bad_module, V, V], [zero, bad_map], q_min=1)
    # `fihom validate` prints these through ValidationError: keep them as they are
    assert validate_complex(W) == [
        "W_1: level 3: braid s_1 s_2 s_1 != s_2 s_1 s_2",
        "W_1: levels 2->3: s_1 iota != iota s_1",
        "del_3: naturality square fails at levels 1->2",
        "del_3: naturality square fails at levels 2->3",
        "del_3: level 3: map does not commute with s_1",
        "del_3: level 3: map does not commute with s_2",
    ]


def test_module_lookup_outside_support_is_zero():
    W = identity_complex()
    assert W.module(5).is_zero()
    assert W.diff_level(5, 2).is_zero()


# ---------------------------------------------------------------------------
# the shift cone


def shift_levels(V, top):
    """The cubes (A, B, phi, C) of the shift cone at n = 1..top."""
    return _shift_levels(V, top, shift_module(V))


def shift_cones(V, top):
    """Whether the cube of V at n + 1 is the cone at n, for n = 1..top."""
    return [_cone_holds(*cubes) for cubes in shift_levels(V, top)]


def test_shift_cone_constant_module():
    assert shift_cones(representable(0, 2, ZZ), 1) == [True]


def test_shift_cone_point_module():
    assert shift_cones(representable(1, 4, ZZ), 3) == [True] * 3


def test_shift_cone_zero_module():
    assert shift_cones(zero_module(2, QQ), 1) == [True]


def test_shift_cone_on_cokernels():
    for i in range(3):
        V = gen_coker("cone:%d" % i, ring=QQ, trunc=4).module
        assert shift_cones(V, 3) == [True] * 3


def test_shift_cone_truncation_guard():
    """The cone at n = N reads the cube at N + 1, which the data lacks."""
    with pytest.raises(ValueError, match="level 3 outside truncation 2"):
        list(shift_levels(representable(0, 2, ZZ), 2))


def test_three_term_exactness():
    for i in range(3):
        V = gen_coker("les:%d" % i, ring=QQ, trunc=4).module
        cubes = list(shift_levels(V, 2))[-1]
        for a in range(4):
            assert _three_term_exact(*cubes, a)
    # at the top level of M(1) the (n+1)-cube has every degree a = 0..4
    cubes = list(shift_levels(representable(1, 4, QQ), 3))[-1]
    assert all(_three_term_exact(*cubes, a) for a in range(5))


def test_the_shift_suite_builds_each_cube_and_shift_once(monkeypatch):
    """Over seeds 0..6, each module's cubes of V at levels 1..4 and of SV at
    1..3 are built once, on the one shift that the suite validates."""
    from fihom.verify import suite_shift

    counts = {"cube": 0, "shift": 0}
    real_cube, real_shift = homology.FIHComplexAt.__init__, fimodule.ShiftData

    def cube(self, *args):
        counts["cube"] += 1
        real_cube(self, *args)

    def shift(*args):
        counts["shift"] += 1
        return real_shift(*args)

    monkeypatch.setattr(homology.FIHComplexAt, "__init__", cube)
    monkeypatch.setattr(fimodule, "ShiftData", shift)
    reports = [suite_shift(seed=s) for s in range(7)]
    assert all(r.passed for r in reports)
    modules = sum(r.trials for r in reports)
    assert modules == 84
    assert counts["cube"] <= 7 * modules and counts["shift"] <= modules


def test_three_term_exactness_needs_rationals():
    with pytest.raises(ValueError, match="QuotientCoords works over Q"):
        _three_term_exact(*next(shift_levels(representable(0, 3, ZZ), 1)), 0)
