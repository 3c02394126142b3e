"""The level walks of `degrees` and `hyper_degrees` against the full build.

A walk level multiplies only the d^2 pairs through total degree q_max + 2
and writes each higher differential only when homology reads it.
old_degrees and old_hyper_degrees are the profiles with every level built
as a single level: every d^2 pair checked.
"""

from pathlib import Path

import pytest

from fihom import (
    FIModule,
    Matrix,
    QQ,
    ZZ,
    degrees,
    direct_sum,
    fih_chain_complex,
    hyper_degrees,
    hyper_total_complex,
    io,
    representable,
)
from fihom import homology
from fihom.complexes import FIComplex, complex_from_morphisms
from fihom.fimodule import FIMorphism, _Injections
from fihom.generate import gen_coker, gen_complex
from fihom.homology import DegreeProfile

from test_homology import doubling_module


def old_profile(complex_at, N, ks):
    """t_k for k in ks with every level's complex built whole."""
    values = dict.fromkeys(ks)
    for n in range(N + 1):
        cpx = complex_at(n)
        for k in ks:
            if not cpx.homology(k).is_zero():
                values[k] = n
    certified = {k: v is not None and v < N for k, v in values.items()}
    return DegreeProfile(N, values, certified)


def old_degrees(V, kmax):
    return old_profile(lambda n: fih_chain_complex(V, n), V.truncation,
                       range(kmax + 1))


def old_hyper_degrees(W, krange):
    k_lo, k_hi = krange
    return old_profile(lambda n: hyper_total_complex(W, n), W.truncation,
                       range(k_lo, k_hi + 1))


def restricted(prof, ks):
    """The profile of the degrees ks only: each t_k is read on its own."""
    return DegreeProfile(prof.truncation, {k: prof.values[k] for k in ks},
                         {k: prof.certified[k] for k in ks})


def outcome(run):
    """The profile run() returns, or the d^2 message it raises."""
    try:
        return run()
    except ArithmeticError as exc:
        return str(exc)


def representable_sums():
    for ring in (ZZ, QQ):
        for ms in ((0,), (1,), (2,), (1, 1, 0), (2, 1), (3,)):
            yield direct_sum(*[representable(m, 5, ring) for m in ms])


def coker_modules():
    for ring in (ZZ, QQ):
        for s in range(4):
            yield gen_coker("window:%d" % s, ring=ring, trunc=5).module


def window_modules():
    yield from representable_sums()
    yield from coker_modules()
    yield doubling_module(5)
    yield direct_sum(doubling_module(5), representable(1, 5, ZZ))


def test_degrees_match_the_full_build_for_every_kmax():
    rings = set()
    for V in window_modules():
        N = V.truncation
        full = old_degrees(V, N)
        for kmax in range(N + 1):
            assert degrees(V, kmax) == restricted(full, range(kmax + 1))
        rings.add(V.ring)
    assert rings == {ZZ, QQ}


HYPER_FILES = sorted((Path(__file__).parent.parent / "bench" / "data" / "hyper").glob("*.fic"))


def window_complexes():
    for ring in (ZZ, QQ):
        for s in range(3):
            yield gen_complex("window:%d" % s, ring=ring, trunc=4)
        for path in HYPER_FILES:
            yield io.parse_complex(path.read_text().replace("ring Z\n", "ring %s\n" % ring))


def test_hyper_degrees_match_the_full_build_for_every_range():
    seen = 0
    for W in window_complexes():
        k_lo, last = W.q_min - 1, W.q_max + W.truncation + 1
        full = old_hyper_degrees(W, (k_lo, last))
        for k_hi in range(k_lo, last + 1):
            ks = range(k_lo, k_hi + 1)
            assert hyper_degrees(W, (k_lo, k_hi)) == restricted(full, ks)
        assert hyper_degrees(W, (1, 1)) == restricted(full, (1,))
        seen += 1
    assert seen == 2 * (3 + len(HYPER_FILES)) and len(HYPER_FILES) == 4


# ---------------------------------------------------------------------------
# broken structure maps: the same d^2 error at the same level and degree


def with_transposition(V, n, i, s):
    """V with s_i at level n replaced by s."""
    trans = list(V.trans)
    mats = list(trans[n])
    mats[i - 1] = s
    trans[n] = tuple(mats)
    return FIModule(V.ring, V.truncation, V.dims, V.iota, tuple(trans))


def broken_modules():
    """representable(2, 6) with one transposition at level 2, 3 or 4 made
    the identity, and with one scaled by 2, over Z and Q."""
    for ring in (ZZ, QQ):
        V = representable(2, 6, ring)
        for n in (2, 3, 4):
            for i in range(1, n):
                s = V.transposition(n, i)
                yield with_transposition(V, n, i, Matrix.identity(ring, V.dims[n]))
                yield with_transposition(V, n, i, s.scale(2))


def test_a_broken_module_raises_like_the_full_build(monkeypatch):
    raised = bare = 0
    for B in broken_modules():
        N = B.truncation
        want = outcome(lambda: old_degrees(B, N))
        for kmax in range(N + 1):
            got = outcome(lambda: degrees(B, kmax))
            if isinstance(want, DegreeProfile):
                assert got == restricted(want, range(kmax + 1))
                continue
            assert got == want
            raised += 1
            # the walk with its d^2 check turned off misses the broken maps
            with monkeypatch.context() as patch:
                patch.setattr(homology, "_check_square_zero", lambda D, message: None)
                bare += outcome(lambda: degrees(B, kmax)) != want
    assert raised > 0 and bare > 0


def broken_complexes():
    """A gen_complex with one del level scaled by 2 (breaking naturality),
    or with one transposition of its middle module made the identity."""
    for ring in (ZZ, QQ):
        W = gen_complex("window-broken", ring=ring, trunc=4)
        for t in range(len(W.diffs)):
            for n in range(1, W.truncation + 1):
                d = W.diffs[t]
                if d.levels[n].is_zero():
                    continue
                levels = list(d.levels)
                levels[n] = levels[n].scale(2)
                diffs = list(W.diffs)
                diffs[t] = FIMorphism(d.source, d.target, tuple(levels))
                yield FIComplex(W.ring, W.truncation, W.q_min, W.modules, tuple(diffs))
        mid = W.modules[1]
        for n in (2, 3):
            B = with_transposition(mid, n, 1, Matrix.identity(ring, mid.dims[n]))
            below, above = W.diffs
            yield FIComplex(W.ring, W.truncation, W.q_min,
                            (W.modules[0], B, W.modules[2]),
                            (FIMorphism(B, below.target, below.levels),
                             FIMorphism(above.source, B, above.levels)))
        V = representable(2, 4, ring)
        yield complex_from_morphisms([with_transposition(
            V, 3, 2, Matrix.identity(ring, V.dims[3]))], [], q_min=1)


def test_a_broken_complex_raises_like_the_full_build():
    raised = 0
    for W in broken_complexes():
        k_lo, last = W.q_min - 1, W.q_max + W.truncation + 1
        want = outcome(lambda: old_hyper_degrees(W, (k_lo, last)))
        for k_hi in range(k_lo, last + 1):
            got = outcome(lambda: hyper_degrees(W, (k_lo, k_hi)))
            if isinstance(want, DegreeProfile):
                assert got == restricted(want, range(k_lo, k_hi + 1))
            else:
                assert got == want
                raised += 1
    assert raised > 0


# ---------------------------------------------------------------------------
# what a walk level writes, and what it reads


def test_degrees_with_kmax_1_builds_d1_and_d2_only(monkeypatch):
    V = representable(2, 6, QQ)
    built, written = [], [0]
    build, put = homology.fih_chain_complex, homology._put_block

    def tracked(*args):
        cpx = build(*args)
        built.append(cpx)
        return cpx

    def counted(rows, r0, c0, blk, negate=False):
        put(rows, r0, c0, blk, negate)
        written[0] += sum(len(r) for i, r in enumerate(blk.rows)
                          if rows[r0 + i] is not None)

    monkeypatch.setattr(homology, "fih_chain_complex", tracked)
    monkeypatch.setattr(homology, "_put_block", counted)
    degrees(V, 1)
    monkeypatch.undo()
    assert [c.level for c in built] == list(range(V.truncation + 1))
    want = 0
    for cpx in built:
        full = build(V, cpx.level)
        want += sum(d.nnz() for d in full.d[:2])
        assert cpx.d == full.d
        assert cpx.sizes == full.sizes
    assert written[0] == want


def walk_level_cube(V, n):
    return fih_chain_complex(V, n, _Injections(V))


def walk_level_total(W, n):
    return hyper_total_complex(W, n, tuple(map(_Injections, W.modules)))


def test_a_cube_walk_level_reads_like_the_full_build_in_low_degrees():
    V = representable(1, 5, ZZ)
    cpx = walk_level_cube(V, 5)
    full = fih_chain_complex(V, 5)
    for p in range(3):
        assert cpx.size(p) == full.size(p)
        assert cpx.boundary_out(p) == full.boundary_out(p)
    for p in range(2):
        assert cpx.boundary_in(p) == full.boundary_in(p)
        assert cpx.homology(p) == full.homology(p)
    assert cpx.differential(2) == full.differential(2)


def test_a_total_walk_level_reads_like_the_full_build_in_low_degrees():
    W = gen_complex("window:0", ring=ZZ, trunc=4)
    top = W.q_max + 2
    tot = walk_level_total(W, 4)
    full = hyper_total_complex(W, 4)
    assert tot.m_max == full.m_max == W.q_max + 4
    for m in range(W.q_min - 1, top):
        assert tot.homology(m) == full.homology(m)
        assert tot.boundary_in(m) == full.boundary_in(m)
    assert tot.boundary_out(top) == full.boundary_out(top)


def walk_cases(ring):
    """(kind, whole build, walk level, degrees, q_max): builders of both at
    every level of cube and total complexes over `ring`."""
    modules = [representable(2, 5, ring), gen_coker("walk-reads", ring=ring, trunc=5).module]
    if ring == ZZ:
        modules.append(doubling_module(5))
    for V in modules:
        for n in range(V.truncation + 1):
            yield ("cube", lambda V=V, n=n: fih_chain_complex(V, n),
                   lambda V=V, n=n: walk_level_cube(V, n), range(-1, n + 2), 0)
    for s in range(2):
        W = gen_complex("walk-reads:%d" % s, ring=ring, trunc=4)
        for n in range(W.truncation + 1):
            yield ("total", lambda W=W, n=n: hyper_total_complex(W, n),
                   lambda W=W, n=n: walk_level_total(W, n),
                   range(W.q_min - 1, W.q_max + n + 2), W.q_max)


def public_reads(kind, C, degs):
    """Every matrix a caller can read off C: d or D, each differential and
    each boundary, read in that order."""
    if kind == "cube":
        reads = list(C.d) + [C.differential(p) for p in range(1, C.level + 1)]
    else:
        reads = list(C.D.values())
    return reads + [C.boundary_in(m) for m in degs] + [C.boundary_out(m) for m in degs]


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_a_walk_level_reads_like_the_whole_build_in_every_degree(ring):
    above = 0
    for kind, whole, walk, degs, q_max in walk_cases(ring):
        # public reads before homology take the d^2 check's matrices;
        # after it, the eliminations have taken them
        for homology_first in (False, True):
            full, cpx = whole(), walk()
            if homology_first:
                assert [cpx.homology(m) for m in degs] == [full.homology(m) for m in degs]
            assert cpx.sizes == full.sizes
            assert public_reads(kind, cpx, degs) == public_reads(kind, full, degs)
            for m in degs:
                assert cpx.size(m) == full.size(m)
                assert cpx.homology(m) == full.homology(m)
        above += sum(cpx.size(m) > 0 for m in degs if m > q_max + 2)
    assert above > 0


@pytest.mark.parametrize("build", ["whole", "walk"])
def test_a_public_read_is_never_aliased(build):
    for ring in (ZZ, QQ):
        for kind, whole, walk, degs, _ in walk_cases(ring):
            C = (whole if build == "whole" else walk)()
            reads = public_reads(kind, C, degs)
            before = [[dict(r) for r in M.rows] for M in reads]
            for m in degs:
                C.homology(m)
            assert [[dict(r) for r in M.rows] for M in reads] == before
