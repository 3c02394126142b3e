"""The degree window of the cube builder against the full build.

`degrees(V, kmax)` builds each level only through degree max(kmax + 1, 2)
and `hyper_degrees(W, (k_lo, k_hi))` through max(k_hi + 1, q_max + 2).
old_degrees and old_hyper_degrees are the profiles as they stood before
the window: every level built whole, every d^2 pair checked.
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
from fihom.complexes import FIComplex, single_module_complex
from fihom.fimodule import FIMorphism
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


def test_a_broken_module_raises_like_the_full_build():
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
            # the window without d_2 misses relations the walk must check
            bare += outcome(lambda: homology._degree_profile(
                lambda n: fih_chain_complex(B, n, kmax + 1), N,
                range(kmax + 1))) != want
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
        yield single_module_complex(with_transposition(
            V, 3, 2, Matrix.identity(ring, V.dims[3])), q=1)


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
# what the window builds, and what it refuses to read


def test_degrees_with_kmax_1_builds_d1_and_d2_only(monkeypatch):
    V = representable(2, 6, QQ)
    built = []
    build = homology.fih_chain_complex

    def tracked(*args):
        cpx = build(*args)
        built.append(cpx)
        return cpx

    monkeypatch.setattr(homology, "fih_chain_complex", tracked)
    degrees(V, 1)
    assert [c.level for c in built] == list(range(V.truncation + 1))
    for cpx in built:
        n = cpx.level
        full = build(V, n)
        assert len(cpx.d) == min(n, 2)
        assert cpx.d == full.d[:2]
        assert cpx.sizes == full.sizes[:3]


def test_a_windowed_cube_refuses_reads_above_the_window():
    V = representable(1, 5, ZZ)
    cpx = fih_chain_complex(V, 5, 2)
    full = fih_chain_complex(V, 5)
    for p in range(3):
        assert cpx.size(p) == full.size(p)
        assert cpx.boundary_out(p) == full.boundary_out(p)
    for p in range(2):
        assert cpx.boundary_in(p) == full.boundary_in(p)
        assert cpx.homology(p) == full.homology(p)
    assert cpx.differential(2) == full.differential(2)
    for read in (lambda: cpx.size(3), lambda: cpx.differential(3),
                 lambda: cpx.boundary_out(3), lambda: cpx.boundary_in(2),
                 lambda: cpx.homology(2)):
        with pytest.raises(ValueError, match="above the window"):
            read()


def test_a_windowed_total_complex_refuses_reads_above_the_window():
    W = gen_complex("window:0", ring=ZZ, trunc=4)
    top = W.q_max + 2
    tot = hyper_total_complex(W, 4, top)
    full = hyper_total_complex(W, 4)
    assert tot.m_max == top and full.m_max == W.q_max + 4
    for m in range(W.q_min - 1, top):
        assert tot.homology(m) == full.homology(m)
        assert tot.boundary_in(m) == full.boundary_in(m)
    assert tot.boundary_out(top) == full.boundary_out(top)
    for read in (lambda: tot.size(top + 1), lambda: tot.boundary_out(top + 1),
                 lambda: tot.boundary_in(top), lambda: tot.homology(top)):
        with pytest.raises(ValueError, match="above the window"):
            read()
