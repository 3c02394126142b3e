"""The cube chain complex, FI-homology groups, degrees, and estimators."""

import gc
import random
from fractions import Fraction
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fihom import (
    AbelianClass,
    CompositionError,
    FIModule,
    Matrix,
    QQ,
    ZZ,
    degrees,
    delta_estimate,
    direct_sum,
    elementary_divisors,
    fi_coker,
    fih_chain_complex,
    fih_group,
    free_morphism,
    hmax_estimate,
    homology_class,
    hyper_degrees,
    hyper_total_complex,
    kernel_basis,
    rank,
    representable,
    zero_module,
)
from fihom import complexes, homology
from fihom.generate import gen_coker, gen_complex, gen_free


def skyscraper(ring=QQ, trunc=3):
    """The cokernel of the augmentation M(1) -> M(0): rank 1 at level 0."""
    target = representable(0, trunc, ring)
    return fi_coker(free_morphism([1], target, [[1]]))


# ---------------------------------------------------------------------------
# the chain complex


def test_constant_module_cube_is_simplex_boundary():
    C = fih_chain_complex(representable(0, 3, ZZ), 2)
    assert [C.size(p) for p in range(3)] == [1, 2, 1]
    assert C.differential(1).to_rows() == [[-1, 1]]
    assert C.differential(2).to_rows() == [[1], [1]]
    for p in range(3):
        assert C.homology(p).is_zero()


def test_constant_module_homology_all_levels():
    V = representable(0, 4, ZZ)
    assert fih_group(V, 0, 0) == AbelianClass(1)
    for n in range(1, 5):
        for p in range(n + 1):
            assert fih_group(V, n, p).is_zero()


def test_point_module_at_level_one():
    C = fih_chain_complex(representable(1, 3, ZZ), 1)
    assert C.size(0) == 1 and C.size(1) == 0
    assert C.homology(0) == AbelianClass(1)


def test_level_zero_is_the_value_at_empty_set():
    assert fih_group(representable(0, 2, ZZ), 0, 0) == AbelianClass(1)
    assert fih_group(representable(1, 2, ZZ), 0, 0).is_zero()


def test_degree_guard():
    V = representable(0, 2, ZZ)
    with pytest.raises(ValueError):
        fih_group(V, 1, 2)
    with pytest.raises(ValueError):
        fih_group(V, 1, -1)


def test_free_module_homology_is_its_generators():
    rng = random.Random("hfree:0")
    for ring in (ZZ, QQ):
        for i in range(3):
            V, X = gen_free("hfree:%s:%d" % (ring, i), ring=ring, trunc=4)
            for n in range(5):
                assert fih_group(V, n, 0) == AbelianClass(X.dims[n])
                for p in range(1, n + 1):
                    assert fih_group(V, n, p).is_zero()


def test_augmentation_cokernel_homology():
    V = skyscraper()
    assert fih_group(V, 0, 0) == AbelianClass(1)
    for n in range(1, 4):
        assert fih_group(V, n, 0).is_zero()


def test_zero_module_homology_vanishes():
    V = zero_module(3, QQ)
    for n in range(4):
        for p in range(n + 1):
            assert fih_group(V, n, p).is_zero()


def test_euler_characteristic_per_level():
    for i in range(4):
        V = gen_coker("euler:%d" % i, ring=QQ, trunc=4).module
        for n in range(5):
            C = fih_chain_complex(V, n)
            chi_c = sum((-1) ** p * C.size(p) for p in range(n + 1))
            chi_h = sum((-1) ** p * C.homology(p).rank for p in range(n + 1))
            assert chi_c == chi_h


# ---------------------------------------------------------------------------
# homology of the built complexes: cached invariants, no products


def old_homology_class(d_in, d_out):
    """ker(d_out)/im(d_in) by the formula `homology_class` used before it
    became the two-map case of `_ChainComplex`: the composition check, then
    rank(d_out) with rank(d_in) over Q, or with the elementary divisors of
    d_in over Z, each map eliminated whole by the public routines."""
    if not (d_out @ d_in).is_zero():
        raise CompositionError("d_out @ d_in != 0")
    if d_in.ring == QQ:
        return AbelianClass(d_out.ncols - rank(d_out) - rank(d_in))
    divs = elementary_divisors(d_in)
    return AbelianClass(d_out.ncols - rank(d_out) - len(divs),
                        tuple(d for d in divs if d > 1))


@st.composite
def complex_pairs(draw):
    """(d_in, d_out) over Z or Q: d_in's columns are integer combinations of
    a kernel basis of d_out (so Z torsion occurs), or, one draw in four,
    arbitrary, so that most of those pairs are no complex.  Over Q both maps
    are scaled, so that entries are Fractions."""
    ring = draw(st.sampled_from((ZZ, QQ)))
    a, b, c = draw(st.integers(0, 3)), draw(st.integers(0, 5)), draw(st.integers(0, 4))
    entries = st.integers(-3, 3)
    d_out = Matrix.from_rows(ZZ, draw(st.lists(st.lists(entries, min_size=b, max_size=b),
                                                min_size=a, max_size=a)), b)
    ker = kernel_basis(d_out)
    if draw(st.integers(0, 3)) and ker:
        K = Matrix.from_rows(ZZ, [list(r) for r in zip(*ker)], len(ker))
        mix = [[draw(st.integers(-4, 4)) for _ in range(c)] for _ in ker]
        d_in = K @ Matrix.from_rows(ZZ, mix, c)
    else:
        d_in = Matrix.from_rows(ZZ, draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                                                  min_size=b, max_size=b)), c)
    if ring == ZZ:
        return d_in, d_out
    # Fraction entries over Q
    return d_in.to_ring(QQ).scale(Fraction(draw(st.sampled_from((1, 2, 3))), 2)), \
        d_out.to_ring(QQ).scale(Fraction(1, draw(st.sampled_from((1, 3)))))


def outcome(f):
    try:
        return f()
    except CompositionError as e:
        return e.args


@given(complex_pairs())
@settings(max_examples=300, deadline=None)
def test_homology_class_matches_the_old_formula(pair):
    d_in, d_out = pair
    assert outcome(lambda: homology_class(d_in, d_out)) == \
        outcome(lambda: old_homology_class(d_in, d_out))


def doubling_module(trunc):
    """Z at every level with iota = 2: H_0 is Z/2 at every level n >= 1."""
    one = Matrix.identity(ZZ, 1)
    return FIModule(ZZ, trunc, (1,) * (trunc + 1),
                    (Matrix.from_rows(ZZ, [[2]]),) * trunc,
                    tuple((one,) * max(0, n - 1) for n in range(trunc + 1)))


def built_complexes():
    """(build, degrees) pairs: cube complexes of gen_coker modules and total
    complexes of gen_complex complexes, over Z and Q; build() returns a
    fresh object, so each sweep starts with an empty cache."""
    out = []
    for s in range(2):
        for ring in (ZZ, QQ):
            V = gen_coker("cache:%d" % s, ring=ring, trunc=4).module
            if V.ring == ZZ:
                V = direct_sum(V, doubling_module(4))
            for n in range(V.truncation + 1):
                out.append((lambda V=V, n=n: fih_chain_complex(V, n),
                            range(-1, n + 2)))
            W = gen_complex("cache:%d" % s, ring=ring, trunc=3)
            for n in range(W.truncation + 1):
                out.append((lambda W=W, n=n: hyper_total_complex(W, n),
                            range(W.q_min - 1, W.q_max + n + 2)))
    return out


def in_order(degs, order):
    degs = list(degs)
    if order == "descending":
        degs.reverse()
    elif order == "shuffled":
        random.Random(len(degs)).shuffle(degs)
    return degs


ORDERS = ("ascending", "descending", "shuffled")


@pytest.mark.parametrize("order", ORDERS)
def test_homology_matches_homology_class(order):
    torsion = {ZZ: 0, QQ: 0}
    for build, degs in built_complexes():
        C = build()
        got = {m: C.homology(m) for m in in_order(degs, order)}
        for m in degs:
            want = old_homology_class(C.boundary_in(m), C.boundary_out(m))
            assert got[m] == want
            torsion[C.boundary_in(m).ring] += len(want.torsion)
    assert torsion[ZZ] > 0 and torsion[QQ] == 0


def test_homology_sweep_multiplies_no_matrices(monkeypatch):
    built = [(build(), degs) for build, degs in built_complexes()]

    def refuse(self, other):
        raise AssertionError("matrix product after construction")

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    for C, degs in built:
        for m in degs:
            C.homology(m)


@pytest.mark.parametrize("order", ORDERS)
def test_homology_sweep_eliminates_each_differential_once(monkeypatch, order):
    # (kind, m, rows handed, pivots returned) for every elimination of D_m
    calls = []
    invariant = homology._ChainComplex._invariant

    def spy(self, m):
        eliminate = self._eliminate

        def counted(rows):
            handed = len(rows)
            out = eliminate(rows)
            calls.append((eliminate.__name__, m, handed, out[1]))
            return out

        self._eliminate = counted
        try:
            return invariant(self, m)
        finally:
            self._eliminate = eliminate

    monkeypatch.setattr(homology._ChainComplex, "_invariant", spy)
    dropped = 0
    for build, degs in built_complexes():
        C = build()
        del calls[:]
        for m in in_order(degs, order):
            C.homology(m)
        # one elimination per map, fixed by the ring
        differentials = [m for _, m, _, _ in calls]
        assert len(differentials) == len(set(differentials))
        assert {kind for kind, _, _, _ in calls} <= {
            "_rank_of" if C._ring == QQ else "_divisors_of"}
        # each D_m is handed the nonzero rows that the pivots of D_{m-1}
        # leave when D_{m-1} was eliminated before it
        pivots = {}
        for _, m, handed, piv in calls:
            rows = [i for i, r in enumerate(C.boundary_out(m).rows) if r]
            assert handed == len(set(rows) - pivots.get(m - 1, set()))
            pivots[m] = set(piv)
            dropped += len(rows) - handed
    if order == "ascending":
        assert dropped > 0


def rank_mod_p(M, p):
    """Rank over F_p of an integer matrix, by sparse Gauss elimination."""
    rows = [{j: v % p for j, v in r.items() if v % p} for r in M.rows]
    rows = [r for r in rows if r]
    rk = 0
    while rows:
        r = rows.pop()
        j, v = next(iter(r.items()))
        inv = pow(v, -1, p)
        nxt = []
        for s in rows:
            c = s.get(j, 0) * inv % p
            for k, w in r.items() if c else ():
                x = (s.get(k, 0) - c * w) % p
                if x:
                    s[k] = x
                else:
                    s.pop(k, None)
            if s:
                nxt.append(s)
        rows = nxt
        rk += 1
    return rk


def z_complexes_with_torsion():
    """(complex, degrees): cube complexes of Z gen_coker modules summed with
    the doubling module, and total complexes of Z gen_complex complexes."""
    out = []
    for s in range(4):
        V = gen_coker("uct:%d" % s, ring=ZZ, trunc=4).module
        if V.ring == ZZ:  # not downgraded to Q
            V = direct_sum(V, doubling_module(4))
            for n in range(V.truncation + 1):
                out.append((fih_chain_complex(V, n), range(-1, n + 2)))
        W = gen_complex("uct:%d" % s, ring=ZZ, trunc=3)
        for n in range(W.truncation + 1):
            out.append((hyper_total_complex(W, n), range(W.q_min - 1, W.q_max + n + 2)))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_universal_coefficients_mod_p(p):
    """dim H_k(C (x) F_p) = rank H_k + #p-torsion(H_k) + #p-torsion(H_{k-1})."""
    seen = 0
    for C, degs in z_complexes_with_torsion():
        for k in degs:
            lhs = (C.size(k) - rank_mod_p(C.boundary_out(k), p)
                   - rank_mod_p(C.boundary_in(k), p))
            h, below = C.homology(k), C.homology(k - 1)
            tors = sum(1 for t in h.torsion + below.torsion if t % p == 0)
            assert lhs == h.rank + tors, (p, k)
            seen += tors
    if p in (2, 3):
        assert seen > 0


# ---------------------------------------------------------------------------
# degree profiles


def test_degrees_of_representables():
    for m in range(3):
        V = representable(m, 4, ZZ)
        prof = degrees(V, 1)
        assert prof.value(0) == m
        assert prof.certified[0]
        assert prof.value(1) is None


def test_degrees_render():
    prof = degrees(representable(2, 4, ZZ), 1)
    assert str(prof) == "t_0=2 t_1=none?"


def test_degrees_of_zero_module():
    prof = degrees(zero_module(3, QQ), 2)
    assert all(prof.value(k) is None for k in range(3))


def test_degrees_kmax_guard():
    with pytest.raises(ValueError):
        degrees(representable(0, 2, ZZ), 3)
    with pytest.raises(ValueError, match="negative"):
        degrees(representable(0, 2, ZZ), -1)


def _alive_at_each_build(monkeypatch, module, builder, run):
    """For each call of module.builder made by run(): how many complexes
    built earlier are still alive (after gc.collect()) when it starts."""
    build = getattr(module, builder)
    refs, alive = [], []

    def tracked(*args):
        gc.collect()
        alive.append(sum(r() is not None for r in refs))
        cpx = build(*args)
        refs.append(weakref.ref(cpx))
        return cpx

    monkeypatch.setattr(module, builder, tracked)
    run()
    return alive


def test_degree_profiles_hold_one_level_at_a_time(monkeypatch):
    """degrees and hyper_degrees drop each level's complex once it is read."""
    V = representable(2, 6, QQ)
    alive = _alive_at_each_build(monkeypatch, homology, "fih_chain_complex",
                                 lambda: degrees(V, 3))
    assert alive == [0] * 7
    W = gen_complex("walk", QQ, trunc=4)
    alive = _alive_at_each_build(monkeypatch, complexes, "hyper_total_complex",
                                 lambda: hyper_degrees(W, (0, W.q_max + 1)))
    assert alive == [0] * 5


def test_bound_value_defaults():
    prof = degrees(zero_module(2, QQ), 1)
    assert prof.bound_value(0) == -1
    assert prof.bound_value(1, default=-7) == -7


def test_presentation_bounds_on_cokernels():
    # generators live below the target's degree, relations below the
    # largest source cardinality
    for i in range(5):
        inst = gen_coker("present:%d" % i, ring=QQ, trunc=5)
        prof = degrees(inst.module, 1)
        gen_deg = max((k for k, d in enumerate(inst.target_data.dims) if d),
                      default=-1)
        rel_deg = max(inst.source_cards, default=-1)
        assert prof.bound_value(0) <= gen_deg
        assert prof.bound_value(1) <= max(rel_deg, gen_deg)


# ---------------------------------------------------------------------------
# estimators


def test_hmax_of_free_modules_is_minus_one():
    rng = random.Random("hm:0")
    for i in range(4):
        V, _ = gen_free("hm:%d" % i, trunc=4)
        est = hmax_estimate(V)
        assert est.value == -1
        assert not est.certain


def test_hmax_of_skyscraper():
    assert hmax_estimate(skyscraper()).value == 0


def test_hmax_of_constant_module():
    assert hmax_estimate(representable(0, 3, ZZ)).value == -1


def test_delta_of_zero_module():
    est = delta_estimate(zero_module(3, QQ))
    assert est.value == -1
    assert est.certain


def test_delta_of_point_module():
    assert delta_estimate(representable(1, 4, QQ)).value == 1


def test_delta_of_constant_module():
    assert delta_estimate(representable(0, 4, QQ)).value == 0


def test_delta_of_rank_two_free():
    assert delta_estimate(representable(2, 5, QQ)).value == 2


def test_delta_requires_rationals():
    with pytest.raises(ValueError):
        delta_estimate(representable(0, 3, ZZ))


def test_estimator_relations_on_random_instances():
    # delta <= t_0 and h <= t_0 + max(t_0, t_1) - 1 on presented modules
    for i in range(6):
        inst = gen_coker("rel:%d" % i, ring=QQ, trunc=5)
        prof = degrees(inst.module, 1)
        t0 = prof.bound_value(0)
        t1 = prof.bound_value(1)
        assert delta_estimate(inst.module).value <= t0
        h = hmax_estimate(inst.module).value
        if t0 == -1:
            assert h == -1
        else:
            assert h <= t0 + max(t0, t1) - 1
