"""FI-chain complexes: total complex, hyperhomology, the shift cone."""

import pytest

from fihom import (
    AbelianClass,
    FIModule,
    FIMorphism,
    QQ,
    ZZ,
    complex_from_morphisms,
    constant_module,
    degrees,
    derivative_two_term,
    fih_group,
    free_morphism,
    gan_li_bounds,
    hyper_degrees,
    hyper_group,
    hyper_total_complex,
    levelwise_homology_module,
    representable,
    shift_cone_check,
    shift_three_term_exactness,
    single_module_complex,
    validate_complex,
    zero_module,
)
from fihom.generate import gen_coker, gen_complex, gen_free


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
        W = single_module_complex(V)
        for n in range(4):
            for m in range(n + 1):
                assert hyper_group(W, n, m) == fih_group(V, n, m)


def test_single_module_complex_regraded():
    V = gen_coker("regrade:0", ring=QQ, trunc=3).module
    W = single_module_complex(V, q=2)
    for n in range(4):
        for m in range(n + 3):
            expect = fih_group(V, n, m - 2) if 0 <= m - 2 <= n \
                else AbelianClass(0)
            assert hyper_group(W, n, m) == expect


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
    W = derivative_two_term(constant_module(4, ZZ))
    for n in range(4):
        T = hyper_total_complex(W, n)
        for m in range(T.m_min, T.m_max + 1):
            assert T.homology(m).is_zero()


def test_derivative_of_point_module_shifts_homology():
    # H(D M(1)) = S H(M(1)): the generator moves from cardinality 1 to 0
    W = derivative_two_term(representable(1, 4, ZZ))
    assert hyper_group(W, 0, 0) == AbelianClass(1)
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
    W = single_module_complex(representable(2, 4, ZZ))
    prof = hyper_degrees(W, (0, 2))
    assert prof.value(0) == 2
    assert prof.certified[0]
    assert prof.value(1) is None
    assert prof.value(2) is None


def test_hyper_degrees_of_acyclic_complex():
    prof = hyper_degrees(identity_complex(), (0, 2))
    assert all(prof.value(k) is None for k in range(3))


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


def test_module_lookup_outside_support_is_zero():
    W = identity_complex()
    assert W.module(5).is_zero()
    assert W.diff_level(5, 2).is_zero()


# ---------------------------------------------------------------------------
# the shift cone


def test_shift_cone_constant_module():
    assert shift_cone_check(constant_module(2, ZZ), 1)


def test_shift_cone_point_module():
    V = representable(1, 4, ZZ)
    for n in range(1, 4):
        assert shift_cone_check(V, n)


def test_shift_cone_zero_module():
    assert shift_cone_check(zero_module(2, QQ), 1)


def test_shift_cone_on_cokernels():
    for i in range(3):
        V = gen_coker("cone:%d" % i, ring=QQ, trunc=4).module
        for n in range(1, 4):
            assert shift_cone_check(V, n)


def test_shift_cone_truncation_guard():
    with pytest.raises(ValueError):
        shift_cone_check(constant_module(2, ZZ), 2)


def test_three_term_exactness():
    for i in range(3):
        V = gen_coker("les:%d" % i, ring=QQ, trunc=4).module
        for a in range(4):
            assert shift_three_term_exactness(V, 2, a)


def test_three_term_exactness_needs_rationals():
    with pytest.raises(ValueError):
        shift_three_term_exactness(constant_module(3, ZZ), 1, 0)
