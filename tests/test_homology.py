"""The cube chain complex, FI-homology groups, degrees, and estimators."""

import random

import pytest

from fihom import (
    AbelianClass,
    QQ,
    ZZ,
    constant_module,
    degrees,
    delta_estimate,
    fi_coker,
    fih_chain_complex,
    fih_group,
    filtration_layer,
    free_fi_module,
    free_morphism,
    hmax_estimate,
    representable,
    zero_module,
)
from fihom.fimodule import FBData
from fihom.generate import gen_coker, gen_free


def skyscraper(ring=QQ, trunc=3):
    """The cokernel of the augmentation M(1) -> M(0): rank 1 at level 0."""
    target = constant_module(trunc, ring)
    return fi_coker(free_morphism([1], target, [[1]]))


# ---------------------------------------------------------------------------
# the chain complex


def test_constant_module_cube_is_simplex_boundary():
    C = fih_chain_complex(constant_module(3, ZZ), 2)
    assert [C.size(p) for p in range(3)] == [1, 2, 1]
    assert C.differential(1).to_rows() == [[-1, 1]]
    assert C.differential(2).to_rows() == [[1], [1]]
    for p in range(3):
        assert C.homology(p).is_zero()


def test_constant_module_homology_all_levels():
    V = constant_module(4, ZZ)
    assert fih_group(V, 0, 0) == AbelianClass(1)
    for n in range(1, 5):
        for p in range(n + 1):
            assert fih_group(V, n, p).is_zero()


def test_point_module_at_level_one():
    C = fih_chain_complex(representable(1, 3, ZZ), 1)
    assert C.size(0) == 1 and C.size(1) == 0
    assert C.homology(0) == AbelianClass(1)


def test_level_zero_is_the_value_at_empty_set():
    assert fih_group(constant_module(2, ZZ), 0, 0) == AbelianClass(1)
    assert fih_group(representable(1, 2, ZZ), 0, 0).is_zero()


def test_degree_guard():
    V = constant_module(2, ZZ)
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
        degrees(constant_module(2, ZZ), 3)
    with pytest.raises(ValueError, match="negative"):
        degrees(constant_module(2, ZZ), -1)


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
    assert hmax_estimate(constant_module(3, ZZ)).value == -1


def test_delta_of_zero_module():
    est = delta_estimate(zero_module(3, QQ))
    assert est.value == -1
    assert est.certain


def test_delta_of_point_module():
    assert delta_estimate(representable(1, 4, QQ)).value == 1


def test_delta_of_constant_module():
    assert delta_estimate(constant_module(4, QQ)).value == 0


def test_delta_of_rank_two_free():
    assert delta_estimate(representable(2, 5, QQ)).value == 2


def test_delta_requires_rationals():
    with pytest.raises(ValueError):
        delta_estimate(constant_module(3, ZZ))


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


# ---------------------------------------------------------------------------
# cardinality filtration


def test_filtration_full_layer_of_free_module():
    X = FBData(ZZ, 3, (1, 0, 1, 0))
    V = free_fi_module(X)
    Fk, ok = filtration_layer(V, 2, free_data=X)
    assert ok
    assert Fk.dims == V.dims


def test_filtration_layer_zero_below_support():
    V = representable(1, 3, QQ)
    F0, ok = filtration_layer(V, 0)
    assert ok
    assert F0.is_zero()


def test_filtration_of_constant_module():
    V = constant_module(3, ZZ)
    for k in range(4):
        Fk, ok = filtration_layer(V, k)
        assert ok
        assert Fk.dims == V.dims


def test_filtration_partial_layer_of_free_module():
    X = FBData(QQ, 3, (0, 1, 1, 0))
    V = free_fi_module(X)
    F1, ok = filtration_layer(V, 1, free_data=X)
    assert ok
    # F_1 is free on the cardinality-<=1 part: dims n at level n
    assert F1.dims == (0, 1, 2, 3)


def test_filtration_guard():
    with pytest.raises(ValueError):
        filtration_layer(constant_module(2, ZZ), 3)
