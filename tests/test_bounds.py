"""Closed-form degree bounds and the set-partition minimization."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fihom import (
    CubeSpec,
    DegreeSeq,
    NEG_INF,
    POS_INF,
    bahran_bounds,
    ce_propagate,
    chain_cube_min,
    chain_cube_spec,
    cohomology_bounds,
    conf_bounds,
    cube_cartesianity,
    gan_li_bounds,
    going_down_bounds,
    going_up_bound,
    is_finite,
    partition_min,
    partition_min_exhaustive,
    set_partitions,
    strongly_cocartesian_spec,
)


# ---------------------------------------------------------------------------
# degree sequences and sentinels


def test_degree_seq_guards():
    t = DegreeSeq({0: 3, 1: -1})
    assert t[0] == 3
    with pytest.raises(KeyError, match="outside the declared support"):
        t[2]
    with pytest.raises(ValueError):
        DegreeSeq({0: -2})
    with pytest.raises(ValueError, match="use -1"):
        DegreeSeq({0: NEG_INF})


def test_sentinel_ordering():
    assert NEG_INF < -10 ** 9 < POS_INF
    assert not is_finite(NEG_INF)
    assert not is_finite(POS_INF)
    assert is_finite(-1)
    assert max([NEG_INF, 3, -1]) == 3


# ---------------------------------------------------------------------------
# Gan-Li


def test_gan_li_worked_values():
    rep = gan_li_bounds(DegreeSeq({0: 3, 1: 3}), 0)
    assert (rep.t0_bound, rep.t1_bound) == (7, 8)
    rep = gan_li_bounds(DegreeSeq({0: -1, 1: -1}), 0)
    assert (rep.t0_bound, rep.t1_bound) == (-1, 0)
    rep = gan_li_bounds(DegreeSeq({2: 2, 3: 5}), 2)
    assert (rep.t0_bound, rep.t1_bound) == (5, 12)


def test_gan_li_rejects_infinite():
    with pytest.raises(ValueError, match="finite"):
        gan_li_bounds(DegreeSeq({0: POS_INF, 1: 2}), 0)


# ---------------------------------------------------------------------------
# piecewise bounds from (delta, h)


def test_bahran_worked_values():
    for q in range(-1, 5):
        rep = bahran_bounds(q, -1)
        assert (rep.t0_bound, rep.t1_bound) == (q, -1)
        assert rep.regime == "h = -1"
    rep = bahran_bounds(-1, 5)
    assert (rep.t0_bound, rep.t1_bound) == (5, 6)
    rep = bahran_bounds(3, 4)  # delta > ceil(h/2) = 2
    assert (rep.t0_bound, rep.t1_bound) == (6, 7)
    assert rep.regime == "delta > ceil(h/2)"


def test_bahran_middle_branch():
    rep = bahran_bounds(2, 4)  # delta <= ceil(h/2)
    assert (rep.t0_bound, rep.t1_bound) == (5, 6)


def test_bahran_domain_guard():
    with pytest.raises(ValueError):
        bahran_bounds(-2, 0)
    with pytest.raises(ValueError):
        bahran_bounds(0, -3)


@given(st.integers(-1, 8), st.integers(-1, 8))
def test_bahran_monotone_in_each_argument(d, h):
    rep = bahran_bounds(d, h)
    up_d = bahran_bounds(d + 1, h)
    up_h = bahran_bounds(d, h + 1)
    assert up_d.t0_bound >= rep.t0_bound and up_d.t1_bound >= rep.t1_bound
    assert up_h.t0_bound >= rep.t0_bound and up_h.t1_bound >= rep.t1_bound


def test_ce_propagate_worked_values():
    assert ce_propagate("kernel", [(2, 1), (3, 0)]) == (2, 2)
    assert ce_propagate("middle_homology",
                        [(1, -1), (2, -1), (0, -1)]) == (2, 2)
    # zero source: the cokernel inherits B's invariants
    for hb in range(-1, 4):
        assert ce_propagate("cokernel", [(-1, -1), (3, hb)]) == (3, hb)


def test_ce_propagate_guards():
    with pytest.raises(ValueError, match="kernel takes"):
        ce_propagate("kernel", [(1, 1)])
    with pytest.raises(ValueError, match="middle_homology takes"):
        ce_propagate("middle_homology", [(1, 1), (2, 2)])
    with pytest.raises(ValueError):
        ce_propagate("image", [(1, 1), (2, 2)])
    with pytest.raises(ValueError):
        ce_propagate("kernel", [(-3, 0), (0, 0)])


# ---------------------------------------------------------------------------
# going down / up


def test_going_down_general_constant_two():
    t = DegreeSeq({k: 2 for k in range(6)})
    rep = going_down_bounds(t, 0)
    assert rep.t0_bound == 4
    assert rep.t1_bound == 3  # t1 window is one shorter: empty here


def test_going_down_monotone_tighter_than_general_here():
    rep = going_down_bounds(None, 0, variant="monotone", f=lambda k: 2)
    assert (rep.t0_bound, rep.t1_bound) == (3, 4)
    assert rep.t0_bound <= 4


def test_going_down_linear():
    rep = going_down_bounds(None, 3, variant="linear", a=1, b=0)
    assert (rep.t0_bound, rep.t1_bound) == (5, 6)


def test_going_down_monotone_clamp():
    rep = going_down_bounds(None, 5, variant="monotone", f=lambda k: 0)
    assert (rep.t0_bound, rep.t1_bound) == (0, 1)


def test_going_down_degenerate_window():
    # t_p = t_{p+1} = 0: empty windows, clamped at the free level -1
    t = DegreeSeq({0: 0, 1: 0})
    rep = going_down_bounds(t, 0)
    assert (rep.t0_bound, rep.t1_bound) == (0, 1)


def test_going_down_window_past_support():
    t = DegreeSeq({0: 3, 1: 5})
    with pytest.raises(KeyError, match="outside the declared support"):
        going_down_bounds(t, 0)


def test_going_down_variant_guards():
    with pytest.raises(ValueError):
        going_down_bounds(None, 0, variant="monotone")
    with pytest.raises(ValueError):
        going_down_bounds(None, 0, variant="linear", a=0, b=1)
    with pytest.raises(ValueError):
        going_down_bounds(None, 0, variant="median")


def test_going_up_values():
    assert going_up_bound({(0, 0): 4, (1, 0): 6}, 0) == 4
    assert going_up_bound({(0, 0): 4, (1, 0): 6}, 1) == 6
    assert going_up_bound({(2, 0): 5, (2, 1): 3, (2, 2): 7}, 2) == 7
    assert going_up_bound({}, 0) is NEG_INF
    assert going_up_bound({(1, 0): 5}, 0) is NEG_INF


# ---------------------------------------------------------------------------
# cube cartesianity


def test_strongly_cocartesian_cube():
    spec = strongly_cocartesian_spec(3, [2, 2, 2])
    assert partition_min(spec) == 6
    assert cube_cartesianity(spec, "to_cartesian") == 4


def test_two_cube_partition_enumeration():
    spec = CubeSpec(2, k_by_subset={
        frozenset({0}): 1, frozenset({1}): 1, frozenset({0, 1}): 3})
    assert partition_min(spec) == 2  # {0}{1} beats {01}
    assert cube_cartesianity(spec, "to_cartesian") == 1


def test_one_cube_is_its_single_weight():
    spec = CubeSpec(1, k_by_size={1: 5})
    assert cube_cartesianity(spec, "to_cartesian") == 5
    assert cube_cartesianity(spec, "to_cocartesian") == 5


def test_cube_spec_guards():
    with pytest.raises(ValueError, match="monotonicity"):
        CubeSpec(2, k_by_size={1: 3, 2: 1})
    with pytest.raises(ValueError, match="missing weight"):
        CubeSpec(2, k_by_size={1: 1})
    with pytest.raises(ValueError):
        CubeSpec(2, k_by_subset={frozenset({0}): 1})
    with pytest.raises(ValueError):
        CubeSpec(0, k_by_size={})
    with pytest.raises(ValueError):
        CubeSpec(2)
    with pytest.raises(ValueError):
        strongly_cocartesian_spec(2, [1])


def test_cube_spec_refuses_a_size_outside_the_cube():
    with pytest.raises(ValueError, match="size 5 must lie in 1..2"):
        CubeSpec(2, k_by_size={1: 1, 2: 3, 5: 0})
    with pytest.raises(ValueError, match="size 0 must lie in 1..2"):
        CubeSpec(2, k_by_size={0: 0, 1: 1, 2: 3})


def test_cube_spec_refuses_a_subset_with_a_repeated_index():
    with pytest.raises(ValueError, match="repeats an element"):
        CubeSpec(2, k_by_subset={(0,): 2, (1,): 2, (0, 1): 3, (0, 0): 0})


def test_cube_spec_refuses_the_empty_subset():
    with pytest.raises(ValueError, match="is empty"):
        CubeSpec(2, k_by_subset={(): 0, (0,): 2, (1,): 2, (0, 1): 3})


def test_cube_spec_refuses_two_keys_for_one_set():
    with pytest.raises(ValueError, match="subset \\(1, 0\\) .* given before"):
        CubeSpec(2, k_by_subset={(0,): 2, (1,): 2, (0, 1): 3, (1, 0): 4})


def test_direction_guard():
    spec = CubeSpec(1, k_by_size={1: 0})
    with pytest.raises(ValueError):
        cube_cartesianity(spec, "sideways")


def test_partition_dp_size_guard():
    spec = CubeSpec(1, k_by_size={1: 0})
    spec.n = 17  # simulate an oversized cube on the cheap
    with pytest.raises(ValueError, match="n <= 16"):
        partition_min(spec)


def test_set_partition_counts_are_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52]
    for n, b in enumerate(bell):
        assert len(list(set_partitions(range(n)))) == b


@st.composite
def monotone_specs(draw):
    n = draw(st.integers(1, 5))
    k = {}
    for mask in range(1, 1 << n):
        T = frozenset(i for i in range(n) if mask >> i & 1)
        floor_v = max((k[T - {x}] for x in T if len(T) > 1), default=0)
        k[T] = floor_v + draw(st.integers(0, 2))
    return CubeSpec(n, k_by_subset=k)


@given(monotone_specs())
@settings(max_examples=60)
def test_partition_dp_matches_exhaustive(spec):
    assert partition_min(spec) == partition_min_exhaustive(spec)


def test_strongly_cocartesian_minimum_is_additive():
    rng = random.Random("sc:0")
    for _ in range(20):
        n = rng.randint(1, 6)
        conns = [rng.randint(0, 3) for _ in range(n)]
        spec = strongly_cocartesian_spec(n, conns)
        assert partition_min(spec) == sum(conns)
        assert cube_cartesianity(spec, "to_cartesian") == 1 - n + sum(conns)


# ---------------------------------------------------------------------------
# configuration-space pipeline


def test_conf_worked_values():
    rep = conf_bounds(2, 3, "stated")
    assert (rep.t0_bound, rep.t1_bound) == (3, 4)
    rep = conf_bounds(2, 3, "body")
    assert (rep.t0_bound, rep.t1_bound) == (5, 6)
    rep = conf_bounds(4, 5, "stated")
    assert rep.t0_bound == 3


def test_conf_reports_cube_cartesianity():
    rep = conf_bounds(2, 3, "stated", n=4)
    assert rep.cartesianity == (4 - 1) * (3 - 2) + 1


def test_conf_guards():
    with pytest.raises(ValueError):
        conf_bounds(2, 2)
    with pytest.raises(ValueError):
        conf_bounds(1, 3)
    with pytest.raises(ValueError):
        conf_bounds(2, 3, "headline")
    for n in (0, -4):
        with pytest.raises(ValueError, match="n >= 1"):
            conf_bounds(2, 3, "stated", n=n)


# ---------------------------------------------------------------------------
# cohomology pipeline


def test_cohomology_worked_values():
    rep = cohomology_bounds(2, 3, 0)
    assert (rep.t0_bound, rep.t1_bound) == (5, 6)
    assert rep.regime.startswith("pairs")
    rep = cohomology_bounds(3, 5, 0)
    assert (rep.t0_bound, rep.t1_bound) == (7, 8)
    assert rep.regime.startswith("singletons")
    rep = cohomology_bounds(0, 3, 0)
    assert (rep.t0_bound, rep.t1_bound) == (1, 2)


def test_cohomology_chain_cube_two():
    spec = chain_cube_spec(2, 3, 0)
    assert partition_min(spec) == 2
    assert cube_cartesianity(spec, "to_cocartesian") == 3
    rep = cohomology_bounds(1, 3, 0)  # its cube is the n = p + 1 = 2 cube
    assert rep.partition_min == 2
    assert rep.cocartesianity == 3


def test_cohomology_guards():
    with pytest.raises(ValueError):
        cohomology_bounds(2, 2, 0)
    with pytest.raises(ValueError):
        cohomology_bounds(-1, 3, 0)
    with pytest.raises(ValueError):
        cohomology_bounds(2, 3, -1)


def test_chain_cube_guard_on_large_u():
    with pytest.raises(ValueError, match="u too large"):
        chain_cube_spec(2, 3, 2)


def test_chain_cube_closed_form_matches_dp():
    for n in range(1, 7):
        for d in range(3, 7):
            for u in range(0, 3):
                if n >= 2 and u + 1 > d - 1:
                    continue
                spec = chain_cube_spec(n, d, u)
                assert chain_cube_min(n, d, u) == partition_min(spec)


def test_cohomology_t1_is_t0_plus_one_and_monotone_in_p():
    for d in range(3, 7):
        for u in range(0, 3):
            prev = None
            for p in range(0, 8):
                rep = cohomology_bounds(p, d, u)
                assert rep.t1_bound == rep.t0_bound + 1
                if prev is not None:
                    assert rep.t0_bound >= prev
                prev = rep.t0_bound
