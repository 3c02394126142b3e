"""End-to-end acceptance battery.

Ten checks covering the computational core (homology of frees, exact
boundaries, presentation cutoffs, SNF) and the bound calculus (spectral
degree bounds, piecewise estimates, cube partition arithmetic).  The
heavy randomized checks carry wall-clock budgets; everything else is
exact worked values.  Each test prints one PASS line (run with -s).
"""

import itertools
import random
import time

from fihom import (
    AbelianClass, DegreeSeq, CubeSpec, Matrix, QQ, ZZ,
    bahran_bounds, ce_propagate, chain_cube_min, chain_cube_spec,
    cohomology_bounds, colim_compare, conf_bounds, degrees, delta_estimate,
    det, fih_chain_complex, free_fi_module, gan_li_bounds, gen_coker,
    gen_complex, gen_free, hmax_estimate, hyper_degrees, hyper_total_complex,
    levelwise_homology_module, partition_min, partition_min_exhaustive,
    shift_module, snf,
)
from fihom.complexes import _cone_holds, _shift_levels
from fihom.generate import random_fbdata


def fb_degree(X):
    """Largest k with X.dims[k] > 0, or -1."""
    return max((k for k, d in enumerate(X.dims) if d), default=-1)


def budget(started, cap, label):
    elapsed = time.monotonic() - started
    assert elapsed < cap, "%s took %.1fs (budget %ds)" % (label, elapsed, cap)
    return elapsed


def test_criterion_01_free_modules_have_free_homology():
    # H_0 M(X)(n_) = X(n) as a group, H_p M(X) = 0 for p >= 1,
    # over both rings, truncations up to 6
    started = time.monotonic()
    rng = random.Random("acc:1")
    for i in range(100):
        ring = QQ if i % 2 else ZZ
        trunc = rng.randint(1, 6)
        X = random_fbdata(random.Random("acc:1:%d" % i), ring, trunc)
        V = free_fi_module(X)
        for n in range(trunc + 1):
            C = fih_chain_complex(V, n)
            assert C.homology(0) == AbelianClass(X.dims[n]), \
                "H_0 wrong at level %d of instance %d" % (n, i)
            for p in range(1, n + 1):
                assert C.homology(p) == AbelianClass(0), \
                    "H_%d nonzero at level %d of instance %d" % (p, n, i)
    elapsed = budget(started, 10, "free homology battery")
    print("criterion 01 PASS: 100 free modules, H_0 = generators, "
          "H_+ = 0 (%.1fs)" % elapsed)


def test_criterion_02_boundaries_square_to_zero():
    # exact matrix identities, no tolerance: d o d and D o D vanish
    for i in range(12):
        if i % 3 == 0:
            V, _ = gen_free("acc2:%d" % i, ring=ZZ, trunc=4)
        else:
            V = gen_coker("acc2:%d" % i, ring=QQ if i % 2 else ZZ,
                          trunc=4).module
        for n in range(V.truncation + 1):
            C = fih_chain_complex(V, n)
            for p in range(2, n + 1):
                assert (C.differential(p - 1) @ C.differential(p)).is_zero()
    for i in range(8):
        W = gen_complex("acc2c:%d" % i, ring=QQ, trunc=3)
        for n in range(W.truncation + 1):
            T = hyper_total_complex(W, n)
            for m in range(T.m_min + 1, T.m_max + 1):
                assert (T.boundary_out(m - 1) @ T.boundary_out(m)).is_zero()
    print("criterion 02 PASS: d^2 = 0 and D^2 = 0 exactly on 12 modules "
          "and 8 complexes")


def test_criterion_03_presentation_cutoff_recovers_module():
    # colim over subsets of size <= max(t0, t1) recovers every level,
    # and the cutoff is sharp whenever it is positive
    started = time.monotonic()
    sharp = 0
    for i in range(50):
        V = gen_coker("acc3:%d" % i, ring=QQ, trunc=4).module
        prof = degrees(V, 1)
        n0 = max(prof.bound_value(0), prof.bound_value(1), 0)
        for n in range(V.truncation + 1):
            _, iso = colim_compare(V, n, n0)
            assert iso, "instance %d not recovered at level %d" % (i, n)
        if n0 >= 1:
            assert any(not colim_compare(V, n, n0 - 1)[1]
                       for n in range(n0, V.truncation + 1)), \
                "instance %d already recovered below cutoff %d" % (i, n0)
            sharp += 1
    elapsed = budget(started, 30, "colimit recovery battery")
    print("criterion 03 PASS: 50 cokernels recovered at cutoff, "
          "%d sharp (%.1fs)" % (sharp, elapsed))


def test_criterion_04_spectral_degree_bounds_hold():
    # t0(H_k) <= 2 t_k + 1, t1(H_k) <= 2 max(t_k, t_{k+1}) + 2 on
    # complexes of frees, with hyperhomology degrees as input
    started = time.monotonic()
    checked = 0
    for i in range(100):
        W = gen_complex("acc4:%d" % i, ring=QQ, trunc=3 + i % 2)
        hyper = hyper_degrees(W, (0, W.q_max + 1))
        for k in range(W.q_min, W.q_max + 1):
            t = DegreeSeq({k: hyper.bound_value(k),
                           k + 1: hyper.bound_value(k + 1)})
            rep = gan_li_bounds(t, k)
            prof = degrees(levelwise_homology_module(W, k), 1)
            assert prof.bound_value(0) <= rep.t0_bound, \
                "t0(H_%d) breaks the bound on instance %d" % (k, i)
            assert prof.bound_value(1) <= rep.t1_bound, \
                "t1(H_%d) breaks the bound on instance %d" % (k, i)
            checked += 1
    elapsed = budget(started, 60, "spectral bound battery")
    print("criterion 04 PASS: %d homology degrees of 100 free complexes "
          "within bounds (%.1fs)" % (checked, elapsed))


def test_criterion_05_estimator_relations():
    # delta and h against computed degrees: delta <= t0 (over Q),
    # h = -1 iff nothing dies on frees, h <= t0 + max(t0, t1) - 1
    for i in range(100):
        sub = "acc5:%d" % i
        if i % 3 == 2:
            V, X = gen_free(sub, ring=QQ, trunc=5)
            d = delta_estimate(V)
            assert d.value == fb_degree(X) and d.certain
            assert hmax_estimate(V).value == -1
            continue
        inst = gen_coker(sub, ring=QQ if i % 2 else ZZ, trunc=5)
        V = inst.module
        prof = degrees(V, 1)
        t0, t1 = prof.bound_value(0), prof.bound_value(1)
        assert t0 <= fb_degree(inst.target_data)
        assert t1 <= max(inst.source_cards, default=-1)
        h = hmax_estimate(V).value
        if t0 == -1:
            assert h == -1
        else:
            assert h <= t0 + max(t0, t1) - 1
        if V.ring == QQ:
            assert delta_estimate(V).value <= t0
    print("criterion 05 PASS: delta/h estimators consistent with degrees "
          "on 100 instances")


def test_criterion_06_piecewise_bounds_dominate():
    # the three worked values of the piecewise (delta, h) table, then
    # domination over computed degrees via presentation propagation
    for (d, h), want in {(-1, 5): (5, 6), (3, 4): (6, 7),
                         (2, 4): (5, 6)}.items():
        rep = bahran_bounds(d, h)
        assert (rep.t0_bound, rep.t1_bound) == want
    assert bahran_bounds(3, -1).regime == "h = -1"
    for i in range(30):
        inst = gen_coker("acc6:%d" % i, ring=QQ, trunc=5)
        prof = degrees(inst.module, 1)
        dV, hV = ce_propagate("cokernel",
                              [(max(inst.source_cards), -1),
                               (fb_degree(inst.target_data), -1)])
        rep = bahran_bounds(dV, hV)
        assert prof.bound_value(0) <= rep.t0_bound
        assert prof.bound_value(1) <= rep.t1_bound
    print("criterion 06 PASS: piecewise table worked values exact, "
          "bounds dominate 30 computed degree pairs")


def test_criterion_07_shift_cone_identification():
    # the level-(n+1) cube complex is the cone on the shift comparison
    # at level n, for every n the truncation allows
    checked = 0
    for i in range(10):
        if i % 2:
            V = gen_coker("acc7:%d" % i, ring=QQ if i % 3 else ZZ,
                          trunc=5).module
        else:
            V, _ = gen_free("acc7:%d" % i, ring=ZZ if i % 3 else QQ, trunc=5)
        levels = _shift_levels(V, V.truncation - 1, shift_module(V))
        for n, cubes in enumerate(levels, 1):
            assert _cone_holds(*cubes), \
                "cone identification fails at n=%d on instance %d" % (n, i)
            checked += 1
    assert checked == 40
    print("criterion 07 PASS: cone identification on 10 modules, "
          "%d levels" % checked)


def test_criterion_08_partition_minimum_exact():
    # DP against brute-force over all set partitions, then the chain
    # cube closed form against the DP on its whole parameter range
    started = time.monotonic()
    rng = random.Random("acc:8")
    for _ in range(200):
        n = rng.randint(1, 8)
        k = {(): 0}
        for size in range(1, n + 1):
            for T in itertools.combinations(range(n), size):
                below = max(k[S] for S in itertools.combinations(T, size - 1))
                k[T] = below + rng.randint(0, 2)
        spec = CubeSpec(n, k_by_subset={T: v for T, v in k.items() if T})
        assert partition_min(spec) == partition_min_exhaustive(spec)
    pairs = 0
    for n in range(1, 9):
        for d in range(3, 8):
            for u in range(0, 4):
                if n >= 2 and u + 1 > d - 1:
                    continue
                want = partition_min(chain_cube_spec(n, d, u))
                assert chain_cube_min(n, d, u) == want, \
                    "closed form off at (n=%d, d=%d, u=%d)" % (n, d, u)
                pairs += 1
    elapsed = budget(started, 60, "partition battery")
    print("criterion 08 PASS: 200 random cubes DP = brute force, "
          "%d closed-form values (%.1fs)" % (pairs, elapsed))


def test_criterion_09_worked_bound_values():
    rep = cohomology_bounds(2, 3, 0)
    assert (rep.t0_bound, rep.t1_bound) == (5, 6) and "pairs" in rep.regime
    rep = cohomology_bounds(3, 5, 0)
    assert (rep.t0_bound, rep.t1_bound) == (7, 8) and "singletons" in rep.regime
    rep = conf_bounds(2, 3, variant="stated")
    assert (rep.t0_bound, rep.t1_bound) == (3, 4)
    rep = conf_bounds(2, 3, variant="body")
    assert (rep.t0_bound, rep.t1_bound) == (5, 6)
    assert conf_bounds(4, 5, variant="stated").t0_bound == 3
    print("criterion 09 PASS: configuration/cohomology worked values exact")


def test_criterion_10_smith_normal_form_contract():
    started = time.monotonic()
    rng = random.Random("acc:10")
    for _ in range(200):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        M = Matrix.from_rows(
            ZZ, [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)],
            ncols=nc)
        res = snf(M)
        assert res.U @ M @ res.V == res.S
        assert res.U @ res.U_inv == Matrix.identity(ZZ, nr)
        assert res.V @ res.V_inv == Matrix.identity(ZZ, nc)
        assert det(res.U) in (1, -1) and det(res.V) in (1, -1)
        for i in range(nr):
            for j in range(nc):
                if i != j:
                    assert res.S.entry(i, j) == 0
        prev = None
        for d in res.divisors():
            assert d >= 0
            if prev not in (None, 0):
                assert d % prev == 0
            prev = d
    elapsed = budget(started, 10, "SNF battery")
    print("criterion 10 PASS: 200 SNF factorizations verified "
          "(%.1fs)" % elapsed)
