"""Randomized verification battery.

Each suite draws deterministic instances from the generators, checks a
family of identities or inequalities against independently computed
sides, and reports counterexamples as serialized instances.  A fixed
(seed, trials) pair reproduces the report byte for byte.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .bounds import (
    NEG_INF, DegreeSeq, bahran_bounds, ce_propagate, chain_cube_min,
    chain_cube_spec, conf_bounds, cohomology_bounds, cube_cartesianity,
    going_down_bounds, going_up_bound, CubeSpec, partition_min,
    partition_min_exhaustive, strongly_cocartesian_spec,
)
from .complexes import (
    hyper_degrees, levelwise_homology_module, shift_cone_check,
    shift_three_term_exactness,
)
from .fimodule import (
    colim_compare, shift_module, validate, validate_morphism,
)
from .generate import gen_coker, gen_complex, gen_free
from .homology import degrees, delta_estimate, fih_chain_complex, hmax_estimate
from .io import serialize
from .linalg import AbelianClass, QQ, ZZ


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    trials: int
    checks: int
    failures: tuple = ()   # (label, serialized artifact or "") pairs
    stats: tuple = ()      # (key, value) pairs in a fixed order

    @property
    def passed(self):
        return not self.failures

    def render(self, fmt="plain"):
        if fmt == "kv":
            lines = ["suite=%s" % self.suite,
                     "seed=%d" % self.seed,
                     "trials=%d" % self.trials,
                     "checks=%d" % self.checks,
                     "failures=%d" % len(self.failures)]
            lines += ["stat_%s=%s" % kv for kv in self.stats]
            lines += ["failure_%d=%s" % (i, lb)
                      for i, (lb, _) in enumerate(self.failures)]
            lines.append("result=%s" % ("pass" if self.passed else "fail"))
            return "\n".join(lines)
        head = "suite %s: %s  (trials=%d, checks=%d, seed=%d)" % (
            self.suite, "PASS" if self.passed else "FAIL",
            self.trials, self.checks, self.seed)
        lines = [head]
        lines += ["  %s = %s" % kv for kv in self.stats]
        lines += ["  counterexample: %s" % lb for lb, _ in self.failures]
        return "\n".join(lines)


class _Run:
    """Check counter and failure collector for one suite execution."""

    def __init__(self):
        self.checks = 0
        self.failures = []
        self.stats = {}

    def check(self, ok, label, artifact=""):
        self.checks += 1
        if not ok:
            self.failures.append((label, artifact))
        return ok

    def stat_max(self, key, value):
        if key not in self.stats or value > self.stats[key]:
            self.stats[key] = value

    def stat_min(self, key, value):
        if key not in self.stats or value < self.stats[key]:
            self.stats[key] = value

    def stat_add(self, key, value=1):
        self.stats[key] = self.stats.get(key, 0) + value

    def report(self, suite, seed, trials):
        return SuiteReport(suite, seed, trials, self.checks,
                           tuple(self.failures),
                           tuple(sorted(self.stats.items())))


def _mixed_module(i, seed, trunc):
    """Alternate free / cokernel instances over alternating rings."""
    ring = ZZ if (i // 2) % 2 == 0 else QQ
    sub = "%d:%d" % (seed, i)
    if i % 2 == 0:
        V, _ = gen_free(sub, ring=ring, trunc=trunc)
        return V
    return gen_coker(sub, ring=ring, trunc=trunc).module


# ---------------------------------------------------------------------------
# suites


def suite_homology(trials=40, seed=0):
    """d^2 = 0, homology of frees, and the levelwise Euler characteristic."""
    run = _Run()
    for i in range(trials):
        ring = ZZ if (i // 2) % 2 == 0 else QQ
        sub = "%d:%d" % (seed, i)
        free = i % 2 == 0
        if free:
            V, X = gen_free(sub, ring=ring, trunc=4)
        else:
            V = gen_coker(sub, ring=ring, trunc=4).module
        art = serialize(V)
        for n in range(V.truncation + 1):
            try:
                cx = fih_chain_complex(V, n)
            except ArithmeticError as e:
                run.check(False, "d^2 != 0 (%s)" % e, art)
                continue
            run.check(True, "")
            euler_sizes = sum((-1) ** p * cx.size(p) for p in range(n + 1))
            hs = [cx.homology(p) for p in range(n + 1)]
            euler_ranks = sum((-1) ** p * h.rank for p, h in enumerate(hs))
            run.check(euler_sizes == euler_ranks,
                      "euler characteristic mismatch at level %d" % n, art)
            if free:
                run.check(hs[0] == AbelianClass(X.dims[n]),
                          "H_0 of a free module is not X at level %d" % n, art)
                run.check(all(h.is_zero() for h in hs[1:]),
                          "higher homology of a free module at level %d" % n, art)
            run.stat_add("groups", len(hs))
    return run.report("homology", seed, trials)


def suite_colim(trials=30, seed=0):
    """Truncation-window colimit recovery at cutoff N0 = max(t0, t1, 0)."""
    run = _Run()
    for i in range(trials):
        ring = ZZ if i % 2 == 0 else QQ
        V = gen_coker("%d:%d" % (seed, i), ring=ring, trunc=4).module
        art = serialize(V)
        prof = degrees(V, 1)
        n0 = max(prof.bound_value(0), prof.bound_value(1), 0)
        run.stat_max("largest_cutoff", n0)
        for n in range(V.truncation + 1):
            _, iso = colim_compare(V, n, n0)
            run.check(iso, "not recovered at level %d, cutoff %d" % (n, n0), art)
        if n0 >= 1:
            misses = [n for n in range(n0, V.truncation + 1)
                      if not colim_compare(V, n, n0 - 1)[1]]
            run.check(bool(misses), "cutoff %d - 1 already recovers" % n0, art)
    return run.report("colim", seed, trials)


def suite_shift(trials=12, seed=0):
    """Shift validity, the cone regrouping, and three-term exactness."""
    run = _Run()
    for i in range(trials):
        V = _mixed_module(i, seed, trunc=4)
        art = serialize(V)
        sd = shift_module(V)
        run.check(not validate(sd.module), "shift is not an FI-module", art)
        run.check(not validate_morphism(sd.natural),
                  "natural map is not a morphism", art)
        for n in range(1, min(3, V.truncation - 1) + 1):
            run.check(shift_cone_check(V, n),
                      "cube at %d is not the cone at %d" % (n + 1, n), art)
        if V.ring == QQ:
            n = min(3, V.truncation - 1)
            for a in range(n + 2):
                run.check(shift_three_term_exactness(V, n, a),
                          "three-term sequence not exact at H_%d, level %d" % (a, n),
                          art)
    return run.report("shift", seed, trials)


def suite_ganli(trials=15, seed=0):
    """Degree bounds for levelwise homology of a complex of free modules."""
    run = _Run()
    for i in range(trials):
        W = gen_complex("%d:%d" % (seed, i), ring=QQ, trunc=4)
        art = serialize(W)
        hyper = hyper_degrees(W, (0, W.q_max + 1))
        for k in range(W.q_min, W.q_max + 1):
            tk = hyper.bound_value(k)
            tk1 = hyper.bound_value(k + 1)
            prof = degrees(levelwise_homology_module(W, k), 1)
            b0 = 2 * tk + 1
            b1 = 2 * max(tk, tk1) + 2
            ok0 = run.check(prof.bound_value(0) <= b0,
                            "t0(H_%d) = %s exceeds %d" % (k, prof.value(0), b0), art)
            ok1 = run.check(prof.bound_value(1) <= b1,
                            "t1(H_%d) = %s exceeds %d" % (k, prof.value(1), b1), art)
            if ok0 and prof.value(0) is not None:
                run.stat_min("worst_t0_slack", b0 - prof.value(0))
            if ok1 and prof.value(1) is not None:
                run.stat_min("worst_t1_slack", b1 - prof.value(1))
    return run.report("ganli", seed, trials)


def suite_degrees(trials=30, seed=0):
    """Estimator calibration against computed degrees and presentations."""
    run = _Run()
    for i in range(trials):
        sub = "%d:%d" % (seed, i)
        if i % 3 == 2:  # free over Q: exact stable degree, no dying elements
            V, X = gen_free(sub, ring=QQ, trunc=5)
            art = serialize(V)
            d = delta_estimate(V)
            h = hmax_estimate(V)
            run.check(d.value == X.degree() and d.certain,
                      "stable degree of a free module misread", art)
            run.check(h.value == -1, "free module shows dying elements", art)
            continue
        ring = QQ if i % 2 == 0 else ZZ
        inst = gen_coker(sub, ring=ring, trunc=5)
        V = inst.module
        art = serialize(V)
        prof = degrees(V, 1)
        t0 = prof.bound_value(0)
        t1 = prof.bound_value(1)
        run.check(t0 <= inst.target_data.degree(),
                  "t0 exceeds the generator degree", art)
        run.check(t1 <= max(inst.source_cards, default=-1),
                  "t1 exceeds the relation degree", art)
        h = hmax_estimate(V)
        if t0 == -1:
            run.check(h.value == -1, "zero module shows dying elements", art)
        else:
            run.check(h.value <= t0 + max(t0, t1) - 1,
                      "h exceeds t0 + max(t0, t1) - 1", art)
        if V.ring == QQ:
            d = delta_estimate(V)
            run.check(d.value <= t0, "stable degree exceeds t0", art)
            # the window estimators can miss saturation defects (h) and
            # generation transients (delta), so feed the piecewise bounds
            # the presentation-propagated invariants instead: those dominate
            # the true (delta, h), and the bounds are monotone
            dV, hV = ce_propagate("cokernel",
                                  [(max(inst.source_cards), -1),
                                   (inst.target_data.degree(), -1)])
            rep = bahran_bounds(dV, hV)
            run.check(t0 <= rep.t0_bound and t1 <= rep.t1_bound,
                      "computed degrees break the piecewise bound", art)
            run.stat_max("largest_delta", d.value)
        run.stat_max("largest_h", h.value)
    return run.report("degrees", seed, trials)


def suite_bounds(trials=0, seed=0):
    """Closed-form bound calculus: monotonicity and variant dominance."""
    run = _Run()
    # piecewise (delta, h) bounds are monotone in each argument
    for delta in range(-1, 8):
        for h in range(-1, 8):
            rep = bahran_bounds(delta, h)
            if delta < 7:
                nxt = bahran_bounds(delta + 1, h)
                run.check(rep.t0_bound <= nxt.t0_bound
                          and rep.t1_bound <= nxt.t1_bound,
                          "not monotone in delta at (%d, %d)" % (delta, h))
            if h < 7:
                nxt = bahran_bounds(delta, h + 1)
                run.check(rep.t0_bound <= nxt.t0_bound
                          and rep.t1_bound <= nxt.t1_bound,
                          "not monotone in h at (%d, %d)" % (delta, h))
    # going-down, general: empty window degenerates to t_p / t_p + 1,
    # and pointwise larger degree data never shrinks the bounds
    for c in range(7):
        t = DegreeSeq({k: c for k in range(0, 40)})
        for p in range(1, 6):
            rep = going_down_bounds(t, p)
            if c == 0:
                run.check((rep.t0_bound, rep.t1_bound) == (0, 1),
                          "degenerate window at p=%d" % p)
            if c < 6:
                up = going_down_bounds(DegreeSeq({k: c + 1 for k in range(40)}), p)
                run.check(rep.t0_bound <= up.t0_bound
                          and rep.t1_bound <= up.t1_bound,
                          "general bound not monotone in t at (c=%d, p=%d)" % (c, p))
    # the closed-form variants are monotone in their own parameters
    for c in range(6):
        for p in range(1, 6):
            lo = going_down_bounds(None, p, variant="monotone", f=lambda q: c)
            hi = going_down_bounds(None, p, variant="monotone", f=lambda q: c + 1)
            run.check(lo.t0_bound <= hi.t0_bound and lo.t1_bound <= hi.t1_bound,
                      "monotone variant not monotone in f at (c=%d, p=%d)" % (c, p))
    for a in range(1, 4):
        for b in range(4):
            for p in range(1, 6):
                rep = going_down_bounds(None, p, variant="linear", a=a, b=b)
                up = going_down_bounds(None, p + 1, variant="linear", a=a, b=b)
                run.check(rep.t0_bound <= up.t0_bound
                          and rep.t1_bound <= up.t1_bound,
                          "linear variant not monotone in p at (a=%d, b=%d, p=%d)"
                          % (a, b, p))
    # going-up: empty window means no constraint at all
    run.check(going_up_bound({}, 0) is NEG_INF,
              "empty window should be -inf")
    # the two printed forms of the configuration-space bound
    for d in range(3, 7):
        for p in range(2, 9):
            stated = conf_bounds(p, d, variant="stated")
            body = conf_bounds(p, d, variant="body")
            run.check(stated.t0_bound <= body.t0_bound,
                      "stated form above body form at (p=%d, d=%d)" % (p, d))
            run.check(stated.t0_bound % 2 == 1 and body.t0_bound % 2 == 1,
                      "configuration bounds must be odd at (p=%d, d=%d)" % (p, d))
    for d in range(3, 7):
        for u in range(0, 3):
            prev = None
            for p in range(1, 9):
                rep = cohomology_bounds(p, d, u)
                run.check(rep.t1_bound == rep.t0_bound + 1,
                          "cohomology t1 != t0 + 1 at (p=%d, d=%d, u=%d)" % (p, d, u))
                if prev is not None:
                    run.check(prev <= rep.t0_bound,
                              "cohomology bound not monotone in p at (p=%d, d=%d, u=%d)"
                              % (p, d, u))
                prev = rep.t0_bound
    return run.report("bounds", seed, trials)


def suite_partitions(trials=40, seed=0):
    """Partition minimum DP against brute force, and its two closed forms."""
    run = _Run()
    rng = random.Random("partitions:%d" % seed)
    for i in range(trials):
        n = rng.randint(1, 5)
        k = {(): 0}
        for size in range(1, n + 1):
            for T in itertools.combinations(range(n), size):
                below = max(k[S] for S in itertools.combinations(T, size - 1))
                k[T] = below + rng.randint(0, 2)
        spec = CubeSpec(n, k_by_subset={T: v for T, v in k.items() if T})
        run.check(partition_min(spec) == partition_min_exhaustive(spec),
                  "DP disagrees with brute force on %s" % (sorted(k.items()),))
        conns = [rng.randint(0, 3) for _ in range(n)]
        sc = strongly_cocartesian_spec(n, conns)
        run.check(partition_min(sc) == sum(conns),
                  "strongly cocartesian minimum is not additive on %s" % (conns,))
        run.check(cube_cartesianity(sc, "to_cartesian") == 1 - n + sum(conns),
                  "cartesianity shift is wrong on %s" % (conns,))
    for n in range(1, 7):
        for d in range(3, 7):
            for u in range(0, 3):
                if n >= 2 and u + 1 > d - 1:
                    continue
                want = partition_min(chain_cube_spec(n, d, u))
                run.check(chain_cube_min(n, d, u) == want,
                          "closed form != DP at (n=%d, d=%d, u=%d)" % (n, d, u))
    return run.report("partitions", seed, trials)


SUITES = {
    "homology": suite_homology,
    "colim": suite_colim,
    "shift": suite_shift,
    "ganli": suite_ganli,
    "degrees": suite_degrees,
    "bounds": suite_bounds,
    "partitions": suite_partitions,
}


def run_suite(name, trials=None, seed=0) -> SuiteReport:
    if name not in SUITES:
        raise ValueError("unknown suite %r (choose from %s)"
                         % (name, ", ".join(sorted(SUITES))))
    fn = SUITES[name]
    if trials is None:
        return fn(seed=seed)
    return fn(trials=trials, seed=seed)


def run_all(trials=None, seed=0):
    return [run_suite(name, trials=trials, seed=seed) for name in SUITES]
