"""Closed-form degree bounds and cube (co)cartesianity arithmetic.

Everything here is exact integer arithmetic on degree invariants; no
module data is touched.  Conventions: degrees live in {-1, 0, 1, ...},
-1 meaning the zero module; +/- infinity are explicit sentinels, never
encoded as large integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional


class _Infinity:
    """Totally ordered sentinel; NEG_INF < every int < POS_INF."""

    __slots__ = ("sign",)

    def __init__(self, sign):
        self.sign = sign

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"

    def __lt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign < other.sign
        return self.sign < 0

    def __gt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign > other.sign
        return self.sign > 0

    def __le__(self, other):
        return self < other or self is other

    def __ge__(self, other):
        return self > other or self is other

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash(("infinity", self.sign))


POS_INF = _Infinity(1)
NEG_INF = _Infinity(-1)


def is_finite(x):
    return not isinstance(x, _Infinity)


@dataclass(frozen=True)
class DegreeSeq:
    """Map k -> t_k with explicitly declared finite support.

    Lookups outside the declared support raise, so a bound window that
    silently runs past the data is impossible.
    """

    entries: dict

    def __post_init__(self):
        for k, v in self.entries.items():
            if is_finite(v) and v < -1:
                raise ValueError("degree %r below -1 at k=%d" % (v, k))
            if v is NEG_INF:
                raise ValueError("use -1 for vanishing, not -inf")

    def __getitem__(self, k):
        if k not in self.entries:
            raise KeyError(
                "t_%d requested outside the declared support %s"
                % (k, sorted(self.entries)))
        return self.entries[k]


@dataclass(frozen=True)
class BoundReport:
    """t0/t1 bounds (or a single cartesianity value) plus provenance."""

    t0_bound: object = None
    t1_bound: object = None
    regime: str = ""
    formula: str = ""
    cartesianity: Optional[int] = None
    cocartesianity: Optional[int] = None
    partition_min: Optional[int] = None
    notes: tuple = ()

    def __str__(self):
        bits = []
        if self.t0_bound is not None:
            bits.append("t0 <= %s" % (self.t0_bound,))
        if self.t1_bound is not None:
            bits.append("t1 <= %s" % (self.t1_bound,))
        if self.cartesianity is not None:
            bits.append("%s-cartesian" % self.cartesianity)
        if self.cocartesianity is not None:
            bits.append("%s-cocartesian" % self.cocartesianity)
        if self.regime:
            bits.append("[%s]" % self.regime)
        return "  ".join(bits)


def _require_finite(name, value):
    if not is_finite(value):
        raise ValueError("%s must be finite, got %r" % (name, value))
    return value


# ---------------------------------------------------------------------------
# spectral-sequence degree bounds


def gan_li_bounds(t: DegreeSeq, k) -> BoundReport:
    """t0(H_k) <= 2 t_k + 1 and t1(H_k) <= 2 max(t_k, t_{k+1}) + 2."""
    tk = _require_finite("t_k", t[k])
    tk1 = _require_finite("t_{k+1}", t[k + 1])
    return BoundReport(
        t0_bound=2 * tk + 1,
        t1_bound=2 * max(tk, tk1) + 2,
        regime="gan-li",
        formula="t0 <= 2 t_k + 1; t1 <= 2 max(t_k, t_{k+1}) + 2",
    )


def bahran_bounds(delta, hmax) -> BoundReport:
    """Piecewise t0/t1 bounds from the stable degree delta and local degree h.

    The four branches split on h = -1, delta = -1, and delta versus
    ceil(h/2).  In the source's t1 display the second branch is printed
    with stray symbols "g" and "c"; by parallelism with the t0 column
    they are read as delta and h (noted in the report).
    """
    if delta < -1 or hmax < -1:
        raise ValueError("delta and hmax live in {-1, 0, 1, ...}")
    notes = ()
    if hmax == -1:
        t0, t1, regime = delta, -1, "h = -1"
    elif delta == -1:
        t0, t1, regime = hmax, hmax + 1, "delta = -1, h >= 0"
        notes = ("t1 branch read as delta = -1 and h >= 0",)
    elif delta <= -(-hmax // 2):  # ceil(h/2)
        t0, t1, regime = hmax + 1, hmax + 2, "0 <= delta <= ceil(h/2)"
    else:
        t0 = delta + hmax // 2 + 1
        t1 = delta + hmax // 2 + 2
        regime = "delta > ceil(h/2)"
    return BoundReport(
        t0_bound=t0, t1_bound=t1, regime=regime,
        formula="piecewise in (delta, h); top branch t0 = delta + floor(h/2) + 1",
        notes=notes,
    )


def ce_propagate(op, inputs):
    """(delta, h) bound for a kernel, cokernel, or middle homology.

    inputs is a sequence of (delta, hmax) pairs: (A, B) for kernel and
    cokernel of f: A -> B, and (A, B, C) for the homology of A -> B -> C
    at B.  delta propagates from the defining side; h picks up 2 delta - 2
    terms from the incoming modules.
    """
    pairs = [tuple(x) for x in inputs]
    for d, h in pairs:
        if d < -1 or h < -1:
            raise ValueError("degree entries live in {-1, 0, 1, ...}")
    if op == "kernel":
        if len(pairs) != 2:
            raise ValueError("kernel takes (A, B)")
        (dA, hA), (dB, hB) = pairs
        return dA, max(2 * dA - 2, hA, hB)
    if op == "cokernel":
        if len(pairs) != 2:
            raise ValueError("cokernel takes (A, B)")
        (dA, hA), (dB, hB) = pairs
        return dB, max(2 * dA - 2, hA, hB)
    if op == "middle_homology":
        if len(pairs) != 3:
            raise ValueError("middle_homology takes (A, B, C)")
        (dA, hA), (dB, hB), (dC, hC) = pairs
        return dB, max(2 * dA - 2, 2 * dB - 2, hA, hB, hC)
    raise ValueError("unknown operation %r" % (op,))


def going_down_bounds(t: DegreeSeq, p, variant="general", f=None, a=None, b=None):
    """Degree bounds for the p-th homotopy from hyperhomology degrees.

    general:  t0 <= t_p + floor(h0/2) + 1 with h0 the max of 2 t_l - 2
              over p < l <= p + max(t_p, t_{p+1}) - 1 (window one shorter
              and +2 for t1); the max is clamped at -1, the local degree
              of the free first page, so an empty window degenerates to
              t0 <= t_p, t1 <= t_p + 1.
    monotone: requires f nondecreasing with t_k <= f(k); then
              t0 <= max(0, 2 f(p) - 1), t1 <= max(1, 2 f(p)).
    linear:   t_k <= -a k + b with a > 0; bounds for homotopy in degree
              -p: t0 <= max(0, 2 a p + 2 b - 1), t1 <= max(1, 2 a p + 2 b).
    """
    if variant == "general":
        tp = _require_finite("t_p", t[p])
        tp1 = _require_finite("t_{p+1}", t[p + 1])
        w = max(tp, tp1)

        def clamped_max(hi):
            vals = [-1]
            for l in range(p + 1, p + hi + 1):
                vals.append(2 * _require_finite("t_%d" % l, t[l]) - 2)
            return max(vals)

        h0 = clamped_max(w - 1)
        h1 = clamped_max(w - 2)
        return BoundReport(
            t0_bound=tp + h0 // 2 + 1,
            t1_bound=tp + h1 // 2 + 2,
            regime="general",
            formula="t0 <= t_p + floor(max_window(2 t_l - 2)/2) + 1",
        )
    if variant == "monotone":
        if f is None:
            raise ValueError("monotone variant needs the dominating f")
        fp = _require_finite("f(p)", f(p))
        return BoundReport(
            t0_bound=max(0, 2 * fp - 1),
            t1_bound=max(1, 2 * fp),
            regime="monotone",
            formula="t0 <= max(0, 2 f(p) - 1); t1 <= max(1, 2 f(p))",
        )
    if variant == "linear":
        if a is None or b is None or a <= 0:
            raise ValueError("linear variant needs slope a > 0 and offset b")
        return BoundReport(
            t0_bound=max(0, 2 * a * p + 2 * b - 1),
            t1_bound=max(1, 2 * a * p + 2 * b),
            regime="linear",
            formula="t0 pi_{-p} <= max(0, 2ap + 2b - 1); t1 <= max(1, 2ap + 2b)",
        )
    raise ValueError("unknown variant %r" % (variant,))


def going_up_bound(pi_t, k):
    """max_j of t_{k-j} pi_j, from a map (k, j) -> value; -inf when empty."""
    vals = [v for (kk, _j), v in pi_t.items() if kk == k]
    if not vals:
        return NEG_INF
    return max(vals)


# ---------------------------------------------------------------------------
# cube (co)cartesianity via partition minimization


# partition_min's subset DP costs 3^n, and a CubeSpec holds 2^n - 1 weights
_MAX_CUBE_N = 16


class CubeSpec:
    """Connectivity weights k_T on the nonempty subsets of n_.

    Accepts either a full map {frozenset: value} or, in the symmetric
    case, a map {size: value}.  Monotonicity U <= V => k_U <= k_V is
    required (it is the hypothesis of the cube theorems) and checked.
    Like `fihom cube --spec`, it refuses a size outside 1..n, a subset
    key that is empty or repeats an element, and two keys for one set.
    """

    def __init__(self, n, k_by_subset=None, k_by_size=None):
        if n < 1:
            raise ValueError("cube dimension must be >= 1")
        self.n = n
        if (k_by_subset is None) == (k_by_size is None):
            raise ValueError("give exactly one of k_by_subset, k_by_size")
        self.k = {}
        if k_by_size is not None:
            for size in k_by_size:
                if not 1 <= size <= n:
                    raise ValueError("size %r must lie in 1..%d" % (size, n))
            for size in range(1, n + 1):
                if size not in k_by_size:
                    raise ValueError("missing weight for size %d" % size)
                for T in itertools.combinations(range(n), size):
                    self.k[frozenset(T)] = k_by_size[size]
        else:
            for key, v in k_by_subset.items():
                T = frozenset(key)
                if not T <= set(range(n)):
                    raise ValueError("subset %s not inside 0..%d" % (sorted(T), n - 1))
                if not T or len(T) != len(key) or T in self.k:
                    raise ValueError("subset %r is empty, repeats an element or "
                                     "names a set given before" % (key,))
                self.k[T] = v
            for size in range(1, n + 1):
                for T in itertools.combinations(range(n), size):
                    if frozenset(T) not in self.k:
                        raise ValueError("missing weight for subset %r" % (T,))
        for T, v in self.k.items():
            for x in T:
                smaller = T - {x}
                if smaller and self.k[smaller] > v:
                    raise ValueError(
                        "monotonicity fails: k_%s > k_%s"
                        % (sorted(smaller), sorted(T)))


def strongly_cocartesian_spec(n, edge_conns) -> CubeSpec:
    """k_T = sum of the edge connectivities in T (the additive special case)."""
    if len(edge_conns) != n:
        raise ValueError("need one connectivity per coordinate")
    k = {}
    for size in range(1, n + 1):
        for T in itertools.combinations(range(n), size):
            k[frozenset(T)] = sum(edge_conns[i] for i in T)
    return CubeSpec(n, k_by_subset=k)


def partition_min(spec: CubeSpec):
    """min over set partitions {T_a} of n_ of sum k_{T_a}, by subset DP.

    dp[mask] scans only blocks containing the lowest bit of mask, so each
    partition is counted once; cost 3^n.
    """
    n = spec.n
    if n > _MAX_CUBE_N:
        raise ValueError("partition DP limited to n <= %d" % _MAX_CUBE_N)
    full = (1 << n) - 1
    weight = [0] * (full + 1)   # weight[mask] = k_T for the subset T of mask
    for T, v in spec.k.items():
        weight[sum(1 << i for i in T)] = v
    dp = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        best = weight[mask]     # the block mask itself, tail dp[0] = 0
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            cand = weight[sub | low] + dp[rest ^ sub]
            if cand < best:
                best = cand
        dp[mask] = best
    return dp[full]


def set_partitions(items):
    """All set partitions of a list, as lists of tuples (exponential!)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + (first,)] + part[i + 1:]
        yield part + [(first,)]


def partition_min_exhaustive(spec: CubeSpec):
    """Bell-number enumeration oracle for partition_min (test/verify use)."""
    best = None
    for part in set_partitions(range(spec.n)):
        s = sum(spec.k[frozenset(T)] for T in part)
        if best is None or s < best:
            best = s
    return best


def cube_cartesianity(spec: CubeSpec, direction) -> int:
    """(1 - n + min)-cartesian or (-1 + n + min)-cocartesian value."""
    return _cube_value(spec.n, partition_min(spec), direction)


def _cube_value(n, m, direction):
    """cube_cartesianity of an n-cube from its partition minimum m."""
    if direction == "to_cartesian":
        return 1 - n + m
    if direction == "to_cocartesian":
        return -1 + n + m
    raise ValueError("direction must be to_cartesian or to_cocartesian")


# ---------------------------------------------------------------------------
# configuration-space and cohomology bound pipelines


def conf_bounds(p, d, variant="stated", n=None) -> BoundReport:
    """Representation-stability bounds for degree-p homotopy/homology.

    stated variant: t0 <= 2 ceil((p-1)/(d-2)) + 1; body variant replaces
    p - 1 by p (the source derivation and its headline formula differ by
    this much; both are exposed, neither silently chosen).  With n given,
    also reports the ((n-1)(d-2)+1)-cartesianity of the n-cube.
    """
    if d < 3:
        raise ValueError("need ambient dimension d >= 3")
    if p < 2:
        raise ValueError("need degree p >= 2")
    if variant not in ("stated", "body"):
        raise ValueError("variant must be stated or body")
    if n is not None and n < 1:
        raise ValueError("need cube dimension n >= 1")
    num = (p - 1) if variant == "stated" else p
    m = -(-num // (d - 2))
    cart = None if n is None else (n - 1) * (d - 2) + 1
    return BoundReport(
        t0_bound=2 * m + 1,
        t1_bound=2 * m + 2,
        regime=variant,
        formula="t0 <= 2 ceil(%s/(d-2)) + 1" % ("(p-1)" if variant == "stated" else "p"),
        cartesianity=cart,
        notes=("stated and body variants differ by 1 in the numerator",),
    )


def chain_cube_spec(n, d, u) -> CubeSpec:
    """Weights of the n-cube of chains: u+1 on singletons, (|T|-1)(d-2)+1 above."""
    k = {}
    for size in range(1, n + 1):
        k[size] = (u + 1) if size == 1 else (size - 1) * (d - 2) + 1
    if n >= 2 and u + 1 > k[2]:
        # the monotone hypothesis caps u; CubeSpec would reject it anyway
        raise ValueError("u too large for monotone weights: u + 1 > d - 1")
    return CubeSpec(n, k_by_size=k)


def chain_cube_min(n, d, u):
    """Closed form of the partition minimum for chain_cube_spec.

    With s singletons the rest costs g(r) = r(d-2) - floor(r/2)(d-3)
    (pairs, plus one triple when r is odd; r = 1 is impossible), so the
    minimum is min over s of s(u+1) + g(n-s).
    """
    def g(r):
        if r == 0:
            return 0
        if r == 1:
            return None
        return r * (d - 2) - (r // 2) * (d - 3)

    best = None
    for s in range(n + 1):
        tail = g(n - s)
        if tail is None:
            continue
        cand = s * (u + 1) + tail
        if best is None or cand < best:
            best = cand
    return best


def cohomology_bounds(p, d, u) -> BoundReport:
    """Degree bounds for p-th cohomology, with the chain-cube cocartesianity.

    Two regimes split on u + 1 >= (d-1)/2: pair-blocks win (t0 <=
    2 ceil(2(p+1)/(d-1)) - 1) or singletons win (t0 <= 2 ceil((p+1)/(u+1))
    - 1).  The reported cocartesianity is the n = p + 1 cube's partition
    minimum plus n - 1, cross-checkable against cube_cartesianity.
    """
    if d < 3:
        raise ValueError("the cube argument needs d >= 3")
    if u < 0 or p < 0:
        raise ValueError("need u >= 0 and p >= 0")
    if 2 * (u + 1) >= d - 1:
        t0 = 2 * (-(-2 * (p + 1) // (d - 1))) - 1
        regime = "pairs: u + 1 >= (d-1)/2"
        formula = "t0 <= 2 ceil(2(p+1)/(d-1)) - 1"
    else:
        t0 = 2 * (-(-(p + 1) // (u + 1))) - 1
        regime = "singletons: u + 1 < (d-1)/2"
        formula = "t0 <= 2 ceil((p+1)/(u+1)) - 1"
    n = p + 1
    pm = chain_cube_min(n, d, u)
    return BoundReport(
        t0_bound=t0, t1_bound=t0 + 1, regime=regime, formula=formula,
        cocartesianity=pm + n - 1, partition_min=pm,
    )
