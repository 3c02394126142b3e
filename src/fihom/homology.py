"""The chain complex computing FI-homology, and the invariants built on it.

At a fixed level n the complex has chain groups

    S_p = (+) over subsets S of n_ with |S| = n - p of V(S),

with differential sending the summand V(S) into V(S u {i}) for each
i not in S, with sign (-1)^{#{j in S : j < i}}.  Its homology in degree
p is H_p V(n_); in degree 0 this is the cokernel of all proper subsets
mapping in, the generators-in-degree-n obstruction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .fimodule import (
    FBData, FIModule, FIMorphism, face_matrices, fi_coker, free_fi_module,
    induced_injection_matrix, shift_module,
)
from .linalg import (
    AbelianClass, Matrix, QQ, ZZ, homology_class, image_basis, rank,
    solve_matrix,
)


def subset_layout(V, n, size):
    """(offsets dict S -> column offset, total dim) for (+)_{|S|=size} V(S)."""
    offsets = {}
    off = 0
    d = V.dims[size]
    for S in itertools.combinations(range(n), size):
        offsets[S] = off
        off += d
    return offsets, off


@dataclass(frozen=True)
class FIHComplexAt:
    """fih_chain_complex(V, n): the cube complex of V at level n.

    d[p-1] is the differential S_p -> S_{p-1} (1 <= p <= n); offsets[p]
    locates the V(S) summand inside S_p.
    """

    module: FIModule
    level: int
    sizes: tuple            # dim S_p for p = 0..n
    d: tuple                # d[p-1]: S_p -> S_{p-1}
    offsets: tuple = field(repr=False, default=())

    def differential(self, p):
        """d_p: S_p -> S_{p-1}."""
        if not (1 <= p <= self.level):
            raise ValueError("no differential d_%d at level %d" % (p, self.level))
        return self.d[p - 1]

    def boundary_out(self, p):
        """The map out of S_p (zero matrix when p = 0 or p out of range)."""
        if 1 <= p <= self.level:
            return self.d[p - 1]
        return Matrix.zeros(self.module.ring, 0, self.size(p))

    def boundary_in(self, p):
        """The map into S_p (zero matrix when p = n or p out of range)."""
        if 0 <= p < self.level:
            return self.d[p]
        return Matrix.zeros(self.module.ring, self.size(p), 0)

    def size(self, p):
        return self.sizes[p] if 0 <= p <= self.level else 0

    def homology(self, p):
        if p < 0 or p > self.level:
            return AbelianClass(0)
        return homology_class(self.boundary_in(p), self.boundary_out(p))


def fih_chain_complex(V: FIModule, n) -> FIHComplexAt:
    """Build the cube complex of V at level n and verify d^2 = 0."""
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
            comp = [i for i in range(n) if i not in S]
            for i in comp:
                T = tuple(sorted(S + (i,)))
                pos = T.index(i)
                sign = -1 if pos % 2 else 1
                blk = faces[k][pos]
                toff = tgt[T]
                for r, row in enumerate(blk.rows):
                    for c, v in row.items():
                        cur = rows[toff + r].get(soff + c, 0) + sign * v
                        if cur:
                            rows[toff + r][soff + c] = cur
                        else:
                            rows[toff + r].pop(soff + c, None)
        ds.append(Matrix(ring, tdim, sdim, rows))
    for p in range(2, n + 1):
        if not (ds[p - 2] @ ds[p - 1]).is_zero():
            raise ArithmeticError(
                "d^2 != 0 at (level %d, degree %d): structure maps violate "
                "the FI relations or the sign bookkeeping broke" % (n, p))
    return FIHComplexAt(V, n, sizes, tuple(ds),
                        tuple(layouts[p][0] for p in range(n + 1)))


def fih_group(V: FIModule, n, p) -> AbelianClass:
    """H_p V(n_) as an abelian group class."""
    if not (0 <= p <= n):
        raise ValueError("need 0 <= p <= n, got p=%d, n=%d" % (p, n))
    return fih_chain_complex(V, n).homology(p)


# ---------------------------------------------------------------------------
# degree invariants


@dataclass(frozen=True)
class DegreeProfile:
    """t_k = max{n <= truncation : H_k V(n_) != 0} for the observed window.

    values[k] is that maximum, or None when no nonvanishing level was
    observed.  certified[k] is True when the value is exact, i.e. the
    window shows the last nonvanishing level strictly below the
    truncation; a value at the truncation itself, or None, is only the
    truncated observation.
    """

    truncation: int
    values: dict
    certified: dict

    def __post_init__(self):
        for k, v in self.values.items():
            if v is not None and v < -1:
                raise ValueError("degree below -1 at k=%d" % k)

    def value(self, k):
        return self.values[k]

    def bound_value(self, k, default=-1):
        """values[k] with None read as `default` (for bound arithmetic)."""
        v = self.values.get(k)
        return default if v is None else v

    def __str__(self):
        bits = []
        for k in sorted(self.values):
            v = self.values[k]
            txt = "none" if v is None else str(v)
            if not self.certified[k]:
                txt += "?"
            bits.append("t_%d=%s" % (k, txt))
        return " ".join(bits)


def degrees(V: FIModule, kmax) -> DegreeProfile:
    """DegreeProfile of t_0 .. t_kmax over all levels up to the truncation."""
    N = V.truncation
    if kmax < 0:
        raise ValueError("kmax %d is negative" % kmax)
    if kmax > N:
        raise ValueError("kmax %d exceeds truncation %d" % (kmax, N))
    complexes = [fih_chain_complex(V, n) for n in range(N + 1)]
    values, certified = {}, {}
    for k in range(kmax + 1):
        top = None
        for n in range(k, N + 1):
            if not complexes[n].homology(k).is_zero():
                top = n
        values[k] = top
        certified[k] = top is not None and top < N
    return DegreeProfile(N, values, certified)


# ---------------------------------------------------------------------------
# local degree estimators


@dataclass(frozen=True)
class Estimate:
    """A numeric invariant read off truncated data, with a confidence flag."""

    value: int
    certain: bool
    note: str = ""

    def __str__(self):
        return "%d%s" % (self.value, "" if self.certain else " (estimate)")


def hmax_estimate(V: FIModule) -> Estimate:
    """Largest level whose elements can die under inclusions, or -1.

    An element of V(n_) is torsion iff some injection kills it; every
    injection out of n_ factors as a permutation (invertible) after the
    composite standard inclusion into the top level, so the kernel of
    that single composite detects all observable torsion.  Truncation
    hides torsion that only dies above level N, hence the estimate flag.
    """
    N = V.truncation
    if N < 1:
        raise ValueError("torsion test needs truncation >= 1")
    best = -1
    for n in range(N):
        comp = Matrix.identity(V.ring, V.dims[n])
        for k in range(n, N):
            comp = V.iota[k] @ comp
        if rank(comp) < V.dims[n]:
            best = n
    return Estimate(best, certain=False, note="kernel of inclusion into top level")


def _natural_morphism(V):
    sd = shift_module(V)
    return sd.natural


def delta_estimate(V: FIModule) -> Estimate:
    """Stable (eventual polynomial) degree of n -> dim V(n_), estimated.

    Iterates the derivative cokernel DV = coker(V -> SV); delta is the
    last j with D^j V nonzero.  Vanishing is read off the top of the
    observable window so that low-level transients of eventually-zero
    modules do not register; the answer is certain only when a whole
    derivative vanishes identically with room to spare.
    """
    if V.ring != QQ:
        raise ValueError("stable degree estimation works over Q")
    W = V
    j = 0
    while True:
        window = min(2, W.truncation + 1)
        if all(W.dims[-(t + 1)] == 0 for t in range(window)):
            certain = all(d == 0 for d in W.dims) and W.truncation >= 1
            return Estimate(j - 1, certain,
                            note="derivative %d vanishes in window" % j)
        if W.truncation == 0:
            return Estimate(j, certain=False,
                            note="no stabilization within truncation")
        W = fi_coker(_natural_morphism(W))
        j += 1


# ---------------------------------------------------------------------------
# cardinality filtration


def _generated_submodule(V, k):
    """Bases B_n of the levelwise span of all images V(m_) -> V(n_), m <= k.

    For n <= k the span is everything; above, every injection from a
    level <= k extends to one from level k, so the images of injections
    k_ -> n_ alone generate.
    """
    ring = V.ring
    bases = []
    for n in range(V.truncation + 1):
        if n <= k:
            bases.append(Matrix.identity(ring, V.dims[n]))
            continue
        stacked_rows = [{} for _ in range(V.dims[n])]
        off = 0
        for S in itertools.combinations(range(n), k):
            for g in itertools.permutations(range(k)):
                f = tuple(S[g[x]] for x in range(k))
                mat = induced_injection_matrix(V, f, a=k, b=n)
                for i, row in enumerate(mat.rows):
                    for j, v in row.items():
                        stacked_rows[i][off + j] = v
                off += V.dims[k]
        stacked = Matrix(ring, V.dims[n], off, stacked_rows)
        bases.append(image_basis(stacked))
    return bases


def _restrict(V, bases, name=""):
    """The FIModule carried by an iota- and S_n-stable family of column spans."""
    N = V.truncation
    dims = tuple(b.ncols for b in bases)
    iotas = []
    for n in range(N):
        sol = solve_matrix(bases[n + 1], V.iota[n] @ bases[n])
        if sol is None:
            raise ArithmeticError("span family not iota-stable (bug)")
        iotas.append(sol)
    trans = []
    for n in range(N + 1):
        mats = []
        for i in range(1, n):
            sol = solve_matrix(bases[n], V.transposition(n, i) @ bases[n])
            if sol is None:
                raise ArithmeticError("span family not S_n-stable (bug)")
            mats.append(sol)
        trans.append(tuple(mats))
    return FIModule(V.ring, N, dims, tuple(iotas), tuple(trans), name=name)


def filtration_layer(V: FIModule, k, free_data: Optional[FBData] = None):
    """(F_k, layer_ok): the submodule generated by levels <= k, with checks.

    F_k(n_) is the span (lattice, over Z) of all images from levels <= k,
    with the restricted structure maps.  layer_ok verifies:
      - H_0 F_k(j_) == H_0 V(j_) for j <= k, and H_0 F_k(j_) = 0 for j > k;
      - when free_data X is supplied (V must be free on X): F_k is free on
        the truncation X_{<=k}, certified by H_0 F_k == X_{<=k} levelwise
        and H_p F_k = 0 for p >= 1, and the quotient F_k/F_{k-1} is free
        on X_k alone, certified the same way.
    """
    if k > V.truncation or k < 0:
        raise ValueError("layer index %d outside truncation" % k)
    bases = _generated_submodule(V, k)
    Fk = _restrict(V, bases, name=("F_%d %s" % (k, V.name)).strip())

    ok = True
    for j in range(V.truncation + 1):
        h_f = fih_group(Fk, j, 0)
        if j <= k:
            if h_f != fih_group(V, j, 0):
                ok = False
        elif not h_f.is_zero():
            ok = False
    if free_data is not None and ok:
        ok = _free_layer_checks(V, bases, k, free_data)
    return Fk, ok


def _layer_fbdata(X, lo, hi):
    """X with only the cardinalities lo..hi kept, the others zero."""
    dims = tuple(d if lo <= m <= hi else 0 for m, d in enumerate(X.dims))
    trans = None
    if X.trans is not None:
        trans = tuple(
            tuple(X.trans[m][i] if lo <= m <= hi else
                  Matrix.zeros(X.ring, 0, 0) for i in range(max(0, m - 1)))
            for m in range(X.truncation + 1))
    return FBData(X.ring, X.truncation, dims, trans)


def _matches_free_on(W, X):
    """Certificate that W is free on X: right dims, H_0 = X, H_{>0} = 0."""
    if W.dims != free_fi_module(X).dims:
        return False
    for n in range(W.truncation + 1):
        cpx = fih_chain_complex(W, n)
        if cpx.homology(0) != AbelianClass(X.dims[n]):
            return False
        for p in range(1, n + 1):
            if not cpx.homology(p).is_zero():
                return False
    return True


def _free_layer_checks(V, bases, k, X):
    Fk = _restrict(V, bases)
    if not _matches_free_on(Fk, _layer_fbdata(X, 0, k)):
        return False
    if k == 0:
        return _matches_free_on(Fk, _layer_fbdata(X, 0, 0))
    prev_bases = _generated_submodule(V, k - 1)
    Fprev = _restrict(V, prev_bases)
    incl = []
    for n in range(V.truncation + 1):
        sol = solve_matrix(bases[n], prev_bases[n])
        if sol is None:
            return False
        incl.append(sol)
    try:
        Q = fi_coker(FIMorphism(Fprev, Fk, tuple(incl)))
    except Exception:
        return False
    return _matches_free_on(Q, _layer_fbdata(X, k, k))
