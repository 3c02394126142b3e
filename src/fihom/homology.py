"""The chain complex computing FI-homology, and the invariants built on it.

At a fixed level n the complex has chain groups

    S_p = (+) over subsets S of n_ with |S| = n - p of V(S),

with differential sending the summand V(S) into V(S u {i}) for each
i not in S, with sign (-1)^{#{j in S : j < i}}.  Its homology in degree
p is H_p V(n_); in degree 0 this is the cokernel of all proper subsets
mapping in, the generators-in-degree-n obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .fimodule import (
    FIModule, _Injections, _layout, face_matrices, fi_coker, shift_module,
)
from .linalg import AbelianClass, Matrix, QQ, _ChainComplex, _put_block, rank


def subset_layout(V, n, size):
    """(offsets dict S -> column offset, total dim) for (+)_{|S|=size} V(S)."""
    return _layout(V.dims, n, (size,))


def _check_square_zero(D, message):
    """Raise ArithmeticError(message % m) at the first m with D[m-1] @ D[m] != 0."""
    for m, d in D.items():
        if m - 1 in D and not (D[m - 1] @ d).is_zero():
            raise ArithmeticError(message % m)


class FIHComplexAt(_ChainComplex):
    """fih_chain_complex(V, n): the cube complex of V at level n.

    d[p-1] is the differential S_p -> S_{p-1} (1 <= p <= n); offsets[p]
    locates the V(S) summand inside S_p.
    """

    def __init__(self, cube, checked):
        self.module, self.level = cube.modules[0], cube.level
        self.offsets = tuple(cube.offsets[(p, 0)] for p in cube.sizes)
        super().__init__(self.module.ring, cube.sizes, partial(_cube_total, cube),
                         checked)

    @property
    def sizes(self):
        """dim S_p for p = 0..n."""
        return tuple(self._sizes.values())

    @property
    def d(self):
        """d[p-1]: S_p -> S_{p-1}."""
        return tuple(self._diff(p) for p in range(1, len(self._sizes)))

    def differential(self, p):
        """d_p: S_p -> S_{p-1}."""
        if not (1 <= p <= self.level):
            raise ValueError("no differential d_%d at level %d" % (p, self.level))
        return self._diff(p)


class _Cube:
    """The total complex at level n of a cube bicomplex, laid out.

    modules[t] is W_{q_min+t} and del_at(q, k) the map W_q(k) -> W_{q-1}(k).
    `walk`, when given, holds one `_Injections(modules[t])` per module, kept
    by a caller that builds the levels 0, 1, ..., n in turn, so each face
    matrix is built once per walk; it also lets `_differentials` multiply
    fewer pairs.  T_m = (+)_{p+q=m} S_p(W_q), q ascending, each S_p in
    `subset_layout` order: sizes[m] = dim T_m and offsets[(p, q)][S] is
    the first row of W_q(S) in T_{p+q}.  `_cube_total` writes the
    differentials.  One module gives its cube complex.
    """

    def __init__(self, n, q_min, modules, del_at, walk=None):
        if n > modules[0].truncation or n < 0:
            raise ValueError("level %d outside truncation %d"
                             % (n, modules[0].truncation))
        self.level, self.q_min, self.modules, self.del_at = n, q_min, modules, del_at
        self.q_max = q_min + len(modules) - 1
        self.walk = walk is not None
        self.evs = [_Injections(W) for W in modules] if walk is None else walk
        self.sizes, self.offsets = {}, {}
        for m in range(q_min, self.q_max + n + 1):
            self.sizes[m] = 0
            for q in range(max(q_min, m - n), min(self.q_max, m) + 1):
                base = self.sizes[m]
                layout, dim = subset_layout(modules[q - q_min], n, n - m + q)
                self.offsets[(m - q, q)] = ({S: base + o for S, o in layout.items()}
                                            if base else layout)
                self.sizes[m] += dim


def _cube_total(cube, m, skip=()):
    """The rows of D_m: T_m -> T_{m-1} of the `_Cube` `cube`, as a list.

    Each face block (sign (-1)^pos) and del block (sign (-1)^p) is written
    once.  The rows whose index is in `skip` are left None, and nothing is
    written into them.
    """
    n, q_min = cube.level, cube.q_min
    size = cube.sizes[m - 1]
    rows = ([None if i in skip else {} for i in range(size)] if skip
            else [{} for _ in range(size)])
    for q in range(max(q_min, m - n), min(cube.q_max, m) + 1):
        p = m - q
        t = q - q_min
        faces = face_matrices(cube.modules[t], n - p, cube.evs[t]) if p else ()
        dl = cube.del_at(q, n - p) if q > q_min else None
        face_tgt = cube.offsets.get((p - 1, q))
        del_tgt = cube.offsets.get((p, q - 1))
        for S, soff in cube.offsets[(p, q)].items():
            for i in range(n):
                if i not in S:
                    T = tuple(sorted(S + (i,)))
                    pos = T.index(i)
                    _put_block(rows, face_tgt[T], soff, faces[pos], pos % 2 == 1)
            if dl is not None:
                _put_block(rows, del_tgt[S], soff, dl, p % 2 == 1)
    return rows


def _differentials(cube, message):
    """m -> D_m for the pairs D_{m-1} D_m that `cube`'s d^2 check multiplies.

    The check raises ArithmeticError(message % m) at the first m with
    D_{m-1} D_m != 0.  A single-level build multiplies every pair.  A level
    of an ascending walk (`cube.walk`), which builds the levels 0, 1, ..., n
    in turn, multiplies only the pairs through total degree q_max + 2 (the
    cube complex's (d_1, d_2)).  The matrices go to their first reader in
    `_ChainComplex`.

    This drops no relation of the full check.  The block of
    D_{m-1} D_m from W_q(S) to W_{q-2+|J|}(S u J), with |S| = a and
    |J| = 0, 1 or 2, reads only the faces and dels of the W's at
    cardinalities a .. a + |J|, and up to one common sign the signs of its
    terms depend only on where J sits in S u J.  Each such placement
    occurs at level a + |J| with S the complement of J, in cube degree
    p = |J| and total degree q + |J| <= q_max + 2: the face-face blocks in
    d_1 d_2, the face-del blocks at p = 1 and the del-del blocks at p = 0.
      - So at the first level where the full build fails, every failing
        block has p <= 2 and total degree <= q_max + 2, and the walk fails
        there in the same first degree, with the same message.
      - Once levels 0 .. n have passed, every block of every pair at level
        n recurs in a pair that was multiplied, so D_m D_{m+1} = 0 holds for
        all m at level n.  That is all the pivot-row compression of
        `_ChainComplex` needs, so it stays sound on the pairs not
        multiplied, in any degree the walk reads.
    The argument needs the levels below n checked first, so only a walk
    passes `walk`; builders of a single level (`fih_group`, the `homology`
    and `hyper` commands, the homology suite, the shift checks) multiply
    every pair.
    """
    hi = max(cube.sizes)
    if cube.walk:
        hi = min(hi, cube.q_max + 2)
    D = {m: Matrix(cube.modules[0].ring, cube.sizes[m - 1], cube.sizes[m],
                   _cube_total(cube, m))
         for m in range(cube.q_min + 1, hi + 1)}
    _check_square_zero(D, message)
    return D


def fih_chain_complex(V: FIModule, n, walk=None) -> FIHComplexAt:
    """Build the cube complex of V at level n and verify d^2 = 0.  `walk`
    is an `_Injections(V)` kept by a caller that builds the levels 0, 1,
    ..., n in turn; given, only (d_1, d_2) is multiplied (see
    `_differentials`)."""
    cube = _Cube(n, 0, (V,), None, None if walk is None else (walk,))
    return FIHComplexAt(cube, _differentials(
        cube, "d^2 != 0 at (level %d, degree %%d): structure maps "
        "violate the FI relations or the sign bookkeeping broke" % n))


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
    observed.  certified[k] is True when the last nonvanishing level seen
    lies strictly below the truncation.  It does not make the value exact:
    the window cannot see a level above the truncation (M(1) and
    M(1) (+) M(6) at truncation 4 have the same data and both read a
    certified t_0 = 1, but the t_0 of the sum is 6).  A value at the
    truncation itself, or None, is the truncated observation.
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


def _degree_profile(complex_at, N, ks):
    """t_k for k in ks: the top n <= N with complex_at(n).homology(k) != 0.

    Level n is built, read in every degree k and dropped before level n + 1
    is built, so one level's complex is alive at a time.
    """
    values = dict.fromkeys(ks)
    for n in range(N + 1):
        cpx = complex_at(n)
        for k in ks:
            if not cpx.homology(k).is_zero():
                values[k] = n
        del cpx
    certified = {k: v is not None and v < N for k, v in values.items()}
    return DegreeProfile(N, values, certified)


def degrees(V: FIModule, kmax) -> DegreeProfile:
    """DegreeProfile of t_0 .. t_kmax over all levels up to the truncation.

    Only d_1 d_2 is multiplied at each level, which checks every d^2
    relation in the ascending walk; d_1 and d_2 are built whole for it.
    H_k reads d_k and d_{k+1}, so each higher d_p is written only if
    p <= kmax + 1, and only on the rows compression keeps (see
    `_differentials`).  The walk keeps one evaluator of V, so each face
    matrix V(delta_pos) is built once, not once per level.
    """
    N = V.truncation
    if kmax < 0:
        raise ValueError("kmax %d is negative" % kmax)
    if kmax > N:
        raise ValueError("kmax %d exceeds truncation %d" % (kmax, N))
    ev = _Injections(V)
    return _degree_profile(lambda n: fih_chain_complex(V, n, ev), N,
                           range(kmax + 1))


# ---------------------------------------------------------------------------
# local degree estimators


@dataclass(frozen=True)
class Estimate:
    """A numeric invariant read off truncated data, with a confidence flag."""

    value: int
    certain: bool


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
    ev = _Injections(V)
    best = -1
    for n in range(N):
        if rank(ev(tuple(range(n)), N)) < V.dims[n]:
            best = n
    return Estimate(best, certain=False)


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
            return Estimate(j - 1, certain)
        if W.truncation == 0:
            return Estimate(j, certain=False)
        W = fi_coker(shift_module(W).natural)
        j += 1
