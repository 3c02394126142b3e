"""FI-chain complexes and their hyperhomology degrees.

An FIComplex is a bounded complex of FI-modules W_q with differentials
that are FI-morphisms.  Its hyperhomology at a level n is computed by
the total complex of the bicomplex whose rows are the cube complexes of
the W_q: T_m = (+)_{p+q=m} (+)_{|S|=n-p} W_q(S), with D = d_cube +
(-1)^p del.  Negative degrees are allowed so that cochain complexes fit
as negatively graded chain complexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .fimodule import (
    FIModule, _Injections, _quotient_module, validate, validate_morphism,
    zero_module,
)
from .homology import (
    DegreeProfile, _Cube, _cube_total, _degree_profile, _differentials,
    fih_chain_complex,
)
from .linalg import (
    Matrix, QQ, QuotientCoords, _ChainComplex, _entries, _put_entries, block_matrix,
    rank,
)


@dataclass(frozen=True)
class FIComplex:
    """W_{q_min} <- ... <- W_{q_max}, diffs[t] = del into modules[t]."""

    ring: str
    truncation: int
    q_min: int
    modules: tuple   # modules[t] = W_{q_min + t}
    diffs: tuple     # diffs[t]: modules[t+1] -> modules[t]

    def __post_init__(self):
        if not self.modules:
            raise ValueError("empty complex")
        if len(self.diffs) != len(self.modules) - 1:
            raise ValueError("need exactly one differential per adjacent pair")
        for W in self.modules:
            if W.ring != self.ring or W.truncation != self.truncation:
                raise ValueError("modules must share ring and truncation")
        for t, d in enumerate(self.diffs):
            for end, W in ((d.source, self.modules[t + 1]), (d.target, self.modules[t])):
                if end is not W and end != W:
                    raise ValueError("differential %d endpoints mismatch" % t)
        for t in range(len(self.diffs) - 1):
            for n in range(self.truncation + 1):
                prod = self.diffs[t].levels[n] @ self.diffs[t + 1].levels[n]
                if not prod.is_zero():
                    raise ValueError(
                        "del o del != 0 at degree %d, level %d" % (self.q_min + t + 2, n))

    @property
    def q_max(self):
        return self.q_min + len(self.modules) - 1

    def module(self, q):
        if self.q_min <= q <= self.q_max:
            return self.modules[q - self.q_min]
        return zero_module(self.truncation, self.ring)

    def diff_level(self, q, n):
        """Matrix of del_q at level n (zero-shaped outside the support)."""
        if self.q_min < q <= self.q_max:
            return self.diffs[q - self.q_min - 1].levels[n]
        return Matrix.zeros(self.ring, self.module(q - 1).dims[n],
                            self.module(q).dims[n])


def complex_from_morphisms(modules, diffs, q_min=0) -> FIComplex:
    """FIComplex from lists ordered by ascending degree."""
    ring = modules[0].ring
    return FIComplex(ring, modules[0].truncation, q_min,
                     tuple(modules), tuple(diffs))


def validate_complex(W: FIComplex):
    """Violations beyond the constructor checks: each piece and map FI-valid."""
    bad = []
    for t, V in enumerate(W.modules):
        for msg in validate(V):
            bad.append("W_%d: %s" % (W.q_min + t, msg))
    for t, d in enumerate(W.diffs):
        for msg in validate_morphism(d):
            bad.append("del_%d: %s" % (W.q_min + t + 1, msg))
    return bad


# ---------------------------------------------------------------------------
# the total complex


class TotalComplexAt(_ChainComplex):
    """Total complex of the cube bicomplex of an FIComplex at one level:
    sizes[m] = dim T_m (m_min <= m <= m_max) and D[m]: T_m -> T_{m-1}
    (m_min < m <= m_max) as laid out by `_Cube` and D^2-checked by
    `_differentials`."""

    def __init__(self, cube, checked):
        self.level, self.m_min, self.m_max = cube.level, cube.q_min, max(cube.sizes)
        self.ring = cube.modules[0].ring
        super().__init__(self.ring, cube.sizes, partial(_cube_total, cube), checked)

    @property
    def sizes(self):
        """m -> dim T_m."""
        return self._sizes

    @property
    def D(self):
        """m -> the matrix T_m -> T_{m-1}."""
        return {m: d for m in self._sizes if (d := self._diff(m)) is not None}


def hyper_total_complex(W: FIComplex, n, walk=None) -> TotalComplexAt:
    """T_m = (+)_{p+q=m} S_p(W_q) with D = d_cube + (-1)^p del, laid out by
    `_Cube` and built in one pass; its one D^2 check covers each cube d^2.
    `walk` holds one `_Injections` per module, kept by a caller that builds
    the levels 0, 1, ..., n in turn; given, only the pairs through q_max + 2
    are multiplied (see `_differentials`)."""
    cube = _Cube(n, W.q_min, W.modules, W.diff_level, walk)
    return TotalComplexAt(cube, _differentials(cube, "D^2 != 0 at total degree %d (bug)"))


def hyper_degrees(W: FIComplex, krange) -> DegreeProfile:
    """t_k over k in krange = (k_lo, k_hi): top level with H_k(Tot) != 0.

    The pairs through q_max + 2 are multiplied at each level, which checks
    every D^2 relation in the ascending walk; H_k reads D_k and D_{k+1}, so
    each higher D_m is written only if m <= k_hi + 1, and only on the rows
    compression keeps (see `_differentials`).  The walk keeps one evaluator
    per module, so each face matrix is built once.
    """
    k_lo, k_hi = krange
    if k_lo > k_hi:
        raise ValueError("empty degree range %d..%d" % (k_lo, k_hi))
    evs = tuple(map(_Injections, W.modules))
    return _degree_profile(lambda n: hyper_total_complex(W, n, evs),
                           W.truncation, range(k_lo, k_hi + 1))


def levelwise_homology_module(W: FIComplex, k) -> FIModule:
    """H_k(W) as an FI-module over Q, with induced structure maps."""
    if W.ring != QQ:
        raise ValueError("levelwise homology module needs ring Q")
    N = W.truncation
    if not (W.q_min <= k <= W.q_max):
        return zero_module(N, QQ)
    quots = [QuotientCoords(W.diff_level(k + 1, n), W.diff_level(k, n))
             for n in range(N + 1)]
    return _quotient_module(W.module(k), [(q.proj, q.lift) for q in quots],
                            name="H_%d" % k)


# ---------------------------------------------------------------------------
# the shift cone identity


def _cube_chain_map(V, n, sd, A):
    """(A, B, phi): the cube complexes at level n of V (the given A) and of
    its shift SV (sd = shift_module(V)), and the chain map phi: A -> B
    induced by the natural map V -> SV."""
    B = fih_chain_complex(sd.module, n)
    phi = []
    for q in range(n + 1):
        rows = [{} for _ in range(B.size(q))]
        nat = _entries(sd.natural.levels[n - q])
        for S, off in A.offsets[q].items():
            _put_entries(rows, B.offsets[q][S], off, nat)
        phi.append(Matrix(V.ring, B.size(q), A.size(q), rows))
    return A, B, tuple(phi)


def _shift_levels(V, top, sd):
    """(A, B, phi, C) for n = 1..top: `_cube_chain_map` at level n and the
    cube complex C of V at n + 1, which is the next level's A.  So each cube
    of V at 1..top+1 and of SV at 1..top is built once, on the shift sd of V."""
    A = fih_chain_complex(V, 1) if top > 0 else None
    for n in range(1, top + 1):
        C = fih_chain_complex(V, n + 1)
        yield _cube_chain_map(V, n, sd, A) + (C,)
        A = C


def _signed_regroup(C, A, B, p):
    """Q_p: C_p -> A_{p-1} (+) B_p; T w/o 0 -> A-part, T with 0 -> B-part.

    Signs (-1)^{p-1} on the A-part and (-1)^p on the B-part turn the
    regrouped differential of C into the standard mapping cone of phi.
    """
    V = C.module
    n = C.level - 1
    adim, bdim = A.size(p - 1), B.size(p)
    rows = [{} for _ in range(adim + bdim)]
    a_sign = -1 if (p - 1) % 2 else 1
    b_sign = -1 if p % 2 else 1
    aoff = A.offsets[p - 1] if 0 <= p - 1 <= n else {}
    boff = B.offsets[p] if 0 <= p <= n else {}
    for T, off in C.offsets[p].items():
        d = V.dims[len(T)]
        if 0 not in T:
            U = tuple(t - 1 for t in T)
            base = aoff[U]
            for e in range(d):
                rows[base + e][off + e] = a_sign
        else:
            R = tuple(t - 1 for t in T if t != 0)
            base = adim + boff[R]
            for e in range(d):
                rows[base + e][off + e] = b_sign
    return Matrix(V.ring, adim + bdim, C.size(p), rows)


def _cone_holds(A, B, phi, C):
    """Does the cube C of V at n+1 regroup to cone(phi: A -> B)?  Its subsets
    avoiding the element 0 form the cube A of V at n, those containing it
    the cube B of SV at n; checked as exact matrix equality after the
    signed regrouping."""
    n = A.level
    for p in range(0, n + 2):
        if C.size(p) != A.size(p - 1) + B.size(p):
            return False
    ring = C.module.ring
    for p in range(1, n + 2):
        Qp = _signed_regroup(C, A, B, p)
        Qprev = _signed_regroup(C, A, B, p - 1)
        lhs = Qprev @ C.differential(p)
        # cone differential: [[-d_A, 0], [phi, d_B]] on A_{p-1} (+) B_p
        blocks = {}
        if 1 <= p - 1 <= n:
            blocks[(0, 0)] = -A.differential(p - 1)
        if 0 <= p - 1 <= n:
            blocks[(1, 0)] = phi[p - 1]
        if 1 <= p <= n:
            blocks[(1, 1)] = B.differential(p)
        cone_d = block_matrix(ring,
                              [A.size(p - 2), B.size(p - 1)],
                              [A.size(p - 1), B.size(p)], blocks)
        if lhs != cone_d @ Qp:
            return False
    return True


def _three_term_exact(A, B, phi, C, a):
    """Exactness of H_a V(n_) -> H_a SV(n_) -> H_a V(n+1_) at the middle, over
    Q, on the cubes of `_shift_levels` at n: phi induces the first map, the
    signed B-part inclusion into the regrouped cube C the second."""
    n = A.level
    qa = QuotientCoords(A.boundary_in(a), A.boundary_out(a))
    qb = QuotientCoords(B.boundary_in(a), B.boundary_out(a))
    qc = QuotientCoords(C.boundary_in(a), C.boundary_out(a))
    alpha = qa.induced(phi[a], qb) if 0 <= a <= n else Matrix.zeros(QQ, qb.dim, 0)
    # signed inclusion psi_p = (-1)^p (B_p -> C_p), a chain map by the cone signs
    # psi = Q_a^{-1} restricted to the B block; Q_a is a signed permutation,
    # so its inverse is its transpose
    Qa = _signed_regroup(C, A, B, a)
    psi = Matrix(QQ, B.size(a), C.size(a), Qa.rows[A.size(a - 1):]).transpose()
    beta = qb.induced(psi, qc)
    if not (beta @ alpha).is_zero():
        return False
    return rank(alpha) + rank(beta) == qb.dim
