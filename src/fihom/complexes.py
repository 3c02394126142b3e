"""FI-chain complexes and their hyperhomology degrees.

An FIComplex is a bounded complex of FI-modules W_q with differentials
that are FI-morphisms.  Its hyperhomology at a level n is computed by
the total complex of the bicomplex whose rows are the cube complexes of
the W_q: T_m = (+)_{p+q=m} (+)_{|S|=n-p} W_q(S), with D = d_cube +
(-1)^p del.  Negative degrees are allowed so that cochain complexes fit
as negatively graded chain complexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .fimodule import (
    FIModule, shift_module, truncate, validate, validate_morphism, zero_module,
)
from .homology import DegreeProfile, fih_chain_complex
from .linalg import (
    AbelianClass, Matrix, QQ, QuotientCoords, block_matrix, homology_class, rank,
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
            if d.source is not self.modules[t + 1] or d.target is not self.modules[t]:
                if d.source.dims != self.modules[t + 1].dims or \
                        d.target.dims != self.modules[t].dims:
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


def single_module_complex(V: FIModule, q=0) -> FIComplex:
    return FIComplex(V.ring, V.truncation, q, (V,), ())


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


@dataclass(frozen=True)
class TotalComplexAt:
    """Total complex of the cube bicomplex of an FIComplex at one level."""

    level: int
    m_min: int
    m_max: int
    sizes: dict                      # m -> dim T_m
    D: dict = field(repr=False)      # m -> matrix T_m -> T_{m-1}
    ring: str = "Z"

    def size(self, m):
        return self.sizes.get(m, 0)

    def boundary_out(self, m):
        if m in self.D:
            return self.D[m]
        return Matrix.zeros(self.ring, 0, self.size(m))

    def boundary_in(self, m):
        if m + 1 in self.D:
            return self.D[m + 1]
        return Matrix.zeros(self.ring, self.size(m), 0)

    def homology(self, m):
        if self.size(m) == 0:
            return AbelianClass(0)
        return homology_class(self.boundary_in(m), self.boundary_out(m))


def hyper_total_complex(W: FIComplex, n) -> TotalComplexAt:
    """T_m = (+)_{p+q=m} S_p(W_q) with D = d_cube + (-1)^p del; D^2 = 0."""
    if n > W.truncation or n < 0:
        raise ValueError("level %d outside truncation %d" % (n, W.truncation))
    ring = W.ring
    rows_ = {q: fih_chain_complex(W.module(q), n)
             for q in range(W.q_min, W.q_max + 1)}
    m_min, m_max = W.q_min, W.q_max + n

    def blocks_of(m):
        """(p, q) pairs contributing to T_m, in ascending q."""
        out = []
        for q in range(W.q_min, W.q_max + 1):
            p = m - q
            if 0 <= p <= n:
                out.append((p, q))
        return out

    sizes = {}
    layouts = {}
    for m in range(m_min, m_max + 1):
        off = 0
        offs = {}
        for p, q in blocks_of(m):
            offs[(p, q)] = off
            off += rows_[q].size(p)
        layouts[m] = offs
        sizes[m] = off

    D = {}
    for m in range(m_min + 1, m_max + 1):
        src = layouts[m]
        tgt = layouts[m - 1]
        mat_rows = [{} for _ in range(sizes[m - 1])]

        def write(toff, soff, blk, scale=1):
            for i, r in enumerate(blk.rows):
                for j, v in r.items():
                    w = scale * v
                    cur = mat_rows[toff + i].get(soff + j, 0) + w
                    if cur:
                        mat_rows[toff + i][soff + j] = cur
                    else:
                        mat_rows[toff + i].pop(soff + j, None)

        for (p, q), soff in src.items():
            if p >= 1 and (p - 1, q) in tgt:
                write(tgt[(p - 1, q)], soff, rows_[q].differential(p))
            if (p, q - 1) in tgt:
                # vertical: del applied on each subset summand, Koszul (-1)^p
                sgn = -1 if p % 2 else 1
                lvl = W.diff_level(q, n - p)
                cnt = comb(n, n - p)
                sdim = W.module(q).dims[n - p]
                tdim = W.module(q - 1).dims[n - p]
                toff = tgt[(p, q - 1)]
                for t in range(cnt):
                    write(toff + t * tdim, soff + t * sdim, lvl, sgn)
        D[m] = Matrix(ring, sizes[m - 1], sizes[m], mat_rows)
    for m in range(m_min + 2, m_max + 1):
        if not (D[m - 1] @ D[m]).is_zero():
            raise ArithmeticError("D^2 != 0 at total degree %d (bug)" % m)
    return TotalComplexAt(n, m_min, m_max, sizes, D, ring)


def hyper_group(W: FIComplex, n, m) -> AbelianClass:
    return hyper_total_complex(W, n).homology(m)


def hyper_degrees(W: FIComplex, krange) -> DegreeProfile:
    """t_k over k in krange = (k_lo, k_hi): top level with H_k(Tot) != 0."""
    k_lo, k_hi = krange
    N = W.truncation
    totals = [hyper_total_complex(W, n) for n in range(N + 1)]
    values, certified = {}, {}
    for k in range(k_lo, k_hi + 1):
        top = None
        for n in range(N + 1):
            if not totals[n].homology(k).is_zero():
                top = n
        values[k] = top
        certified[k] = top is not None and top < N
    return DegreeProfile(N, values, certified)


def derivative_two_term(V: FIModule) -> FIComplex:
    """The complex [V -> SV] in degrees 1, 0 computing the derived derivative."""
    sd = shift_module(V)
    return FIComplex(V.ring, V.truncation - 1, 0,
                     (sd.module, sd.natural.source), (sd.natural,))


def levelwise_homology_module(W: FIComplex, k) -> FIModule:
    """H_k(W) as an FI-module over Q, with induced structure maps."""
    if W.ring != QQ:
        raise ValueError("levelwise homology module needs ring Q")
    N = W.truncation
    if not (W.q_min <= k <= W.q_max):
        return zero_module(N, QQ)
    Wk = W.module(k)
    quots = [QuotientCoords(W.diff_level(k + 1, n), W.diff_level(k, n))
             for n in range(N + 1)]
    dims = tuple(q.dim for q in quots)
    iotas = tuple(quots[n].induced(Wk.iota[n], quots[n + 1]) for n in range(N))
    trans = tuple(
        tuple(quots[n].induced(Wk.transposition(n, i), quots[n])
              for i in range(1, n))
        for n in range(N + 1))
    return FIModule(QQ, N, dims, iotas, trans, name="H_%d" % k)


# ---------------------------------------------------------------------------
# the shift cone identity


def _cube_chain_map(V, SV, nat, n):
    """The map of cube complexes at level n induced by nat: V -> SV."""
    A = fih_chain_complex(V, n)
    B = fih_chain_complex(SV, n)
    phi = []
    for q in range(n + 1):
        k = n - q
        rows = [{} for _ in range(B.size(q))]
        lvl = nat.levels[k]
        cnt = comb(n, k)
        for t in range(cnt):
            for i, r in enumerate(lvl.rows):
                for j, v in r.items():
                    rows[t * SV.dims[k] + i][t * V.dims[k] + j] = v
        phi.append(Matrix(V.ring, B.size(q), A.size(q), rows))
    return A, B, tuple(phi)


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


def shift_cone_check(V: FIModule, n) -> bool:
    """Does the cube complex at n+1 regroup to cone(cube V(n) -> cube SV(n))?

    The (n+1)-cube splits along the element 0 into the subsets avoiding
    it (the cube of V at n) and those containing it (the cube of SV at
    n); checked as exact matrix equality after the signed regrouping.
    """
    if n + 1 > V.truncation:
        raise ValueError("need n + 1 <= truncation")
    sd = shift_module(V)
    A, B, phi = _cube_chain_map(truncate(V, V.truncation - 1), sd.module,
                                sd.natural, n)
    C = fih_chain_complex(V, n + 1)
    for p in range(0, n + 2):
        if C.size(p) != A.size(p - 1) + B.size(p):
            return False
    ring = V.ring
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


def shift_three_term_exactness(V: FIModule, n, a) -> bool:
    """Exactness of H_a V(n_) -> H_a SV(n_) -> H_a V(n+1_) at the middle, over Q.

    The maps come from the subcube decomposition: the first is induced by
    the natural chain map, the second by the signed B-part inclusion into
    the regrouped (n+1)-cube.
    """
    if V.ring != QQ:
        raise ValueError("three-term exactness check runs over Q")
    if n + 1 > V.truncation:
        raise ValueError("need n + 1 <= truncation")
    sd = shift_module(V)
    A, B, phi = _cube_chain_map(truncate(V, V.truncation - 1), sd.module,
                                sd.natural, n)
    C = fih_chain_complex(V, n + 1)
    qa = QuotientCoords(A.boundary_in(a), A.boundary_out(a))
    qb = QuotientCoords(B.boundary_in(a), B.boundary_out(a))
    qc = QuotientCoords(C.boundary_in(a), C.boundary_out(a))
    alpha = qa.induced(phi[a], qb) if 0 <= a <= n else Matrix.zeros(QQ, qb.dim, 0)
    # signed inclusion psi_p = (-1)^p (B_p -> C_p), a chain map by the cone signs
    Qa = _signed_regroup(C, A, B, a)
    adim = A.size(a - 1)
    rows = [{} for _ in range(C.size(a))]
    # psi = Q_a^{-1} restricted to the B block; Q_a is a signed permutation,
    # so its inverse is its transpose
    for i, r in enumerate(Qa.rows):
        if i < adim:
            continue
        for j, v in r.items():
            rows[j][i - adim] = v
    psi = Matrix(QQ, C.size(a), B.size(a), rows)
    beta = qb.induced(psi, qc)
    if not (beta @ alpha).is_zero():
        return False
    return rank(alpha) + rank(beta) == qb.dim
