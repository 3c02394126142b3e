"""Exact linear algebra over Z and Q.

Smith normal form with unimodular transforms, ranks, kernels, cokernels,
and homology classes of complexes of free modules.

Matrices are immutable and sparse: one dict {col: entry} per row, zeros
never stored.  Integer matrices hold Python ints, rational ones hold
Fraction values (always in lowest terms with positive denominator, which
Fraction guarantees).  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

ZZ = "Z"
QQ = "Q"

RINGS = (ZZ, QQ)


def _coerce(ring, x):
    if ring == ZZ:
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise TypeError("non-integral entry %r in a Z matrix" % (x,))
            return int(x)
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError("bad Z entry %r" % (x,))
        return x
    if ring == QQ:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError("bad Q entry %r" % (x,))
        return Fraction(x)
    raise ValueError("unknown ring %r" % (ring,))


class Matrix:
    """Immutable exact matrix over Z or Q.

    >>> m = Matrix.from_rows(ZZ, [[1, 2], [0, 3]])
    >>> (m @ m).to_rows()
    [[1, 8], [0, 9]]
    >>> m.transpose().to_rows()
    [[1, 0], [2, 3]]
    """

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring, nrows, ncols, rows):
        if ring not in RINGS:
            raise ValueError("unknown ring %r" % (ring,))
        if nrows < 0 or ncols < 0:
            raise ValueError("negative shape")
        if len(rows) != nrows:
            raise ValueError("row count mismatch")
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.rows = tuple(rows)

    @classmethod
    def from_rows(cls, ring, data, ncols=None):
        nrows = len(data)
        if ncols is None:
            if nrows == 0:
                raise ValueError("ncols required for a 0-row matrix")
            ncols = len(data[0])
        rows = []
        for r in data:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            d = {}
            for j, x in enumerate(r):
                x = _coerce(ring, x)
                if x:
                    d[j] = x
            rows.append(d)
        return cls(ring, nrows, ncols, rows)

    @classmethod
    def from_flat(cls, ring, nrows, ncols, flat):
        if len(flat) != nrows * ncols:
            raise ValueError("flat entry count %d != %d x %d" % (len(flat), nrows, ncols))
        rows = []
        for i in range(nrows):
            d = {}
            for j in range(ncols):
                x = _coerce(ring, flat[i * ncols + j])
                if x:
                    d[j] = x
            rows.append(d)
        return cls(ring, nrows, ncols, rows)

    @classmethod
    def from_sparse(cls, ring, nrows, ncols, rows):
        clean = []
        for r in rows:
            d = {}
            for j, x in r.items():
                if not (0 <= j < ncols):
                    raise ValueError("column index out of range")
                x = _coerce(ring, x)
                if x:
                    d[j] = x
            clean.append(d)
        return cls(ring, nrows, ncols, clean)

    @classmethod
    def zeros(cls, ring, nrows, ncols):
        return cls(ring, nrows, ncols, [{} for _ in range(nrows)])

    @classmethod
    def identity(cls, ring, n):
        one = 1 if ring == ZZ else Fraction(1)
        return cls(ring, n, n, [{i: one} for i in range(n)])

    @classmethod
    def diagonal(cls, ring, nrows, ncols, diag):
        rows = [{} for _ in range(nrows)]
        for i, x in enumerate(diag):
            x = _coerce(ring, x)
            if x:
                rows[i][i] = x
        return cls(ring, nrows, ncols, rows)

    def entry(self, i, j):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError((i, j))
        zero = 0 if self.ring == ZZ else Fraction(0)
        return self.rows[i].get(j, zero)

    def to_rows(self):
        zero = 0 if self.ring == ZZ else Fraction(0)
        return [[r.get(j, zero) for j in range(self.ncols)] for r in self.rows]

    def to_flat(self):
        zero = 0 if self.ring == ZZ else Fraction(0)
        out = []
        for r in self.rows:
            out.extend(r.get(j, zero) for j in range(self.ncols))
        return out

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_zero(self):
        return all(not r for r in self.rows)

    def nnz(self):
        return sum(len(r) for r in self.rows)

    def transpose(self):
        rows = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                rows[j][i] = v
        return Matrix(self.ring, self.ncols, self.nrows, rows)

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring:
            raise ValueError("ring mismatch %s @ %s" % (self.ring, other.ring))
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch %s @ %s" % (self.shape, other.shape))
        orows = other.rows
        rows = []
        for r in self.rows:
            acc = {}
            for k, v in r.items():
                for j, w in orows[k].items():
                    s = acc.get(j)
                    s = v * w if s is None else s + v * w
                    if s:
                        acc[j] = s
                    elif j in acc:
                        del acc[j]
            rows.append(acc)
        return Matrix(self.ring, self.nrows, other.ncols, rows)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring or self.shape != other.shape:
            raise ValueError("incompatible shapes/rings")
        rows = []
        for r, s in zip(self.rows, other.rows):
            d = dict(r)
            for j, v in s.items():
                w = d.get(j)
                w = v if w is None else w + v
                if w:
                    d[j] = w
                elif j in d:
                    del d[j]
            rows.append(d)
        return Matrix(self.ring, self.nrows, self.ncols, rows)

    def __neg__(self):
        return Matrix(self.ring, self.nrows, self.ncols,
                      [{j: -v for j, v in r.items()} for r in self.rows])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _coerce(self.ring, c)
        if not c:
            return Matrix.zeros(self.ring, self.nrows, self.ncols)
        return Matrix(self.ring, self.nrows, self.ncols,
                      [{j: c * v for j, v in r.items()} for r in self.rows])

    def mul_vec(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        out = []
        zero = 0 if self.ring == ZZ else Fraction(0)
        for r in self.rows:
            s = zero
            for j, v in r.items():
                s += v * vec[j]
            out.append(s)
        return out

    def column(self, j):
        zero = 0 if self.ring == ZZ else Fraction(0)
        return [r.get(j, zero) for r in self.rows]

    def to_ring(self, ring):
        if ring == self.ring:
            return self
        return Matrix.from_sparse(ring, self.nrows, self.ncols,
                                  [dict(r) for r in self.rows])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.shape == other.shape
                and all(r == s for r, s in zip(self.rows, other.rows)))

    def __repr__(self):
        return "Matrix(%s, %dx%d, nnz=%d)" % (self.ring, self.nrows, self.ncols, self.nnz())


def block_matrix(ring, row_dims, col_dims, blocks):
    """Assemble a matrix from blocks: {(bi, bj): Matrix}.

    row_dims/col_dims give the block sizes; absent blocks are zero.
    """
    roff = [0]
    for d in row_dims:
        roff.append(roff[-1] + d)
    coff = [0]
    for d in col_dims:
        coff.append(coff[-1] + d)
    rows = [{} for _ in range(roff[-1])]
    for (bi, bj), blk in blocks.items():
        if blk.ring != ring:
            raise ValueError("block ring mismatch")
        if blk.shape != (row_dims[bi], col_dims[bj]):
            raise ValueError("block (%d,%d) has shape %s, expected %s"
                             % (bi, bj, blk.shape, (row_dims[bi], col_dims[bj])))
        r0, c0 = roff[bi], coff[bj]
        for i, r in enumerate(blk.rows):
            tgt = rows[r0 + i]
            for j, v in r.items():
                w = tgt.get(c0 + j)
                w = v if w is None else w + v
                if w:
                    tgt[c0 + j] = w
                elif c0 + j in tgt:
                    del tgt[c0 + j]
    return Matrix(ring, roff[-1], coff[-1], rows)


# ---------------------------------------------------------------------------
# rank


def _int_rows(M):
    """Sparse integer rows {i: row} with the same row space rank as M.

    Rational rows are cleared by their denominator lcm and every row is
    divided by its content; both are row scalings, so rank is preserved.
    """
    out = {}
    for i, r in enumerate(M.rows):
        if not r:
            continue
        if M.ring == QQ:
            mult = lcm(*(v.denominator for v in r.values()))
            d = {j: int(v * mult) for j, v in r.items()}
        else:
            d = dict(r)
        g = gcd(*d.values())
        if g > 1:
            d = {j: v // g for j, v in d.items()}
        out[i] = d
    return out


def _eliminate(rows, units_only):
    """Sparse elimination of integer rows {i: {j: v}}, in place.

    Unit pivots come first, last found first: a row holding +-1 at column
    j clears column j from every other row by r <- r - (r[j]*pv)*prow and
    is dropped.  Its other entries die by column operations touching only
    that row, so each unit pivot is one unit elementary divisor.  Unless
    `units_only`, an empty queue lets a non-unit pivot pv (shortest row,
    smallest entry) clear its column fraction-free, r <- (pv/g) r - (a/g) prow
    with g = gcd(pv, a), each result divided by its content: that keeps the
    rank, not the divisors.  Returns (pivot count, residue rows).
    """
    cols = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    queue = [(i, j) for i, r in rows.items() for j, v in r.items() if v in (1, -1)]
    count = 0
    while True:
        if queue:
            pi, pj = queue.pop()
            r = rows.get(pi)
            if r is None or r.get(pj) not in (1, -1):
                continue
        elif rows and not units_only:
            pi = min(rows, key=lambda i: len(rows[i]))
            r = rows[pi]
            pj = min(r, key=lambda j: abs(r[j]))
        else:
            return count, rows
        pv = r[pj]
        unit = pv in (1, -1)
        for i in list(cols[pj]):
            if i == pi:
                continue
            ri = rows[i]
            if unit:
                q = ri[pj] * pv  # ri - q*r zeroes column pj since pv*pv == 1
            else:
                g = gcd(pv, ri[pj])
                q = ri[pj] // g
                s = pv // g
                if s != 1:
                    for j in ri:
                        ri[j] *= s
            for j, v in r.items():
                w = ri.get(j, 0) - q * v
                if w:
                    if j not in ri:
                        cols.setdefault(j, set()).add(i)
                    ri[j] = w
                    if w in (1, -1):
                        queue.append((i, j))
                elif j in ri:
                    del ri[j]
                    cols[j].discard(i)
            if not ri:
                del rows[i]
            elif not unit:
                g = gcd(*ri.values())
                if g > 1:
                    for j in ri:
                        ri[j] //= g
                    queue.extend((i, j) for j, v in ri.items() if v in (1, -1))
        for j in r:
            cols[j].discard(pi)
        del rows[pi]
        count += 1


def rank(M):
    """Rank of M, by sparse fraction-free elimination."""
    return _eliminate(_int_rows(M), False)[0]


# ---------------------------------------------------------------------------
# reduced row echelon form over Q, kernels


def rref(M):
    """(pivot columns, reduced dense rows) of a rational RREF of M."""
    rows = [[Fraction(x) for x in row] for row in M.to_rows()]
    nr, nc = M.nrows, M.ncols
    pivots = []
    ri = 0
    for j in range(nc):
        sel = None
        for i in range(ri, nr):
            if rows[i][j]:
                sel = i
                break
        if sel is None:
            continue
        rows[ri], rows[sel] = rows[sel], rows[ri]
        pv = rows[ri][j]
        if pv != 1:
            rows[ri] = [x / pv for x in rows[ri]]
        for i in range(nr):
            if i != ri and rows[i][j]:
                c = rows[i][j]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[ri])]
        pivots.append(j)
        ri += 1
        if ri == nr:
            break
    return pivots, rows[:ri]


def kernel_basis(M):
    """Basis of ker(M) as a list of column vectors.

    Over Q: from the RREF, one vector per free column.  Over Z: the zero
    columns of the SNF right transform, a basis of the kernel lattice
    (which is saturated, hence a direct summand).
    """
    if M.ring == QQ:
        pivots, rows = rref(M)
        pivset = set(pivots)
        free = [j for j in range(M.ncols) if j not in pivset]
        basis = []
        for f in free:
            v = [Fraction(0)] * M.ncols
            v[f] = Fraction(1)
            for i, p in enumerate(pivots):
                v[p] = -rows[i][f]
            basis.append(v)
        return basis
    res = snf(M)
    r = len([d for d in res.divisors() if d])
    return [res.V.column(j) for j in range(r, M.ncols)]


def rank_kernel(M):
    """(rank, kernel basis) of M; see kernel_basis for the basis choice."""
    basis = kernel_basis(M)
    return M.ncols - len(basis), basis


def image_basis(M):
    """Matrix whose columns are a basis of im(M).

    Over Q: the pivot columns of M (echelonized).  Over Z: a lattice basis
    d_i * Uinv[:, i] read off the Smith form.
    """
    if M.ring == QQ:
        pivots, rows = rref(M.transpose())
        cols = [[rows[i][j] for j in range(M.nrows)] for i in range(len(rows))]
        return Matrix.from_rows(QQ, [list(c) for c in zip(*cols)], ncols=len(cols)) \
            if cols else Matrix.zeros(QQ, M.nrows, 0)
    res = snf(M)
    ds = [d for d in res.divisors() if d]
    rows = [{} for _ in range(M.nrows)]
    for i, d in enumerate(ds):
        for k, v in enumerate(res.U_inv.column(i)):
            if v:
                rows[k][i] = d * v
    return Matrix(ZZ, M.nrows, len(ds), rows)


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SNFResult:
    """U @ M @ V == S with S diagonal, d_1 | d_2 | ..., U, V unimodular."""

    S: Matrix
    U: Matrix
    V: Matrix
    U_inv: Matrix
    V_inv: Matrix

    def divisors(self):
        n = min(self.S.nrows, self.S.ncols)
        return [self.S.entry(i, i) for i in range(n)]


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def snf(M):
    """Smith normal form of an integer matrix, with transforms.

    Row/column reduction by 2x2 unimodular (xgcd) steps, which keeps
    coefficient growth polynomial.  Correctness rests on the returned
    identity U @ M @ V == S, not on the pivot strategy.
    """
    if M.ring != ZZ:
        raise ValueError("snf needs a Z matrix, got ring %s" % M.ring)
    m, n = M.nrows, M.ncols
    A = [[M.entry(i, j) for j in range(n)] for i in range(m)]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    Ui = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    Vi = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, k, q):  # R_i -= q R_k ; U follows, Uinv absorbs the inverse
        A[i] = [a - q * b for a, b in zip(A[i], A[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]
        for t in range(m):
            Ui[t][k] += q * Ui[t][i]

    def row_swap(i, k):
        A[i], A[k] = A[k], A[i]
        U[i], U[k] = U[k], U[i]
        for t in range(m):
            Ui[t][i], Ui[t][k] = Ui[t][k], Ui[t][i]

    def row_neg(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]
        for t in range(m):
            Ui[t][i] = -Ui[t][i]

    def row_mix(i, k, x, y, z, w):
        # (R_i, R_k) <- (x R_i + y R_k, z R_i + w R_k), det = xw - yz = 1
        A[i], A[k] = ([x * a + y * b for a, b in zip(A[i], A[k])],
                      [z * a + w * b for a, b in zip(A[i], A[k])])
        U[i], U[k] = ([x * a + y * b for a, b in zip(U[i], U[k])],
                      [z * a + w * b for a, b in zip(U[i], U[k])])
        for t in range(m):  # Uinv <- Uinv @ T^-1, T^-1 = [[w, -y], [-z, x]]
            ci, ck = Ui[t][i], Ui[t][k]
            Ui[t][i] = w * ci - z * ck
            Ui[t][k] = -y * ci + x * ck
    def col_op(j, k, q):  # C_j -= q C_k
        for t in range(m):
            A[t][j] -= q * A[t][k]
        for t in range(n):
            V[t][j] -= q * V[t][k]
        Vi[k] = [a + q * b for a, b in zip(Vi[k], Vi[j])]

    def col_swap(j, k):
        for t in range(m):
            A[t][j], A[t][k] = A[t][k], A[t][j]
        for t in range(n):
            V[t][j], V[t][k] = V[t][k], V[t][j]
        Vi[j], Vi[k] = Vi[k], Vi[j]

    def col_mix(j, k, x, y, z, w):
        # (C_j, C_k) <- (x C_j + y C_k, z C_j + w C_k), det = 1
        for t in range(m):
            cj, ck = A[t][j], A[t][k]
            A[t][j] = x * cj + y * ck
            A[t][k] = z * cj + w * ck
        for t in range(n):
            cj, ck = V[t][j], V[t][k]
            V[t][j] = x * cj + y * ck
            V[t][k] = z * cj + w * ck
        Vi[j], Vi[k] = ([w * a - z * b for a, b in zip(Vi[j], Vi[k])],
                        [-y * a + x * b for a, b in zip(Vi[j], Vi[k])])

    t = 0
    while t < m and t < n:
        # bring a small nonzero entry to the pivot slot
        piv = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                a = Ai[j]
                if a:
                    a = -a if a < 0 else a
                    if piv is None or a < piv[0]:
                        piv = (a, i, j)
                        if a == 1:
                            break
            if piv is not None and piv[0] == 1:
                break
        if piv is None:
            break
        _, pi, pj = piv
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if A[t][t] < 0:
            row_neg(t)
        while True:
            for i in range(t + 1, m):
                b = A[i][t]
                if b:
                    a = A[t][t]
                    if b % a == 0:
                        row_op(i, t, b // a)
                    else:
                        g, x, y = _xgcd(a, b)
                        row_mix(t, i, x, y, -(b // g), a // g)
            for j in range(t + 1, n):
                b = A[t][j]
                if b:
                    a = A[t][t]
                    if b % a == 0:
                        col_op(j, t, b // a)
                    else:
                        g, x, y = _xgcd(a, b)
                        col_mix(t, j, x, y, -(b // g), a // g)
            if all(A[i][t] == 0 for i in range(t + 1, m)):
                break  # col mixes can re-dirty column t; each one shrinks the pivot
        # divisibility: fold any non-multiple into row t and redo this pivot
        d = A[t][t]
        bad = None
        for i in range(t + 1, m):
            Ai = A[i]
            for j in range(t + 1, n):
                if Ai[j] % d:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)  # adds row `bad` to row t
            continue
        t += 1

    S = Matrix.from_rows(ZZ, A, ncols=n) if m else Matrix.zeros(ZZ, 0, n)
    return SNFResult(
        S=S,
        U=Matrix.from_rows(ZZ, U, ncols=m) if m else Matrix.zeros(ZZ, 0, 0),
        V=Matrix.from_rows(ZZ, V, ncols=n) if n else Matrix.zeros(ZZ, 0, 0),
        U_inv=Matrix.from_rows(ZZ, Ui, ncols=m) if m else Matrix.zeros(ZZ, 0, 0),
        V_inv=Matrix.from_rows(ZZ, Vi, ncols=n) if n else Matrix.zeros(ZZ, 0, 0),
    )


def elementary_divisors(M):
    """Nonzero diagonal of the Smith form of M, without transforms.

    Unit pivots are peeled off sparsely first (`_eliminate` in unit mode,
    one unit divisor each).  The small residue goes through the dense
    routine.
    """
    if M.ring != ZZ:
        raise ValueError("elementary divisors need a Z matrix")
    ones, rows = _eliminate({i: dict(r) for i, r in enumerate(M.rows) if r}, True)
    if not rows:
        return [1] * ones
    # dense residue
    live_rows = sorted(rows)
    live_cols = sorted({j for r in rows.values() for j in r})
    cindex = {j: k for k, j in enumerate(live_cols)}
    dense = [[0] * len(live_cols) for _ in live_rows]
    for k, i in enumerate(live_rows):
        for j, v in rows[i].items():
            dense[k][cindex[j]] = v
    res = snf(Matrix.from_rows(ZZ, dense, ncols=len(live_cols)))
    tail = [d for d in res.divisors() if d]
    return [1] * ones + tail


def _bareiss(A):
    """Determinant of a square integer matrix given as dense rows (consumed)."""
    n = len(A)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not A[k][k]:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1] if n else 1


def det(M):
    """Determinant, by Bareiss fraction-free elimination.

    Over Q each row i is first cleared by the lcm L_i of its denominators,
    so det M = det(integer rows) / prod L_i.
    """
    if M.nrows != M.ncols:
        raise ValueError("determinant of a non-square matrix")
    A = M.to_rows()
    if M.ring == ZZ:
        return _bareiss(A)
    mults = [lcm(*(x.denominator for x in row)) for row in A]
    A = [[int(x * L) for x in row] for row, L in zip(A, mults)]
    return Fraction(_bareiss(A), prod(mults))


def solve_matrix(A, B):
    """X with A @ X = B, exactly, or None if no solution exists.

    Over Z via the Smith form A = U^-1 S V^-1: solve S Y = U B entry by
    entry (each must divide), then X = V Y.  Over Q by back substitution
    from the reduced row echelon form.
    """
    if A.ring != B.ring or A.nrows != B.nrows:
        raise ValueError("incompatible shapes for solve")
    if A.ring == ZZ:
        res = snf(A)
        rhs = res.U @ B
        diag = [res.S.entry(i, i) for i in range(min(A.nrows, A.ncols))]
        yrows = [{} for _ in range(A.ncols)]
        for i in range(A.nrows):
            row = rhs.rows[i]
            d = diag[i] if i < len(diag) else 0
            if not d:
                if row:
                    return None
                continue
            for j, v in row.items():
                if v % d:
                    return None
                yrows[i][j] = v // d
        Y = Matrix(A.ring, A.ncols, B.ncols, yrows)
        return res.V @ Y
    aug = Matrix.from_rows(QQ, [
        [A.entry(i, j) for j in range(A.ncols)]
        + [B.entry(i, c) for c in range(B.ncols)]
        for i in range(A.nrows)], ncols=A.ncols + B.ncols)
    apiv, arows = rref(aug)
    xrows = [{} for _ in range(A.ncols)]
    for rrow, p in zip(arows, apiv):
        if p >= A.ncols:
            return None  # a pivot in the B block: inconsistent system
        for c in range(B.ncols):
            v = rrow[A.ncols + c]
            if v:
                xrows[p][c] = v
    return Matrix(QQ, A.ncols, B.ncols, xrows)


# ---------------------------------------------------------------------------
# abelian groups and homology


@dataclass(frozen=True)
class AbelianClass:
    """Isomorphism class of a finitely generated abelian group.

    rank plus a divisibility chain of torsion orders:

    >>> AbelianClass(1, (2, 6))
    AbelianClass(rank=1, torsion=(2, 6))
    >>> AbelianClass(1, (2, 6)).is_zero()
    False
    >>> str(AbelianClass(0, ()))
    '0'
    >>> str(AbelianClass(2, (3,)))
    'Z^2 + Z/3'
    """

    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        prev = None
        for t in self.torsion:
            if t < 2:
                raise ValueError("torsion order %r < 2" % (t,))
            if prev is not None and t % prev:
                raise ValueError("broken divisibility chain %r" % (self.torsion,))
            prev = t

    def is_zero(self):
        return self.rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append("Z^%d" % self.rank)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " + ".join(parts) if parts else "0"


class CompositionError(ValueError):
    """d_out @ d_in != 0: the two maps do not form a complex."""


def homology_class(d_in, d_out):
    """Homology ker(d_out)/im(d_in) of  . --d_in--> C --d_out--> .  .

    Over Q the class is free of rank dim ker(d_out) - rank(d_in).  Over Z
    the torsion equals the nontrivial elementary divisors of d_in: the
    kernel of d_out is a saturated (direct summand) sublattice, and the
    quotient of the ambient lattice by ker(d_out) is free, so all torsion
    of coker(d_in) lives in ker(d_out)/im(d_in).
    """
    if d_in.ring != d_out.ring:
        raise ValueError("ring mismatch")
    if d_in.nrows != d_out.ncols:
        raise ValueError("middle dimension mismatch: %s vs %s" % (d_in.shape, d_out.shape))
    if not (d_out @ d_in).is_zero():
        raise CompositionError("d_out @ d_in != 0")
    if d_in.ring == QQ:
        r = d_out.ncols - rank(d_out) - rank(d_in)
        if r < 0:
            raise AssertionError("negative homology rank")
        return AbelianClass(r, ())
    divs = elementary_divisors(d_in)
    r = d_out.ncols - rank(d_out) - len(divs)
    if r < 0:
        raise AssertionError("negative homology rank")
    return AbelianClass(r, tuple(d for d in divs if d > 1))


class QuotientCoords:
    """Explicit coordinates on H = ker(d_out)/im(d_in) over Q.

    Used wherever an actual basis of a homology or cokernel space is
    needed (induced maps on homology, cokernel FI-modules).  `reduce`
    sends an ambient cycle to its class coordinates, `rep` lifts a basis
    class back to the ambient space.
    """

    def __init__(self, d_in, d_out):
        if d_in.ring != QQ or d_out.ring != QQ:
            raise ValueError("QuotientCoords works over Q")
        if d_in.nrows != d_out.ncols:
            raise ValueError("middle dimension mismatch")
        self.ambient_dim = d_in.nrows
        pivots, rows = rref(d_out)
        pivset = set(pivots)
        self._free = [j for j in range(d_out.ncols) if j not in pivset]
        self._kpivots = pivots
        self._krows = rows
        # kernel basis column f: 1 at f, -rref coeffs at the pivot rows;
        # its restriction to the free positions is the identity, so
        # kernel coordinates of a cycle are just its free-position entries.
        y = [[d_in.entry(f, j) for j in range(d_in.ncols)] for f in self._free]
        ymat = Matrix.from_rows(QQ, y, ncols=d_in.ncols)
        ypiv, yrows = rref(ymat.transpose())
        self._qpivots = ypiv
        self._qrows = yrows
        qpivset = set(ypiv)
        self._coords = [t for t in range(len(self._free)) if t not in qpivset]
        self.dim = len(self._coords)

    def kernel_vector(self, kcoords):
        v = [Fraction(0)] * self.ambient_dim
        for t, f in enumerate(self._free):
            c = kcoords[t]
            if c:
                v[f] += c
                for i, p in enumerate(self._kpivots):
                    v[p] -= c * self._krows[i][f]
        return v

    def reduce(self, vec):
        """Class coordinates of an ambient cycle (must lie in ker d_out)."""
        k = [Fraction(vec[f]) for f in self._free]
        for row, p in zip(self._qrows, self._qpivots):
            c = k[p]
            if c:
                k = [a - c * b for a, b in zip(k, row)]
        return [k[t] for t in self._coords]

    def rep(self, t):
        """Ambient representative of the t-th basis class."""
        k = [Fraction(0)] * len(self._free)
        k[self._coords[t]] = Fraction(1)
        return self.kernel_vector(k)

    def rep_matrix(self):
        cols = [self.rep(t) for t in range(self.dim)]
        rows = [{} for _ in range(self.ambient_dim)]
        for t, col in enumerate(cols):
            for i, v in enumerate(col):
                if v:
                    rows[i][t] = v
        return Matrix(QQ, self.ambient_dim, self.dim, rows)

    def induced(self, chain_map, target):
        """Matrix of the map H -> H' induced by an ambient chain_map."""
        rows = [{} for _ in range(target.dim)]
        for t in range(self.dim):
            img = chain_map.mul_vec(self.rep(t))
            for i, v in enumerate(target.reduce(img)):
                if v:
                    rows[i][t] = v
        return Matrix(QQ, target.dim, self.dim, rows)
