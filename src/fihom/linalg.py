"""Exact linear algebra over Z and Q.

Smith normal form with unimodular transforms, ranks, kernels, cokernels,
and homology classes of complexes of free modules.

Matrices are immutable and sparse: one dict {col: entry} per row, zeros
never stored.  Integer matrices hold Python ints.  A rational entry is an
int when integral and a Fraction otherwise, never a float; only `_coerce`
and the text reader in `io` normalize, and arithmetic results may stay a
Fraction with denominator 1.  The public readers return Fractions over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

ZZ = "Z"
QQ = "Q"

RINGS = (ZZ, QQ)


def _coerce(ring, x):
    """x as a stored entry: an int when integral, else a Fraction (Q only)."""
    if ring not in RINGS:
        raise ValueError("unknown ring %r" % (ring,))
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator
        if ring == ZZ:
            raise TypeError("non-integral entry %r in a Z matrix" % (x,))
        return x
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError("bad %s entry %r" % (ring, x))
    return x


def _read(ring, xs):
    """Entries as the public readers return them: Fractions over Q."""
    return xs if ring == ZZ else [Fraction(x) for x in xs]


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
        return cls(ring, n, n, [{i: 1} for i in range(n)])

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
        return _read(self.ring, [self.rows[i].get(j, 0)])[0]

    def to_rows(self):
        return [_read(self.ring, [r.get(j, 0) for j in range(self.ncols)])
                for r in self.rows]

    def to_flat(self):
        return _read(self.ring, [r.get(j, 0) for r in self.rows
                                 for j in range(self.ncols)])

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
        for r in self.rows:
            s = 0
            for j, v in r.items():
                s += v * vec[j]
            out.append(s)
        return out

    def column(self, j):
        return _read(self.ring, [r.get(j, 0) for r in self.rows])

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


def _put_block(rows, r0, c0, blk, negate=False):
    """rows[r0 + i][c0 + j] = blk[i, j], or -blk[i, j], on sparse rows.

    Only writes: the caller places blocks that share no entry with each
    other or with what the rows hold, so nothing is read, added or tested.
    A row left None is not written: the caller builds only the other rows.
    """
    for i, r in enumerate(blk.rows):
        tgt = rows[r0 + i]
        if tgt is None:
            continue
        for j, v in r.items():
            tgt[c0 + j] = -v if negate else v


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
        _put_block(rows, roff[bi], coff[bj], blk)
    return Matrix(ring, roff[-1], coff[-1], rows)


# ---------------------------------------------------------------------------
# rank


def _int_rows(M):
    """Sparse integer rows {i: row} of content 1, copied from the rows of
    M, zero rows left out (see `_own_int_rows`)."""
    return _own_int_rows({i: dict(r) for i, r in enumerate(M.rows) if r})


def _own_int_rows(rows):
    """The sparse rows {i: row}, handed over, made integer in place.

    A row holding a Fraction is cleared by its denominator lcm, and every
    row is divided by its content; row scalings keep the rank and the RREF.
    """
    for r in rows.values():
        try:
            g = gcd(*r.values())
        except TypeError:  # a Fraction entry: clear the denominators first
            mult = lcm(*(v.denominator for v in r.values()))
            for j, v in r.items():
                r[j] = v.numerator * (mult // v.denominator)
            g = gcd(*r.values())
        if g > 1:
            for j in r:
                r[j] //= g
    return rows


def _column_index(rows):
    """{col: set of row keys holding it} for the sparse rows {i: {j: v}}."""
    cols = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    return cols


def _clear(rows, cols, pi, pj, queue):
    """Clear column pj from every integer row but the pivot row rows[pi].

    In place, fraction-free: with a = r[pj], a row r becomes r - (a*pv)*prow
    for a unit pivot pv = +-1, else (pv/g) r - (a/g) prow, g = gcd(pv, a),
    divided by its content; either way a nonzero multiple of the row that
    Gauss-Jordan over Q leaves.  `cols` follows fills and cancellations,
    vanished rows are dropped, and entries left at +-1 go onto `queue`.
    """
    r = rows[pi]
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


def _eliminate(rows, units_only):
    """Sparse elimination of integer rows {i: {j: v}}, in place.

    Picks the pivots; `_clear` clears each column, then the pivot row is
    dropped.  Unit pivots come first, last found first: one scales no
    other row, and its row's other entries die by column operations on
    that row alone, so each is one unit elementary divisor.  Unless
    `units_only`, an empty queue takes a non-unit pivot (shortest row,
    smallest entry), which keeps the rank, not the divisors.  Returns
    (pivot columns in the order taken, residue rows).
    """
    cols = _column_index(rows)
    queue = [(i, j) for i, r in rows.items() for j, v in r.items() if v in (1, -1)]
    pivots = []
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
            return pivots, rows
        _clear(rows, cols, pi, pj, queue)
        for j in r:
            cols[j].discard(pi)
        del rows[pi]
        pivots.append(pj)


def _rank_of(rows):
    """(rank, pivot columns) of the sparse rows {i: row} handed over, which
    are consumed: made integer in place and eliminated.  The pivot columns
    are as many as the rank, independent over Q."""
    piv = _eliminate(_own_int_rows(rows), False)[0]
    return len(piv), piv


def rank(M):
    """Rank of M, by sparse fraction-free elimination of a copy of its rows."""
    return _rank_of({i: dict(row) for i, row in enumerate(M.rows) if row})[0]


# ---------------------------------------------------------------------------
# reduced row echelon form over Q, kernels


def rref(M):
    """(pivot columns, rows) of the reduced row echelon form of M over Q.

    Fraction-free Gauss-Jordan on `_int_rows(M)`, after Bareiss (Math.
    Comp. 22, 1968) and Nakos, Turner and Williams (SIGSAM Bull. 31, 1997).
    Each step pivots at the leftmost column live in the unplaced rows, on
    the shortest row holding it, and `_clear`s it from every other row.
    Each row stays a multiple of its Gauss-Jordan row over Q, so the
    pivots are those of the unique RREF, and row t is the placed row over
    its entry at pivots[t]: 1 there, the rest at non-pivot columns.
    Clearing only fills columns right of the pivot, so one left-to-right
    sweep meets every pivot.
    """
    rows = _int_rows(M)
    cols = _column_index(rows)
    pivots, placed, queue = [], {}, []
    for j in range(M.ncols):
        live = [i for i in cols.get(j, ()) if i not in placed]
        if not live:
            continue
        pi = min(live, key=lambda i: (len(rows[i]), i))
        _clear(rows, cols, pi, j, queue)
        queue.clear()  # rref picks its pivots by column, not from the queue
        pivots.append(j)
        placed[pi] = rows[pi]
    return pivots, [{k: Fraction(v, r[p]) for k, v in r.items()}
                    for p, r in zip(pivots, placed.values())]


def _kernel_matrix(ncols, pivots, rows):
    """(free columns, K) for an RREF: K's column t spans ker at free[t].

    Column t has 1 at free[t] and -rows[i][free[t]] at pivots[i], so the
    restriction of K to the free positions is the identity.
    """
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    at = {f: t for t, f in enumerate(free)}
    krows = [{at[j]: 1} if j in at else {} for j in range(ncols)]
    for p, r in zip(pivots, rows):
        krows[p] = {at[j]: -v for j, v in r.items() if j != p}
    return free, Matrix(QQ, ncols, len(free), krows)


def kernel_basis(M):
    """Basis of ker(M) as a list of column vectors.

    Over Q: from the RREF, one vector per free column.  Over Z: the zero
    columns of the SNF right transform, a basis of the kernel lattice
    (which is saturated, hence a direct summand).
    """
    if M.ring == QQ:
        K = _kernel_matrix(M.ncols, *rref(M))[1]
        return [K.column(t) for t in range(K.ncols)]
    res = _snf(M, V=True)
    r = len([d for d in res.divisors() if d])
    return [res.V.column(j) for j in range(r, M.ncols)]


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SNFResult:
    """U @ M @ V == S with S diagonal, d_1 | d_2 | ..., U, V unimodular.

    `snf` fills every field; `_snf` leaves the transforms not asked for None.
    """

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


def _dense_to_matrix(A, ncols):
    """Dense int rows as a Z Matrix, without from_rows' per-entry checks."""
    return Matrix(ZZ, len(A), ncols, [{j: v for j, v in enumerate(r) if v} for r in A])


def _transpose_rows(A, ncols):
    return [list(c) for c in zip(*A)] if A else [[] for _ in range(ncols)]


def _row_op(R, Ti, i, k, q, lo):
    """R_i -= q R_k on the rows R from column lo on; the rows Ti of the
    transpose of the inverse transform get R_k += q R_i."""
    X, Y = R[i], R[k]
    for c in range(lo, len(X)):
        X[c] -= q * Y[c]
    X, Y = Ti[k], Ti[i]
    for c in range(len(X)):
        X[c] += q * Y[c]


def _mix(T, Ti, i, k, x, y, z, w):
    """(R_i, R_k) <- (x R_i + y R_k, z R_i + w R_k) on T, xw - yz = 1; Ti follows."""
    T[i], T[k] = ([x * a + y * b for a, b in zip(T[i], T[k])],
                  [z * a + w * b for a, b in zip(T[i], T[k])])
    Ti[i], Ti[k] = ([w * a - z * b for a, b in zip(Ti[i], Ti[k])],
                    [-y * a + x * b for a, b in zip(Ti[i], Ti[k])])


def _hermite(R, Ti, S, Si, ncols):
    """Row Hermite form of A, with its columns permuted, in place.

    R holds the rows of [A | T], A with `ncols` columns and T the
    transform so far; Ti holds the rows of the transpose of T's inverse
    and follows every row op.  S and Si are the transforms of the other
    side, whose rows j and k swap when columns j and k of A do.  Step t
    takes the smallest nonzero entry left in the rows and columns t.. and
    swaps its column to t.  The other rows are reduced against the smallest
    entry of that column by nearest-integer quotients, round by round,
    until one nonzero entry is left; that pivot goes to (t, t), is made
    positive, and the entries above it are reduced into [0, pivot).  Rows
    t.. vanish before column t, so every row op starts at column t.
    """
    m = len(R)
    for t in range(min(m, ncols)):
        best = 0
        for i in range(t, m):
            Ri = R[i]
            for j in range(t, ncols):
                v = Ri[j]
                if v and (not best or abs(v) < best):
                    best, at = abs(v), j
            if best == 1:
                break
        if not best:
            return
        if at != t:
            for row in R:
                row[at], row[t] = row[t], row[at]
            for X in (S, Si):
                X[at], X[t] = X[t], X[at]
        while True:
            live = [i for i in range(t, m) if R[i][t]]
            p = min(live, key=lambda i: abs(R[i][t]))
            if len(live) == 1:
                break
            pv = R[p][t]
            for i in live:
                if i != p:
                    _row_op(R, Ti, i, p, (2 * R[i][t] + pv) // (2 * pv), t)
        if p != t:
            for X in (R, Ti):
                X[p], X[t] = X[t], X[p]
        if R[t][t] < 0:
            for X in (R, Ti):
                X[t] = [-a for a in X[t]]
        pv = R[t][t]
        for i in range(t):
            q = R[i][t] // pv
            if q:
                _row_op(R, Ti, i, t, q, t)


def _is_diagonal(A):
    return all(not v or i == j for i, r in enumerate(A) for j, v in enumerate(r))


def _smith(A, n, U, Ui_t, V_t, Vi):
    """Smith form of the dense rows A with n columns: (S rows, U, V^T).

    Row and column Hermite passes alternate until A is diagonal, after
    Kannan and Bachem (SIAM J. Comput. 8, 1979); then 2x2 gcd/lcm steps
    fix the divisibility chain.  The transforms come in as rows and follow
    every step: U and Ui_t = (U^-1)^T one row per row of A, V_t = V^T and
    Vi = V^-1 one per column; Ui_t and Vi change in place.  No step on A
    reads them, and a row op or swap on empty rows does nothing, so empty
    rows carry no transform and leave A's steps as they are.
    """
    m = len(A)
    while True:
        R = [a + u for a, u in zip(A, U)]
        _hermite(R, Ui_t, V_t, Vi, n)
        A, U = [r[:n] for r in R], [r[n:] for r in R]
        if _is_diagonal(A):
            break
        R = [a + v for a, v in zip(_transpose_rows(A, n), V_t)]
        _hermite(R, Vi, U, Ui_t, m)  # A V = (V^T A^T)^T
        A, V_t = _transpose_rows([r[:m] for r in R], m), [r[m:] for r in R]
        if _is_diagonal(A):
            break
    k = min(m, n)
    for i in range(k):
        for j in range(i + 1, k):
            a, b = A[i][i], A[j][j]
            if a and b % a:
                # diag(a, b) -> diag(g, ab/g) by [[x, y], [-b/g, a/g]] on the
                # rows and [[1, -yb/g], [1, xa/g]] on the columns
                g, x, y = _xgcd(a, b)
                A[i][i], A[j][j] = g, a // g * b
                _mix(U, Ui_t, i, j, x, y, -(b // g), a // g)
                _mix(V_t, Vi, i, j, 1, 1, -(y * b // g), x * a // g)
    return A, U, V_t


def _snf(M, U=False, U_inv=False, V=False, V_inv=False):
    """SNFResult of the Z matrix M with only the transforms asked for.

    A transform not asked for starts as empty rows, which `_smith` carries
    without building, and is None in the result; S is the same either way.
    """
    if M.ring != ZZ:
        raise ValueError("snf needs a Z matrix, got ring %s" % M.ring)
    m, n = M.nrows, M.ncols

    def start(size, want):
        return Matrix.identity(ZZ, size).to_rows() if want else [[] for _ in range(size)]

    Ui_t, Vi = start(m, U_inv), start(n, V_inv)  # (U^-1)^T, V^-1
    A, Ur, V_t = _smith(M.to_rows(), n, start(m, U), Ui_t, start(n, V), Vi)
    return SNFResult(
        S=_dense_to_matrix(A, n),
        U=_dense_to_matrix(Ur, m) if U else None,
        V=_dense_to_matrix(V_t, n).transpose() if V else None,
        U_inv=_dense_to_matrix(Ui_t, m).transpose() if U_inv else None,
        V_inv=_dense_to_matrix(Vi, n) if V_inv else None,
    )


def snf(M):
    """Smith normal form of an integer matrix, with transforms.

    `_smith`, the engine `elementary_divisors` shares, runs on identity
    transforms, so U, V and their inverses follow every step.  Each
    Hermite pass reduces the entries above every pivot modulo the pivot,
    which keeps the entries of the transforms small (a few hundred bits
    at 40x40 on entries in [-9, 9]).  The Z callers that read only some
    transforms (`kernel_basis`, `solve_matrix`, `fi_coker`) ask `_snf` for
    just those.
    """
    return _snf(M, True, True, True, True)


def _divisors_of(rows):
    """(elementary divisors, unit-peel pivots) of the integer rows {i: row}
    handed over, which the unit peel consumes (see `elementary_divisors`).

    For some unimodular E, the minor of E @ R (R the rows handed over) on
    the pivot columns and the peeled rows is unimodular.  The residue's
    pivots are never reported.
    """
    piv, rows = _eliminate(rows, True)
    divs = [1] * len(piv)
    if rows:
        live_cols = sorted({j for r in rows.values() for j in r})
        cindex = {j: k for k, j in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in rows]
        for k, r in enumerate(rows.values()):
            for j, v in r.items():
                dense[k][cindex[j]] = v
        A = _smith(dense, len(live_cols), [[] for _ in dense], [[] for _ in dense],
                   [[] for _ in live_cols], [[] for _ in live_cols])[0]
        divs += [A[i][i] for i in range(min(len(A), len(live_cols))) if A[i][i]]
    return divs, piv


def elementary_divisors(M):
    """Nonzero diagonal of the Smith form of M, without transforms.

    Unit pivots are peeled off sparsely first (`_eliminate` in unit mode,
    one unit divisor each), on a copy of M's rows.  The dense residue goes
    through `_smith`, the engine of `snf`, with empty transform rows, so it
    takes the same steps as in `snf` and no transform is built.
    """
    if M.ring != ZZ:
        raise ValueError("elementary divisors need a Z matrix")
    return _divisors_of({i: dict(r) for i, r in enumerate(M.rows) if r})[0]


def _bareiss(A):
    """Determinant of the square dense integer rows A, consumed.

    Fraction-free elimination after Bareiss (Math. Comp. 22, 1968): the
    pivot of step k is a (k+1) x (k+1) leading minor.  A zero pivot is
    replaced from below in its column, each row swap flipping the sign; a
    column with no pivot left makes the determinant 0.
    """
    n = len(A)
    sign = prev = 1
    for k in range(n):
        if not A[k][k]:
            i = next((i for i in range(k + 1, n) if A[i][k]), None)
            if i is None:
                return 0
            A[k], A[i] = A[i], A[k]
            sign = -sign
        pk, pr = A[k][k], A[k]
        for i in range(k + 1, n):
            Ai = A[i]
            a = Ai[k]
            for j in range(k + 1, n):
                Ai[j] = (Ai[j] * pk - a * pr[j]) // prev
        prev = pk
    return sign * prev


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
    ints = [[x.numerator * (L // x.denominator) for x in r] for r, L in zip(A, mults)]
    return Fraction(_bareiss(ints), prod(mults))


def solve_matrix(A, B):
    """X with A @ X = B, exactly, or None if no solution exists.

    Over Z via the Smith form A = U^-1 S V^-1: solve S Y = U B entry by
    entry (each must divide), then X = V Y.  Over Q by back substitution
    from the reduced row echelon form.
    """
    if A.ring != B.ring or A.nrows != B.nrows:
        raise ValueError("incompatible shapes for solve")
    if A.ring == ZZ:
        res = _snf(A, U=True, V=True)
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
    n = A.ncols
    aug = Matrix(QQ, A.nrows, n + B.ncols,
                 [{**a, **{n + c: v for c, v in b.items()}}
                  for a, b in zip(A.rows, B.rows)])
    xrows = [{} for _ in range(n)]
    for p, r in zip(*rref(aug)):
        if p >= n:
            return None  # a pivot in the B block: inconsistent system
        xrows[p] = {j - n: v for j, v in r.items() if j >= n}
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


class _ChainComplex:
    """Homology of a chain complex C_m with differentials D_m: C_m -> C_{m-1}.

    `sizes` maps m to dim C_m, and D_m exists where C_{m-1} and C_m do.
    `write(m, skip)` returns the rows of D_m as a fresh list, where rows
    whose index is in `skip` may be left None.  `checked` maps m to the D_m
    built for the d^2 check: its first reader takes it, and each later read
    writes D_m again, so no two readers share a row.  `of` builds one from
    explicit matrices; the cube complexes of `homology` and `complexes`
    write theirs from one `_Cube` layout.

    The ring fixes one elimination and one invariant per differential:
    over Q `_rank_of` and the rank of D_m, over Z `_divisors_of` and the
    elementary divisors of D_m, whose count is its rank.  Each D_m is
    eliminated at most once per object, in any order of reads, and its
    invariant cached.

    Each elimination also keeps its pivot columns.  When D_m has already
    been eliminated, D_{m+1} is eliminated only on the rows of C_m that are
    not pivot columns P of D_m, which cuts its rows to dim ker D_m.  This
    rests on D_m @ D_{m+1} = 0, which every builder checks on the pairs
    it reads (see `homology._differentials` for the degree walk).
      - Over Q, P is a set of independent columns of D_m, so ker D_m meets
        span(e_P) in 0.  im D_{m+1} lies in ker D_m, so leaving out the P
        rows keeps the rank.
      - Over Z, P is the pivots of the unit peel of `_divisors_of`: then
        E @ D_m has a unimodular P-minor for some unimodular E, so on
        ker D_m the P coordinates are an integral function of the others,
        and a unimodular change of basis of C_m sends D_{m+1} to
        [0; D_{m+1} without the P rows].  The elementary divisors are
        unchanged.  `_divisors_of` never reports the pivots of its dense
        Smith residue: with D_m = [[2, 3]] and D_{m+1} = [[3], [-2]],
        H_m = 0, but dropping row 0 by the non-unit pivot 2 would leave
        [[-2]] and report Z/2.
    Leaving out rows keeps ker D_{m+1}, so pivots found on the shortened
    D_{m+1} are valid in turn for D_{m+2}.  Pivots are used only when the
    map below was eliminated anyway, so the results agree in any order.

    Every elimination takes its rows over: those of the d^2 check's D_m
    if no one has read it, else only the rows it keeps, written now.  A
    public read (`differential`, `d`, `D`, the boundaries) gets D_m whole.
    """

    def __init__(self, ring, sizes, write, checked):
        self._ring = ring
        self._sizes = sizes       # m -> dim C_m
        self._write = write       # (m, skip) -> the rows of D_m
        self._checked = checked   # m -> D_m from the d^2 check, until read
        self._eliminate = _rank_of if ring == QQ else _divisors_of
        self._invariants = {}     # m -> rank (Q) or divisors (Z) of D_m
        self._pivots = {}         # m -> pivot columns of D_m

    @classmethod
    def of(cls, D):
        """The complex with differentials D = {m: D_m}, all over one ring.

        Raises CompositionError where D_{m-1} @ D_m != 0.  Each read of
        D_m, elimination or public, gets a copy of its rows.
        """
        sizes = {}
        for m, d in sorted(D.items()):
            sizes[m - 1], sizes[m] = d.nrows, d.ncols
            if m - 1 in D and not (D[m - 1] @ d).is_zero():
                raise CompositionError("d_out @ d_in != 0")
        return cls(d.ring, sizes, lambda m, skip=(): [dict(r) for r in D[m].rows], {})

    def _rows(self, m, skip=()):
        """The rows of D_m for the caller to keep (rows in `skip` may be
        None), or None where there is no D_m."""
        if m - 1 not in self._sizes or m not in self._sizes:
            return None
        d = self._checked.pop(m, None)
        return self._write(m, skip) if d is None else d.rows

    def _diff(self, m):
        """D_m whole, or None."""
        rows = self._rows(m)
        return None if rows is None else Matrix(
            self._ring, self._sizes[m - 1], self._sizes[m], rows)

    def size(self, m):
        return self._sizes.get(m, 0)

    def boundary_out(self, m):
        """The map out of C_m (a 0-row zero matrix where there is none)."""
        d = self._diff(m)
        return Matrix.zeros(self._ring, 0, self.size(m)) if d is None else d

    def boundary_in(self, m):
        """The map into C_m (a 0-column zero matrix where there is none)."""
        d = self._diff(m + 1)
        return Matrix.zeros(self._ring, self.size(m), 0) if d is None else d

    def _invariant(self, m):
        """The rank (Q) or elementary divisors (Z) of D_m, from one
        elimination of the nonzero rows that the pivots of D_{m-1} leave
        when D_{m-1} was eliminated first."""
        if m not in self._invariants:
            skip = self._pivots.get(m - 1, ())
            rows = self._rows(m, skip) or ()
            self._invariants[m], piv = self._eliminate(
                {i: r for i, r in enumerate(rows) if r and i not in skip})
            self._pivots[m] = set(piv)
        return self._invariants[m]

    def homology(self, m):
        """H_m = ker D_m / im D_{m+1}, of rank dim C_m - rank D_m - rank
        D_{m+1}.  Over Z its torsion is the divisors of D_{m+1} above 1, as
        ker D_m is a direct summand (C_m / ker D_m embeds in free C_{m-1})."""
        if self.size(m) == 0:
            return AbelianClass(0)
        # D_m first, so D_{m+1} is eliminated on the rows its pivots leave
        out, into = self._invariant(m), self._invariant(m + 1)
        divs = ()
        if self._ring == ZZ:
            out, into, divs = len(out), len(into), into
        r = self.size(m) - out - into
        if r < 0:
            raise AssertionError("negative homology rank")
        return AbelianClass(r, tuple(d for d in divs if d > 1))


def homology_class(d_in, d_out):
    """Homology ker(d_out)/im(d_in) of  . --d_in--> C --d_out--> .  .

    The two-map case of `_ChainComplex`: checks d_out @ d_in = 0 and
    eliminates each map once, d_in on the rows that d_out's pivots leave.
    """
    if d_in.ring != d_out.ring:
        raise ValueError("ring mismatch")
    if d_in.nrows != d_out.ncols:
        raise ValueError("middle dimension mismatch: %s vs %s" % (d_in.shape, d_out.shape))
    return _ChainComplex.of({1: d_out, 2: d_in}).homology(1)


class QuotientCoords:
    """Explicit coordinates on H = ker(d_out)/im(d_in) over Q.

    Used wherever an actual basis of a homology or cokernel space is
    needed (induced maps on homology, cokernel FI-modules).  Two sparse
    matrices carry it: `lift` (ambient x dim) sends class coordinates to
    representative cycles, `proj` (dim x ambient) sends a cycle to its
    class coordinates.  The kernel of d_out is read off its RREF, one
    basis vector per free column, so a cycle's kernel coordinates are its
    entries at the free columns; the classes are the kernel coordinates
    that are not pivots of the RREF of im(d_in) in those coordinates.
    """

    def __init__(self, d_in, d_out):
        if d_in.ring != QQ or d_out.ring != QQ:
            raise ValueError("QuotientCoords works over Q")
        if d_in.nrows != d_out.ncols:
            raise ValueError("middle dimension mismatch")
        self.ambient_dim = d_in.nrows
        free, self._kernel = _kernel_matrix(d_out.ncols, *rref(d_out))
        # im(d_in) in kernel coordinates: the free-position rows of d_in
        y = Matrix(QQ, len(free), d_in.ncols, [d_in.rows[f] for f in free])
        ypiv, yrows = rref(y.transpose())
        qpivset = set(ypiv)
        coords = [t for t in range(len(free)) if t not in qpivset]
        at = {t: s for s, t in enumerate(coords)}
        self.dim = len(coords)
        self.lift = Matrix(QQ, self.ambient_dim, self.dim, [
            {at[t]: v for t, v in r.items() if t in at} for r in self._kernel.rows])
        prows = [{free[t]: 1} for t in coords]
        for p, r in zip(ypiv, yrows):
            for t, v in r.items():
                if t != p:
                    prows[at[t]][free[p]] = -v
        self.proj = Matrix(QQ, self.dim, self.ambient_dim, prows)

    def kernel_vector(self, kcoords):
        """The cycle with kernel coordinates kcoords."""
        return self._kernel.mul_vec(kcoords)

    def reduce(self, vec):
        """Class coordinates of an ambient cycle (must lie in ker d_out)."""
        return self.proj.mul_vec(vec)

    def rep(self, t):
        """Ambient representative of the t-th basis class."""
        return self.lift.column(t)

    def rep_matrix(self):
        return self.lift

    def induced(self, chain_map, target):
        """Matrix of the map H -> H' induced by an ambient chain_map."""
        return target.proj @ (chain_map @ self.lift)
