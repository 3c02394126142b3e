"""Truncated FI-modules as matrix data.

A truncated FI-module V assigns to each level n <= N a free module of
dimension dims[n], together with the standard inclusion iota[n] (the
action of n_ -> n+1_, identity on elements) and the adjacent
transpositions trans[n][i-1] (the action of s_i swapping elements i-1
and i).  Every other injection f is reached from a simpler one by one
product: V(f) = iota @ V(f') when f misses the top element, else
V(f) = V(s_i) @ V(s_i o f) for a swap that removes an inversion of f.
So these generators plus their relations determine the functor on the
whole of FI up to level N; `_Injections` evaluates it.

Convention: the finite set n_ is {0, 1, ..., n-1}; subsets are ordered
lexicographically on their sorted tuples within a fixed size.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import partial, reduce
from math import factorial
from typing import Optional

from .linalg import (
    AbelianClass, Matrix, QQ, ZZ, QuotientCoords, _ChainComplex, _entries,
    _put_entries, _snf, block_matrix,
)


@dataclass(frozen=True)
class FBData:
    """A sequence of symmetric group representations (an FB-module).

    dims[k] is the dimension at cardinality k; trans, if given, holds
    for each level the matrices of the adjacent transpositions s_1 ..
    s_{k-1}.  A missing trans means trivial actions everywhere.
    """

    ring: str
    truncation: int
    dims: tuple
    trans: Optional[tuple] = None

    def __post_init__(self):
        if len(self.dims) != self.truncation + 1:
            raise ValueError("dims length != truncation + 1")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")
        if self.trans is None:
            return
        if len(self.trans) != self.truncation + 1:
            raise ValueError("trans length != truncation + 1")
        _check_transpositions(self.ring, self.dims, self.trans, "cardinality")

    def transposition(self, k, i):
        """Matrix of s_i at cardinality k (1 <= i <= k-1)."""
        if not (1 <= i <= k - 1):
            raise ValueError("s_%d undefined at cardinality %d" % (i, k))
        if self.trans is None:
            return Matrix.identity(self.ring, self.dims[k])
        return self.trans[k][i - 1]

    def degree(self):
        """Largest k with dims[k] != 0, or -1."""
        top = -1
        for k, d in enumerate(self.dims):
            if d:
                top = k
        return top


def _check_transpositions(ring, dims, trans, where):
    """Refuse trans unless trans[n] holds s_1 .. s_{n-1}, each a square
    matrix of size dims[n] over ring, at each level n."""
    for n, mats in enumerate(trans):
        if len(mats) != max(0, n - 1):
            raise ValueError("%s %d needs %d transpositions, got %d"
                             % (where, n, max(0, n - 1), len(mats)))
        for m in mats:
            if m.shape != (dims[n], dims[n]) or m.ring != ring:
                raise ValueError("bad transposition shape at %s %d" % (where, n))


@dataclass(frozen=True)
class FIModule:
    ring: str
    truncation: int
    dims: tuple
    iota: tuple   # iota[n]: dims[n+1] x dims[n], 0 <= n < N
    trans: tuple  # trans[n][i-1]: s_i at level n, square of size dims[n]
    name: str = ""

    def __post_init__(self):
        N = self.truncation
        if len(self.dims) != N + 1 or len(self.iota) != N or len(self.trans) != N + 1:
            raise ValueError("field lengths inconsistent with truncation %d" % N)
        for n, m in enumerate(self.iota):
            if m.shape != (self.dims[n + 1], self.dims[n]) or m.ring != self.ring:
                raise ValueError("iota[%d] has shape %s, expected %s"
                                 % (n, m.shape, (self.dims[n + 1], self.dims[n])))
        _check_transpositions(self.ring, self.dims, self.trans, "level")

    def transposition(self, n, i):
        return self.trans[n][i - 1]

    def __repr__(self):
        return "FIModule(%s, N=%d, dims=%s%s)" % (
            self.ring, self.truncation, list(self.dims),
            ", name=%r" % self.name if self.name else "")


@dataclass(frozen=True)
class FIMorphism:
    """Levelwise linear maps commuting with iota and the transpositions."""

    source: FIModule
    target: FIModule
    levels: tuple  # levels[n]: target.dims[n] x source.dims[n]

    def __post_init__(self):
        if self.source.ring != self.target.ring:
            raise ValueError("ring mismatch")
        if self.source.truncation != self.target.truncation:
            raise ValueError("truncation mismatch")
        if len(self.levels) != self.source.truncation + 1:
            raise ValueError("levels length != truncation + 1")
        for n, m in enumerate(self.levels):
            want = (self.target.dims[n], self.source.dims[n])
            if m.shape != want:
                raise ValueError("level %d map has shape %s, expected %s" % (n, m.shape, want))
            if m.ring != self.source.ring:
                raise ValueError("ring mismatch at level %d" % n)


_EMPTY_ROW = {-1: 0}


def _arrays(m):
    """(cols, vals) with row i of m = {cols[i]: vals[i]}, or None when some
    row of m holds two entries or more.  cols is a tuple; vals is None when
    every entry of m is 1.

    An empty row reads column -1, value 0, and both end with one more such
    row as a sentinel: composing through column -1 reads the sentinel, so
    an empty row stays empty in every product.  A value is read only where
    its column is not -1.
    """
    rows = [r or _EMPTY_ROW for r in m.rows]
    rows.append(_EMPTY_ROW)
    cols = tuple([j for r in rows for j in r])
    if len(cols) != len(rows):
        return None
    vals = [v for r in rows for v in r.values()]
    return cols, None if vals.count(1) == len(vals) - cols.count(-1) else vals


def _gather(seq, idx):
    """The tuple of seq[k] for k in idx, which is not empty."""
    return operator.itemgetter(*idx)(seq) if len(idx) > 1 else (seq[idx[0]],)


def _product(factors):
    """(cols, vals) of the product of factors given as arrays."""
    cols, vals = factors[0]
    for cb, vb in factors[1:]:
        if vb is not None:
            vb = _gather(vb, cols)
            vals = vb if vals is None else [x * y for x, y in zip(vals, vb)]
        cols = _gather(cb, cols)
    return cols, vals


def _rows_of(side):
    """The sparse rows of a side of a relation, as `_side` gives it."""
    if isinstance(side, list):
        return side
    cols, vals = side
    return [{c: 1 if vals is None else vals[i]} if c >= 0 else {}
            for i, c in enumerate(cols[:-1])]


def _side(factors, arrays):
    """The product of factors: as arrays (a tuple) when each has one entry
    per row, else as the list of its sparse rows.

    When exactly one factor M has rows of two entries or more, P @ M @ Q is
    built without a product: the one-entry factors P on its left gather
    M's rows and scale them by P's values, and those Q on its right
    relabel M's columns, if Q's nonempty rows have distinct columns.
    Otherwise the matrices are multiplied.
    """
    arrs = [arrays[id(m)] for m in factors]
    if None not in arrs:
        return _product(arrs)
    t = arrs.index(None)
    right = arrs[t + 1:]
    if right:
        right = None if None in right else _product(right)
        # the column sentinel -1 is counted once among the distinct columns
        if right is None or len(set(right[0])) != len(right[0]) - right[0].count(-1) + 1:
            return list(reduce(operator.matmul, factors).rows)
    rows = factors[t].rows
    if t:
        cols, vals = _product(arrs[:t])
        rows = _gather(rows + ({},), cols)[:-1]
        if vals is not None:
            rows = [r if x == 1 else {j: x * v for j, v in r.items()}
                    for r, x in zip(rows, vals)]
    if right:
        cols, vals = right
        rows = [{c: v if vals is None else v * vals[k]
                 for k, v in r.items() if (c := cols[k]) >= 0} for r in rows]
    return list(rows)


def _violations(relations):
    """Messages of the relations (message, lhs, rhs) whose two products of
    matrices differ, in list order.

    Each side is built by `_side`: on `_arrays`, read once per matrix, when
    every factor holds at most one entry per row, by gathers when one factor
    holds more, and by products otherwise.  Zeros are never stored, so a
    composed entry is never zero, and two sides that differ as arrays or
    rows are compared as rows.
    """
    mats = {id(m): m for _, lhs, rhs in relations for m in lhs + rhs}
    arrays = {k: _arrays(m) for k, m in mats.items()}
    bad = []
    for msg, lhs, rhs in relations:
        a, b = _side(lhs, arrays), _side(rhs, arrays)
        if a != b and _rows_of(a) != _rows_of(b):
            bad.append(msg)
    return bad


def _coxeter_relations(mats, eye, where):
    """Relations of s_1 .. s_{n-1} = mats: s_i^2 = 1, the braid relation
    and far commutation, each message prefixed by `where`."""
    rels = [("%s: s_%d^2 != id" % (where, i), (s, s), (eye,))
            for i, s in enumerate(mats, 1)]
    for i in range(1, len(mats)):
        a, b = mats[i - 1], mats[i]
        rels.append(("%s: braid s_%d s_%d s_%d != s_%d s_%d s_%d"
                     % (where, i, i + 1, i, i + 1, i, i + 1), (a, b, a), (b, a, b)))
    for i in range(1, len(mats)):
        for j in range(i + 2, len(mats) + 1):
            a, b = mats[i - 1], mats[j - 1]
            rels.append(("%s: s_%d s_%d != s_%d s_%d" % (where, i, j, j, i),
                         (a, b), (b, a)))
    return rels


def validate(V: FIModule):
    """List of violated FI-module relations (empty iff V is valid).

    Checked as exact matrix identities: involutivity, braid and
    commutation relations of the transpositions, the compatibility
    s_i iota = iota s_i for i <= n-1, and the new-points relation
    s_{n+1} iota iota = iota iota.
    """
    rels = []
    N = V.truncation
    for n in range(2, N + 1):
        rels += _coxeter_relations(V.trans[n], Matrix.identity(V.ring, V.dims[n]),
                                   "level %d" % n)
    for n in range(0, N):
        # permutations of n_ commute past the inclusion into n+1_
        for i in range(1, n):
            rels.append(("levels %d->%d: s_%d iota != iota s_%d" % (n, n + 1, i, i),
                         (V.transposition(n + 1, i), V.iota[n]),
                         (V.iota[n], V.transposition(n, i))))
    for n in range(1, N):
        # swapping the two freshly added points fixes iota iota
        rels.append(("levels %d->%d: s_%d iota iota != iota iota" % (n - 1, n + 1, n),
                     (V.transposition(n + 1, n), V.iota[n], V.iota[n - 1]),
                     (V.iota[n], V.iota[n - 1])))
    return _violations(rels)


def validate_morphism(f: FIMorphism):
    V, W = f.source, f.target
    rels = [("naturality square fails at levels %d->%d" % (n, n + 1),
             (f.levels[n + 1], V.iota[n]), (W.iota[n], f.levels[n]))
            for n in range(V.truncation)]
    for n in range(2, V.truncation + 1):
        for i in range(1, n):
            rels.append(("level %d: map does not commute with s_%d" % (n, i),
                         (f.levels[n], V.transposition(n, i)),
                         (W.transposition(n, i), f.levels[n])))
    return _violations(rels)


# ---------------------------------------------------------------------------
# induced injection matrices


class _Injections:
    """V(f) for injections f: a_ -> b_, memoized for the life of the object.

    Called as ev(f, b) with f the tuple of values.  Each V(f) is one
    product with the V of a simpler injection:
      - b-1 is not a value of f: V(f) = iota[b-1] @ V(f as a map into b-1_);
      - some value v sits after v+1 (a value f misses sits after every
        position): V(f) = V(s_{v+1}) @ V(s_{v+1} o f), and swapping the
        values v and v+1 removes that inversion;
      - otherwise f is the identity.
    The largest such v is taken.  Products with an identity are skipped.
    """

    def __init__(self, V):
        self.V = V
        self._memo = {}

    def __call__(self, f, b):
        key = (f, b)
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = self._build(f, b)
        return out

    def _build(self, f, b):
        V = self.V
        if f == tuple(range(b)):
            return Matrix.identity(V.ring, V.dims[b])
        if b - 1 not in f:
            return self._times(V.iota[b - 1], f, b - 1)
        pos = {x: i for i, x in enumerate(f)}
        v = max(x for x in range(b - 1) if pos.get(x + 1, b) < pos.get(x, b))
        g = tuple(v + 1 if x == v else v if x == v + 1 else x for x in f)
        return self._times(V.transposition(b, v + 1), g, b)

    def _times(self, m, g, c):
        """m @ V(g) for g into c_, without a product when g is the identity.

        When every row of m holds at most one entry, as iota and the
        transpositions of a free module do, the product is a row gather:
        row k of V(g) copied where m holds an int 1 at column k, else
        scaled entry by entry, with the values, key order and entry types
        of `Matrix.__matmul__`."""
        if g == tuple(range(c)):
            return m
        vg = self(g, c)
        grows, rows = vg.rows, []
        for r in m.rows:
            if len(r) > 1:
                return m @ vg
            if not r:
                rows.append({})
                continue
            (k, v), = r.items()
            if v == 1 and type(v) is int:
                rows.append(dict(grows[k]))
            else:
                rows.append({j: v * w for j, w in grows[k].items()})
        return Matrix(m.ring, m.nrows, vg.ncols, rows)


def _face(k, pos):
    """delta_pos: k_ -> k+1_, the order-preserving injection that skips pos."""
    return tuple(range(pos)) + tuple(range(pos + 1, k + 1))


def face_matrices(V, k, ev=None):
    """[V(delta_0), ..., V(delta_k)] where delta_pos: k_ -> k+1_ skips pos.

    delta_pos = s_{pos+1} o delta_{pos+1}, so one evaluator builds the
    list with one product per face below the top face delta_k = iota.
    `ev` is an `_Injections(V)` that the caller keeps, so that a walk over
    levels builds each face once; a fresh one by default.
    """
    if not 0 <= k < V.truncation:
        raise ValueError("face level %d outside 0..%d" % (k, V.truncation - 1))
    if ev is None:
        ev = _Injections(V)
    return [ev(_face(k, pos), k + 1) for pos in range(k + 1)]


# ---------------------------------------------------------------------------
# free modules


def _layout(dims, n, sizes):
    """({S: offset}, total) of (+) X(S) over the subsets S of n_ with |S| in
    `sizes` (ascending), ordered by (|S|, lex S); X(S) spans dims[|S|] rows.

    The one layout of a direct sum over subsets: the cube complexes, the
    free modules and the colimit presentation all read it."""
    offsets, off = {}, 0
    for k in sizes:
        for S in itertools.combinations(range(n), k):
            offsets[S] = off
            off += dims[k]
    return offsets, off


def _subset_blocks(X, n):
    """Basis layout of M(X)(n_): the subsets of n_ whose X(S) is nonzero."""
    return _layout(X.dims, n, [k for k in range(min(n, X.truncation) + 1) if X.dims[k]])


def free_fi_module(X: FBData, name=""):
    """The free FI-module M(X)(T) = direct sum over S subset T of X(S).

    Basis pairs (S, e) ordered by (|S|, lex S, index of e).  iota keeps
    each summand where it is; a transposition permutes the summands by
    the set action and acts on X(|S|) through the induced permutation of
    S (which for adjacent swaps is either trivial or one adjacent
    transposition of the ordered elements).
    """
    N = X.truncation
    ring = X.ring
    layouts = [_subset_blocks(X, n) for n in range(N + 1)]
    dims = tuple(layouts[n][1] for n in range(N + 1))
    iotas = []
    for n in range(N):
        src, d_src = layouts[n]
        tgt, _ = layouts[n + 1]
        rows = [{} for _ in range(layouts[n + 1][1])]
        for S, off in src.items():
            toff = tgt[S]
            for t in range(X.dims[len(S)]):
                rows[toff + t][off + t] = 1
        iotas.append(Matrix(ring, layouts[n + 1][1], d_src, rows))
    trans = []
    for n in range(N + 1):
        layout, dim_n = layouts[n]
        mats = []
        for i in range(1, n):
            a, b = i - 1, i
            rows = [{} for _ in range(dim_n)]
            for S, off in layout.items():
                k = len(S)
                in_a, in_b = a in S, b in S
                if in_a and in_b:
                    # internal adjacent swap at the rank of a within S
                    r = S.index(a)
                    _put_entries(rows, off, off, _entries(X.transposition(k, r + 1)))
                elif in_a != in_b:
                    T = tuple(sorted(set(S) ^ {a, b}))
                    toff = layout[T]
                    for t in range(X.dims[k]):
                        rows[toff + t][off + t] = 1
                else:
                    for t in range(X.dims[k]):
                        rows[off + t][off + t] = 1
            mats.append(Matrix(ring, dim_n, dim_n, rows))
        trans.append(tuple(mats))
    return FIModule(ring, N, dims, tuple(iotas), tuple(trans), name=name)


def regular_fbdata(m, N, ring):
    """FB-data concentrated at cardinality m with the regular representation.

    Basis: permutations of m_ in lexicographic order; s_i acts by left
    multiplication g -> s_i o g.
    """
    dims = [0] * (N + 1)
    if m <= N:
        dims[m] = factorial(m)
    trans = []
    perms = list(itertools.permutations(range(m)))
    index = {p: t for t, p in enumerate(perms)}
    for k in range(N + 1):
        if k != m or m > N:
            trans.append(tuple(Matrix.identity(ring, dims[k]) for _ in range(max(0, k - 1))))
            continue
        mats = []
        for i in range(1, m):
            rows = [{} for _ in range(dims[m])]
            for g in perms:
                rows[index[tuple(_apply_swap(g, i))]][index[g]] = 1
            mats.append(Matrix(ring, dims[m], dims[m], rows))
        trans.append(tuple(mats))
    return FBData(ring, N, tuple(dims), tuple(trans))


def _apply_swap(g, i):
    """s_i o g: postcompose with the swap of values i-1 and i."""
    a, b = i - 1, i
    return [b if x == a else a if x == b else x for x in g]


def representable(m, N, ring, name=None):
    """M(m): the FI-module freely generated by one element of m_.

    Its basis at level n is the set of injections m_ -> n_, so the
    dimension is C(n, m) * m!.
    """
    if name is None:
        name = "M(%d)" % m
    return free_fi_module(regular_fbdata(m, N, ring), name=name)


def representable_basis_injections(m, n):
    """The injection m_ -> n_ labelling each basis vector of M(m)(n_)."""
    out = []
    perms = list(itertools.permutations(range(m)))
    for S in itertools.combinations(range(n), m):
        for g in perms:
            out.append(tuple(S[g[x]] for x in range(m)))
    return out


def zero_module(N, ring):
    dims = tuple(0 for _ in range(N + 1))
    iotas = tuple(Matrix.zeros(ring, 0, 0) for _ in range(N))
    trans = tuple(tuple(Matrix.zeros(ring, 0, 0) for _ in range(max(0, n - 1)))
                  for n in range(N + 1))
    return FIModule(ring, N, dims, iotas, trans, name="0")


# ---------------------------------------------------------------------------
# elementary constructions


def truncate(V: FIModule, M):
    if M > V.truncation or M < 0:
        raise ValueError("cannot truncate to %d" % M)
    return FIModule(V.ring, M, V.dims[:M + 1], V.iota[:M], V.trans[:M + 1], name=V.name)


def direct_sum(*modules):
    if not modules:
        raise ValueError("empty direct sum")
    ring = modules[0].ring
    N = modules[0].truncation
    if any(m.ring != ring or m.truncation != N for m in modules):
        raise ValueError("summands must share ring and truncation")
    dims = tuple(sum(m.dims[n] for m in modules) for n in range(N + 1))
    iotas = []
    for n in range(N):
        blocks = {(i, i): m.iota[n] for i, m in enumerate(modules)}
        iotas.append(block_matrix(ring, [m.dims[n + 1] for m in modules],
                                  [m.dims[n] for m in modules], blocks))
    trans = []
    for n in range(N + 1):
        mats = []
        for i in range(1, n):
            blocks = {(t, t): m.transposition(n, i) for t, m in enumerate(modules)}
            mats.append(block_matrix(ring, [m.dims[n] for m in modules],
                                     [m.dims[n] for m in modules], blocks))
        trans.append(tuple(mats))
    return FIModule(ring, N, dims, tuple(iotas), tuple(trans))


@dataclass(frozen=True)
class ShiftData:
    """The shift SV plus the natural map V -> SV (source truncated to N-1)."""

    module: FIModule
    natural: FIMorphism


def shift_module(V: FIModule) -> ShiftData:
    """Shift by a disjoint point: (SV)(n_) = V(n+1_), truncation N-1.

    The added point is the element 0 and n_ embeds as {1..n}, so the
    transposition s_i of SV is s_{i+1} of V and the natural map V -> SV
    is V of the face injection x -> x+1.
    """
    N = V.truncation
    if N < 1:
        raise ValueError("shift needs truncation >= 1")
    dims = V.dims[1:]
    iotas = V.iota[1:]
    trans = tuple(tuple(V.trans[n + 1][1:]) for n in range(N))
    SV = FIModule(V.ring, N - 1, dims, iotas, trans,
                  name=("S " + V.name if V.name else ""))
    ev = _Injections(V)
    nat_levels = tuple(ev(_face(n, 0), n + 1) for n in range(N))
    nat = FIMorphism(truncate(V, N - 1), SV, nat_levels)
    return ShiftData(SV, nat)


def _quotient_module(W: FIModule, quots, name=""):
    """The FIModule on quotients of W's levels, over W's ring.

    quots[n] is a pair (proj, lift) of matrices with proj @ lift = 1: lift
    sends quotient coordinates to representatives in W(n_), proj sends a
    vector of W(n_) to the coordinates of its class.  Each structure map
    of the quotient is proj @ (W's map) @ lift; the caller guarantees that
    W's maps preserve the subspaces divided out.
    """
    N = W.truncation
    projs, lifts = zip(*quots)
    iotas = tuple(projs[n + 1] @ (W.iota[n] @ lifts[n]) for n in range(N))
    trans = tuple(
        tuple(projs[n] @ (W.transposition(n, i) @ lifts[n]) for i in range(1, n))
        for n in range(N + 1))
    return FIModule(W.ring, N, tuple(p.nrows for p in projs), iotas, trans,
                    name=name)


class CokernelTorsionError(ValueError):
    """Z-module cokernel has torsion at some level: not representable here."""


def fi_coker(f: FIMorphism) -> FIModule:
    """Levelwise cokernel of f with the induced structure maps.

    Over Q always defined.  Over Z only when every levelwise cokernel is
    torsion free (checked via the Smith form); otherwise
    CokernelTorsionError is raised.
    """
    return _quotient_module(f.target,
                            [_coker_level(L, n) for n, L in enumerate(f.levels)])


def _coker_level(L, n):
    """(proj, lift) of the cokernel of the level-n map L, for
    `_quotient_module`: over Q by `QuotientCoords`, over Z by
    `_z_coker_level`."""
    if L.ring == QQ:
        q = QuotientCoords(L, Matrix.zeros(QQ, 0, L.nrows))
        return q.proj, q.lift
    return _z_coker_level(L, n)


def _z_coker_level(L, n):
    """(proj, lift) of the cokernel of the Z map L at level n, or
    CokernelTorsionError when it has torsion.

    coker Z^d / im L = U^-1 (Z^d / im S): torsion free iff all nonzero
    divisors are 1, and then rows r.. of U project onto it and columns
    r.. of U^-1 lift it.
    """
    res = _snf(L, U=True, U_inv=True)
    ds = [d for d in res.divisors() if d]
    if any(d != 1 for d in ds):
        raise CokernelTorsionError(
            "level %d cokernel has torsion %s" % (n, [d for d in ds if d != 1]))
    r, d = len(ds), L.nrows
    return (Matrix(ZZ, d - r, d, res.U.rows[r:]),
            Matrix(ZZ, d, d - r, [{j - r: v for j, v in row.items() if j >= r}
                                  for row in res.U_inv.rows]))


def free_morphism(sources, target: FIModule, images) -> FIMorphism:
    """The map (+) M(m_i) -> target sending each generator to images[i].

    sources is a list of cardinalities m_i; images[i] is a vector in
    target(m_i_).  This is the universal property of the representables:
    the basis vector (S, g) of M(m_i)(n_) goes to target(f)(images[i])
    for the injection f = ord_S o g.
    """
    return _free_map(sources, target,
                     tuple(_free_morphism_levels(sources, target, images)))


def _free_map(sources, target, levels):
    """The FIMorphism (+) M(m_i) -> target with the given levels."""
    return FIMorphism(_free_sum(sources, target), target, levels)


def _free_sum(sources, target):
    """(+) M(m_i) over the target's ring and truncation."""
    ring, N = target.ring, target.truncation
    return direct_sum(*[representable(m, N, ring) for m in sources]) \
        if sources else zero_module(N, ring)


class _Pushed(_Injections):
    """V(f) vec for injections f: m_ -> b_ and one vector vec of V(m_), by
    the recursion of `_Injections` run on the vector: each step is one
    matrix-vector product with the vector of a simpler injection."""

    def __init__(self, V, vec):
        super().__init__(V)
        self.vec = vec

    def _build(self, f, b):
        return self.vec if f == tuple(range(b)) else super()._build(f, b)

    def _times(self, m, g, c):
        return m.mul_vec(self(g, c))


def _free_morphism_levels(sources, target, images):
    """The levels n = 0, 1, ... of `free_morphism`, each built when drawn.

    Column (S, g) of the generator m_i is target(ord_S o g)(images[i]),
    pushed along the injection by `_Pushed`, one evaluator per generator
    for all levels."""
    if len(images) != len(sources):
        raise ValueError("%d generator images for %d sources"
                         % (len(images), len(sources)))
    pushes = []
    for m, vec in zip(sources, images):
        if len(vec) != target.dims[m]:
            raise ValueError("generator image has wrong dimension")
        pushes.append(_Pushed(target, vec))
    for n in range(target.truncation + 1):
        cols = []
        for m, push in zip(sources, pushes):
            for f in representable_basis_injections(m, n):
                cols.append(push(f, n))
        rows = [{} for _ in range(target.dims[n])]
        for c, col in enumerate(cols):
            for i, v in enumerate(col):
                if v:
                    rows[i][c] = v
        yield Matrix(target.ring, target.dims[n], len(cols), rows)


def _free_coker(sources, target: FIModule, images):
    """(presented, fi_coker(f)) for f = free_morphism(sources, target, images),
    where presented() builds f.

    Each level's cokernel is taken as soon as the level is built, so over
    Z a torsion cokernel raises CokernelTorsionError at its first torsion
    level, before the levels above it are built.  The source module of f
    is built only when presented() is called.
    """
    levels, quots = [], []
    for n, L in enumerate(_free_morphism_levels(sources, target, images)):
        quots.append(_coker_level(L, n))
        levels.append(L)
    return (partial(_free_map, sources, target, tuple(levels)),
            _quotient_module(target, quots))


# ---------------------------------------------------------------------------
# colimit comparison


def _poset_presentation(V, n, K):
    """Presentation matrix P and comparison map c of colim_{|S|<=K} V(S).

    Relations: one block per covering pair S1 < S2 (|S2| = |S1|+1 <= K),
    mapping V(S1) by  incl_{S2} o V(S1 -> S2)  -  incl_{S1}.
    """
    ring = V.ring
    K = min(K, n)
    offset, total = _layout(V.dims, n, range(K + 1))
    ev = _Injections(V)
    pairs = []
    for S in offset:
        k = len(S)
        if k == K:
            continue
        for i in range(n):
            if i in S:
                continue
            T = tuple(sorted(S + (i,)))
            pairs.append((S, T, T.index(i)))
    rows = [{} for _ in range(total)]
    coff = 0
    for S, T, pos in pairs:
        k = len(S)
        _put_entries(rows, offset[T], coff, _entries(ev(_face(k, pos), k + 1)))
        _put_entries(rows, offset[S], coff,
                     _entries(Matrix.identity(ring, V.dims[k]), True))
        coff += V.dims[k]
    P = Matrix(ring, total, coff, rows)
    crows = [{} for _ in range(V.dims[n])]
    for S, off in offset.items():
        _put_entries(crows, 0, off, _entries(ev(S, n)))
    c = Matrix(ring, V.dims[n], total, crows)
    return P, c


def colim_compare(V: FIModule, n, K):
    """(class of colim_{|S| <= K} V(S), is the map to V(n_) an iso?).

    The colimit is coker P for the covering-pair relations P, mapped to
    V(n_) by c.  The complex  . --P--> (+) V(S) --c--> V(n_)  eliminates c
    and P once each; the map is an iso iff H_0 = coker c and H_1 vanish.
    As im c lies in the free V(n_), 0 -> H_1 -> coker P -> im c -> 0
    splits: the colimit is H_1 (+) free of rank dim V(n_) - rank H_0.
    """
    if K < 0:
        raise ValueError("cutoff K must be >= 0")
    if not 0 <= n <= V.truncation:
        raise ValueError("level %d outside 0..%d" % (n, V.truncation))
    P, c = _poset_presentation(V, n, K)
    cpx = _ChainComplex.of({1: c, 2: P})
    onto, middle = cpx.homology(0), cpx.homology(1)
    colim = AbelianClass(middle.rank + V.dims[n] - onto.rank, middle.torsion)
    return colim, middle.is_zero() and onto.is_zero()
