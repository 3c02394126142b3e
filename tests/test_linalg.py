"""Exact linear algebra: ranks, kernels, Smith form, homology classes."""

import ast
import random
from fractions import Fraction
from pathlib import Path
from math import gcd, lcm, prod

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fihom import (
    AbelianClass,
    CompositionError,
    Matrix,
    QQ,
    QuotientCoords,
    ZZ,
    block_matrix,
    det,
    elementary_divisors,
    fih_chain_complex,
    homology_class,
    kernel_basis,
    rank,
    representable,
    rref,
    snf,
    solve_matrix,
)
from fihom import linalg
from fihom.linalg import SNFResult, _eliminate, _int_rows, _xgcd


def zmat(rows):
    return Matrix.from_rows(ZZ, rows, ncols=len(rows[0]) if rows else 0)


def qmat(rows):
    return Matrix.from_rows(QQ, rows, ncols=len(rows[0]) if rows else 0)


@st.composite
def int_matrices(draw, max_rows=8, max_cols=8, lo=-9, hi=9):
    nr = draw(st.integers(1, max_rows))
    nc = draw(st.integers(1, max_cols))
    flat = draw(st.lists(st.integers(lo, hi), min_size=nr * nc, max_size=nr * nc))
    return Matrix.from_flat(ZZ, nr, nc, flat)


# ---------------------------------------------------------------------------
# matrix plumbing


def test_matmul_and_identity():
    A = zmat([[1, 2], [3, 4]])
    I = Matrix.identity(ZZ, 2)
    assert A @ I == A
    assert I @ A == A
    assert (A @ zmat([[0, 1], [1, 0]])).to_rows() == [[2, 1], [4, 3]]


def old_matmul_rows(A, B):
    """Rows of A @ B by the accumulating loop, for every row length."""
    rows = []
    for r in A.rows:
        acc = {}
        for k, v in r.items():
            for j, w in B.rows[k].items():
                s = acc.get(j)
                s = v * w if s is None else s + v * w
                if s:
                    acc[j] = s
                elif j in acc:
                    del acc[j]
        rows.append(acc)
    return rows


def _typed(rows):
    """Each row as its (column, entry type, entry) list, in key order."""
    return [[(j, type(v), v) for j, v in r.items()] for r in rows]


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_one_term_rows_multiply_as_the_accumulating_loop(ring):
    rng = random.Random("one-term:%s" % ring)
    entries = [1, -1, 2, -3]
    if ring == QQ:
        entries += [Fraction(1, 1), Fraction(-2, 1), Fraction(1, 2), Fraction(-5, 3)]

    def sparse(nrows, ncols, max_terms):
        rows = []
        for _ in range(nrows):
            cols = rng.sample(range(ncols), min(ncols, rng.randint(0, max_terms)))
            rows.append({j: rng.choice(entries) for j in cols})
        return Matrix(ring, nrows, ncols, rows)

    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6))
               for _ in range(40)]
    one_term = 0
    for m, k, n in shapes:
        A, B = sparse(m, k, rng.choice([1, 3])), sparse(k, n, 3)
        got = A @ B
        assert got.shape == (m, n)
        assert _typed(got.rows) == _typed(old_matmul_rows(A, B))
        one_term += sum(len(r) == 1 for r in A.rows)
    assert one_term > 50
    # a stored Fraction(1, 1) keeps the product's entries Fractions
    A = Matrix(QQ, 1, 1, [{0: Fraction(1, 1)}])
    B = Matrix(QQ, 1, 2, [{0: 3, 1: Fraction(1, 2)}])
    assert _typed((A @ B).rows) == [[(0, Fraction, 3), (1, Fraction, Fraction(1, 2))]]
    assert _typed((A @ B).rows) == _typed(old_matmul_rows(A, B))


def test_ring_mismatch_rejected():
    A = zmat([[1]])
    B = qmat([[1]])
    with pytest.raises(ValueError):
        A @ B
    with pytest.raises(ValueError):
        A + B


def test_fraction_entries_rejected_over_z():
    with pytest.raises(TypeError):
        Matrix.from_rows(ZZ, [[Fraction(1, 2)]], ncols=1)


def test_block_matrix_assembly():
    B = block_matrix(ZZ, [1, 2], [2, 1], {
        (0, 0): zmat([[1, 2]]),
        (1, 1): zmat([[3], [4]]),
    })
    assert B.to_rows() == [[1, 2, 0], [0, 0, 3], [0, 0, 4]]


def test_zero_column_shapes():
    A = Matrix.zeros(ZZ, 3, 0)
    B = Matrix.zeros(ZZ, 0, 2)
    assert (A @ B).shape == (3, 2)
    assert (A @ B).is_zero()


# ---------------------------------------------------------------------------
# rank and kernels


def test_rank_kernel_identity():
    assert kernel_basis(Matrix.identity(ZZ, 4)) == []


def test_rank_kernel_sum_row():
    basis = kernel_basis(zmat([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    # the kernel line through (1, -1), up to sign
    assert v in ([1, -1], [-1, 1])


def naive_rank(M):
    """Fraction-free elimination over the integers, no pivot strategy."""
    rows = [[x for x in row] for row in M.to_rows()]
    if M.ring == QQ:
        scaled = []
        for row in rows:
            den = 1
            for x in row:
                den = den * Fraction(x).denominator
            scaled.append([int(Fraction(x) * den) for x in row])
        rows = scaled
    rk = 0
    nc = M.ncols
    for j in range(nc):
        piv = None
        for i in range(rk, len(rows)):
            if rows[i][j]:
                piv = i
                break
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        p = rows[rk][j]
        for i in range(rk + 1, len(rows)):
            if rows[i][j]:
                a = rows[i][j]
                rows[i] = [p * x - a * y for x, y in zip(rows[i], rows[rk])]
        rk += 1
    return rk


@given(int_matrices(max_rows=6, max_cols=6, lo=-5, hi=5))
def test_rank_matches_naive_elimination(M):
    assert rank(M) == naive_rank(M)


@given(int_matrices(max_rows=6, max_cols=6, lo=-5, hi=5))
def test_rank_same_over_both_rings(M):
    assert rank(M) == rank(M.to_ring(QQ))


def rational_4x6(seed):
    import random

    rng = random.Random("rank-oracle:%d" % seed)
    return qmat([[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(6)] for _ in range(4)])


def test_rational_rank_against_oracle():
    for seed in range(25):
        M = rational_4x6(seed)
        assert rank(M) == naive_rank(M)


@given(int_matrices())
def test_kernel_basis_contract(M):
    basis = kernel_basis(M)
    for v in basis:
        assert all(x == 0 for x in M.mul_vec(v))
    assert rank(M) + len(basis) == M.ncols
    if basis:
        K = Matrix.from_rows(M.ring, [list(r) for r in zip(*basis)],
                             ncols=len(basis))
        assert rank(K) == len(basis)


# ---------------------------------------------------------------------------
# solve


def test_solve_needs_divisibility_over_z():
    A = zmat([[2]])
    assert solve_matrix(A, zmat([[3]])) is None
    X = solve_matrix(A.to_ring(QQ), qmat([[3]]))
    assert X.entry(0, 0) == Fraction(3, 2)


def test_solve_inconsistent_is_none():
    A = qmat([[1, 1], [1, 1]])
    B = qmat([[0], [1]])
    assert solve_matrix(A, B) is None


@given(int_matrices(max_rows=5, max_cols=5, lo=-4, hi=4),
       int_matrices(max_rows=5, max_cols=3, lo=-4, hi=4))
def test_solve_round_trip(A, X):
    if X.nrows != A.ncols:
        return
    B = A @ X
    Y = solve_matrix(A, B)
    assert Y is not None
    assert A @ Y == B


# ---------------------------------------------------------------------------
# Smith normal form


def snf_contract(M):
    res = snf(M)
    assert res.U @ M @ res.V == res.S
    assert res.U @ res.U_inv == Matrix.identity(ZZ, M.nrows)
    assert res.V @ res.V_inv == Matrix.identity(ZZ, M.ncols)
    assert det(res.U) in (1, -1)
    assert det(res.V) in (1, -1)
    ds = res.divisors()
    for i in range(M.nrows):
        for j in range(M.ncols):
            if i != j:
                assert res.S.entry(i, j) == 0
    for d in ds:
        assert d >= 0
    prev = None
    for d in ds:
        if prev not in (None, 0):
            assert d % prev == 0
        prev = d
    return res


def test_snf_identity():
    res = snf_contract(Matrix.identity(ZZ, 3))
    assert res.S == Matrix.identity(ZZ, 3)
    assert res.U == Matrix.identity(ZZ, 3)
    assert res.V == Matrix.identity(ZZ, 3)


def test_snf_diag_2_3():
    res = snf_contract(Matrix.diagonal(ZZ, 2, 2, [2, 3]))
    assert res.divisors() == [1, 6]


def test_snf_zero_matrix():
    res = snf_contract(Matrix.zeros(ZZ, 2, 4))
    assert res.S.is_zero()


@given(int_matrices())
@settings(max_examples=120)
def test_snf_random_contract(M):
    snf_contract(M)


def test_snf_rejects_rational():
    with pytest.raises(ValueError):
        snf(qmat([[1]]))


def test_elementary_divisors_agree_with_snf():
    M = zmat([[4, 0], [0, 6]])
    assert elementary_divisors(M) == [2, 12]
    assert elementary_divisors(Matrix.zeros(ZZ, 2, 2)) == []


@given(int_matrices(max_rows=6, max_cols=6, lo=-6, hi=6))
def test_elementary_divisors_match_dense_snf(M):
    assert elementary_divisors(M) == [d for d in snf(M).divisors() if d]


# (matrix, nonzero elementary divisors): empty, zero, 1x1 and rank-deficient
# non-square shapes
EDGE_SHAPES = [
    (Matrix.zeros(ZZ, 0, 0), []),
    (Matrix.zeros(ZZ, 0, 3), []),
    (Matrix.zeros(ZZ, 3, 0), []),
    (Matrix.zeros(ZZ, 2, 4), []),
    (zmat([[6]]), [6]),
    (zmat([[-1]]), [1]),
    (zmat([[0]]), []),
    (zmat([[2, 4, 6], [1, 2, 3]]), [1]),
    (zmat([[2, 4], [4, 8], [6, 12]]), [2]),
    (zmat([[2, 0, 4, 0], [0, 0, 0, 0], [4, 0, 14, 0]]), [2, 6]),
    (zmat([[0, 0], [0, 3], [0, -6], [0, 0]]), [3]),
    (zmat([[3, 6, 9, 12, 15], [1, 2, 3, 4, 5], [0, 0, 0, 0, 5]]), [1, 5]),
]


@pytest.mark.parametrize("M,divs", EDGE_SHAPES)
def test_smith_form_on_edge_shapes(M, divs):
    res = snf_contract(M)
    assert res.S.shape == M.shape
    assert res.U.shape == res.U_inv.shape == (M.nrows, M.nrows)
    assert res.V.shape == res.V_inv.shape == (M.ncols, M.ncols)
    assert [d for d in res.divisors() if d] == divs
    assert elementary_divisors(M) == divs
    assert len(divs) == rank(M)


@pytest.mark.parametrize("M,divs", EDGE_SHAPES)
def test_z_bases_and_solve_on_edge_shapes(M, divs):
    r = len(divs)
    basis = kernel_basis(M)
    assert len(basis) == M.ncols - r
    assert all(len(v) == M.ncols and not any(M.mul_vec(v)) for v in basis)
    if basis:  # a lattice basis of a saturated sublattice
        K = Matrix.from_rows(ZZ, [list(c) for c in zip(*basis)], ncols=len(basis))
        assert elementary_divisors(K) == [1] * len(basis)
    X = Matrix.from_flat(ZZ, M.ncols, 2, [(3 * k) % 5 - 2 for k in range(2 * M.ncols)])
    Y = solve_matrix(M, M @ X)
    assert Y is not None and Y.shape == X.shape and M @ Y == M @ X
    if r < M.nrows or any(d > 1 for d in divs):
        # U^-1 e_t lies in im M exactly when t < r and d_t = 1
        t = next((i for i, d in enumerate(divs) if d > 1), r)
        c = snf(M).U_inv.column(t)
        assert solve_matrix(M, Matrix.from_rows(ZZ, [[v] for v in c])) is None


# ---------------------------------------------------------------------------
# homology classes


def test_abelian_class_str_and_invariants():
    assert str(AbelianClass(0, ())) == "0"
    assert str(AbelianClass(2, (3,))) == "Z^2 + Z/3"
    assert str(AbelianClass(1, (2, 6))) == "Z + Z/2 + Z/6"
    assert AbelianClass(0, ()).is_zero()
    with pytest.raises(ValueError):
        AbelianClass(-1)
    with pytest.raises(ValueError):
        AbelianClass(0, (1,))
    with pytest.raises(ValueError):
        AbelianClass(0, (4, 6))  # 6 is not a multiple of 4


def test_homology_class_zero_maps():
    z = Matrix.zeros(ZZ, 2, 0)
    z2 = Matrix.zeros(ZZ, 0, 2)
    assert homology_class(z, z2) == AbelianClass(2, ())


def test_homology_class_z_mod_2():
    d_in = zmat([[2]])
    d_out = Matrix.zeros(ZZ, 0, 1)
    assert homology_class(d_in, d_out) == AbelianClass(0, (2,))


def test_homology_class_exact_middle():
    d_in = zmat([[1], [1]])
    d_out = zmat([[1, -1]])
    assert homology_class(d_in, d_out) == AbelianClass(0, ())


def test_homology_class_rejects_non_complex():
    d_in = zmat([[1], [0]])
    d_out = zmat([[1, 0]])
    with pytest.raises(CompositionError):
        homology_class(d_in, d_out)


ELIMINATION_CORES = {"_eliminate", "_rank_of", "_divisors_of"}


def test_only_linalg_reaches_the_elimination_cores():
    """Which elimination reads an invariant is decided in linalg alone: no
    other src module imports or names its private elimination cores."""
    files = sorted((Path(__file__).parent.parent / "src" / "fihom").glob("*.py"))
    assert files
    found = set()
    for path in files:
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            found |= {(path.name, name) for name in names & ELIMINATION_CORES}
    assert found == set()


def random_unimodular(rng, n):
    """Product of two unit-triangular integer matrices, so det = 1."""
    L = [[0] * n for _ in range(n)]
    U = [[0] * n for _ in range(n)]
    for i in range(n):
        L[i][i] = U[i][i] = 1
        for j in range(i):
            L[i][j] = rng.randint(-2, 2)
            U[j][i] = rng.randint(-2, 2)
    return zmat(L) @ zmat(U)


def test_homology_class_basis_change_invariant():
    import random

    rng = random.Random("basis-change:0")
    for _ in range(20):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        d_out = zmat([[rng.randint(-3, 3) for _ in range(b)] for _ in range(a)])
        ker = kernel_basis(d_out)
        if not ker:
            continue
        scales = [rng.randint(-2, 2) for _ in ker]
        cols = [[c * s for c in v] for v, s in zip(ker, scales)]
        d_in = Matrix.from_rows(ZZ, [list(r) for r in zip(*cols)], ncols=len(cols))
        h = homology_class(d_in, d_out)
        P0 = random_unimodular(rng, a)
        P1 = random_unimodular(rng, b)
        P2 = random_unimodular(rng, len(cols))
        d_in2 = P1 @ d_in @ solve_matrix(P2, Matrix.identity(ZZ, len(cols)))
        d_out2 = P0 @ d_out @ solve_matrix(P1, Matrix.identity(ZZ, b))
        assert homology_class(d_in2, d_out2) == h


def test_euler_characteristic_over_q():
    import random

    rng = random.Random("euler:0")
    for _ in range(20):
        a, b = rng.randint(1, 4), rng.randint(1, 5)
        d_out = qmat([[Fraction(rng.randint(-3, 3)) for _ in range(b)]
                      for _ in range(a)])
        ker = kernel_basis(d_out)
        k = len(ker)
        d_in = Matrix.from_rows(QQ, [list(r) for r in zip(*ker)], ncols=k) \
            if ker else Matrix.zeros(QQ, b, 0)
        h_left = homology_class(Matrix.zeros(QQ, k, 0), d_in)
        h_mid = homology_class(d_in, d_out)
        h_right = homology_class(d_out, Matrix.zeros(QQ, 0, a))
        assert k - b + a == h_left.rank - h_mid.rank + h_right.rank


# ---------------------------------------------------------------------------
# quotient coordinates


def test_quotient_coords_round_trip():
    d_in = qmat([[1], [1], [0]])
    d_out = Matrix.zeros(QQ, 0, 3)
    q = QuotientCoords(d_in, d_out)
    assert q.dim == 2
    for t in range(q.dim):
        coords = q.reduce(q.rep(t))
        assert [x for x in coords] == [1 if i == t else 0 for i in range(q.dim)]
    # the relation itself reduces to zero
    assert all(x == 0 for x in q.reduce([1, 1, 0]))


# ---------------------------------------------------------------------------
# the elimination loop against the routines it replaced
#
# old_rank, old_unit_peel + old_elementary_divisors and old_det_q are the
# row-scanning rank, the unit-peeling loop of elementary_divisors and the
# Gauss branch of det over Q as they stood before `_eliminate` served
# rank and elementary_divisors and det cleared denominators into Bareiss.
# old_snf is the dense Smith form as it stood before the divisors were
# taken modulo a maximal minor and the transforms were size-reduced;
# old_elementary_divisors sends its residue through it.


def old_rank(M):
    """Rank of M, by sparse fraction-free elimination."""
    rows = list(_int_rows(M).values())
    rk = 0
    while rows:
        # cheapest pivot: prefer rows holding a +-1 entry, then short rows
        best = None
        for idx, r in enumerate(rows):
            key = (0 if any(v == 1 or v == -1 for v in r.values()) else 1, len(r))
            if best is None or key < best[0]:
                best = (key, idx)
                if key == (0, 1):
                    break
        idx = best[1]
        prow = rows.pop(idx)
        pj, pv = min(prow.items(), key=lambda kv: (abs(kv[1]) != 1, abs(kv[1])))
        rk += 1
        nxt = []
        for r in rows:
            a = r.get(pj)
            if a is None:
                nxt.append(r)
                continue
            d = {}
            for j, v in r.items():
                d[j] = pv * v
            for j, v in prow.items():
                w = d.get(j, 0) - a * v
                if w:
                    d[j] = w
                elif j in d:
                    del d[j]
            if d:
                g = gcd(*d.values())
                if g > 1:
                    d = {j: v // g for j, v in d.items()}
                nxt.append(d)
        rows = nxt
    return rk


def old_unit_peel(M):
    """(unit pivot count, residue rows) of the old elementary_divisors peel."""
    rows = {}
    cols = {}
    for i, r in enumerate(M.rows):
        if r:
            rows[i] = dict(r)
            for j in r:
                cols.setdefault(j, set()).add(i)
    ones = 0
    unit_queue = [(i, j) for i, r in rows.items() for j, v in r.items() if v in (1, -1)]
    while unit_queue:
        pi, pj = unit_queue.pop()
        r = rows.get(pi)
        if r is None or r.get(pj) not in (1, -1):
            continue
        pv = r[pj]
        # row elimination below/above the unit pivot
        for i in list(cols.get(pj, ())):
            if i == pi:
                continue
            ri = rows[i]
            q = ri[pj] * pv  # ri - q*r zeroes column pj since pv*pv == 1
            for j, v in r.items():
                w = ri.get(j, 0) - q * v
                if w:
                    if j not in ri:
                        cols.setdefault(j, set()).add(i)
                    ri[j] = w
                    if w in (1, -1):
                        unit_queue.append((i, j))
                else:
                    if j in ri:
                        del ri[j]
                        cols[j].discard(i)
            if not ri:
                del rows[i]
        # remaining entries of the pivot row die by column ops touching only it
        for j in r:
            cols[j].discard(pi)
        del rows[pi]
        ones += 1
    return ones, rows


def old_snf(M):
    """Smith form by dense 2x2 unimodular (xgcd) row and column steps.

    Nothing bounds its entries: at 28x28 on entries in [-9, 9] the
    transforms reach a million bits.  Kept only as an oracle.
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


def old_elementary_divisors(M):
    ones, rows = old_unit_peel(M)
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
    res = old_snf(Matrix.from_rows(ZZ, dense, ncols=len(live_cols)))
    tail = [d for d in res.divisors() if d]
    return [1] * ones + tail


def old_det_q(M):
    """Determinant of a square Q matrix by Fraction Gauss elimination."""
    n = M.nrows
    if n == 0:
        return Fraction(1)
    A = [row[:] for row in M.to_rows()]
    sign = 1
    out = Fraction(1)
    for k in range(n):
        if not A[k][k]:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        out *= A[k][k]
        inv = 1 / A[k][k]
        for i in range(k + 1, n):
            if A[i][k]:
                c = A[i][k] * inv
                A[i] = [x - c * y for x, y in zip(A[i], A[k])]
    return sign * out


def cube_differentials(ring):
    out = []
    for m in (2, 3):
        V = representable(m, 6, ring)
        for n in range(V.truncation + 1):
            out.extend(fih_chain_complex(V, n).d)
    return out


def sparse_int(seed):
    """Seeded sparse integer matrix, 20..40 by 20..40, with dependent rows.

    About one entry in eight is nonzero, drawn from {-1, 1, -2, 2, 3}; a
    fifth of the rows are replaced by r_a + 2 r_b, which lowers the rank
    and plants torsion.
    """
    import random

    rng = random.Random("sparse-elim:%d" % seed)
    nr, nc = rng.randint(20, 40), rng.randint(20, 40)
    rows = [{j: rng.choice((-1, 1, 1, -2, 2, 3)) for j in range(nc)
             if rng.random() < 0.12} for _ in range(nr)]
    for i in rng.sample(range(nr), nr // 5):
        a, b = rng.sample(range(nr), 2)
        d = dict(rows[a])
        for j, v in rows[b].items():
            d[j] = d.get(j, 0) + 2 * v
        rows[i] = {j: v for j, v in d.items() if v}
    return Matrix.from_sparse(ZZ, nr, nc, rows)


def rational_rows(M, seed):
    """M over Q with every row divided by its own random denominator."""
    import random

    rng = random.Random("rational-rows:%d" % seed)
    rows = []
    for r in M.rows:
        den = rng.randint(1, 7)
        rows.append({j: Fraction(v, den) for j, v in r.items()})
    return Matrix.from_sparse(QQ, M.nrows, M.ncols, rows)


SPARSE = [sparse_int(seed) for seed in range(30)]


def test_sparse_matrices_need_both_pivot_kinds():
    # the differential tests below mean something only if the loop meets
    # non-unit pivots and the divisors meet a dense residue
    peeled = [_eliminate({i: dict(r) for i, r in enumerate(M.rows) if r}, True)
              for M in SPARSE]
    assert all(len(piv) < rank(M) for M, (piv, _) in zip(SPARSE, peeled))
    assert any(d > 1 for M in SPARSE for d in elementary_divisors(M))


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_rank_matches_old_rank_on_cube_differentials(ring):
    for d in cube_differentials(ring):
        assert rank(d) == old_rank(d) == naive_rank(d)


def test_rank_matches_old_rank_on_sparse_matrices():
    for seed, M in enumerate(SPARSE):
        Q = rational_rows(M, seed)
        assert rank(M) == old_rank(M) == naive_rank(M)
        assert rank(Q) == old_rank(Q) == naive_rank(Q) == rank(M)
        assert rank(M.transpose()) == rank(M)


def test_elementary_divisors_match_old_on_cube_differentials():
    for d in cube_differentials(ZZ):
        assert elementary_divisors(d) == old_elementary_divisors(d)


def test_divisor_count_is_the_rank():
    V = representable(3, 6, ZZ)
    cube = [d for n in range(V.truncation + 1) for d in fih_chain_complex(V, n).d]
    for M in SPARSE + cube:
        assert len(elementary_divisors(M)) == rank(M)


def test_elementary_divisors_match_old_on_sparse_matrices():
    for M in SPARSE:
        assert elementary_divisors(M) == old_elementary_divisors(M)


def test_unit_mode_residue_is_the_old_peel():
    for M in cube_differentials(ZZ) + SPARSE:
        piv, rows = _eliminate({i: dict(r) for i, r in enumerate(M.rows) if r}, True)
        assert (len(piv), rows) == old_unit_peel(M)


# `_eliminate` as it stood with a queue of every (row, column) at +-1, and
# the `_clear` it called: the oracle for the queue of row keys.


def old_clear(rows, cols, pi, pj, queue, fills):
    r = rows[pi]
    pv = r[pj]
    unit = pv in (1, -1)
    for i in list(cols[pj]):
        if i == pi:
            continue
        ri = rows[i]
        if unit:
            q = ri[pj] * pv
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
                    fills.append((i, j))
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


def old_eliminate(rows, units_only, fills):
    cols = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
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
        old_clear(rows, cols, pi, pj, queue, fills)
        for j in r:
            cols[j].discard(pi)
        del rows[pi]
        pivots.append(pj)


def elimination_rows(seed):
    """Seeded sparse integer rows {key: row}, 2..12 by 2..12, keys shuffled,
    entries drawn from {+-1, +-2, 3, -4, 6}, about one in three nonzero."""
    rng = random.Random("queue-oracle:%d" % seed)
    nr, nc = rng.randint(2, 12), rng.randint(2, 12)
    keys = rng.sample(range(3 * nr), nr)
    rows = {}
    for i in keys:
        r = {}
        for j in rng.sample(range(nc), nc):
            if rng.random() < 0.35:
                r[j] = rng.choice((1, -1, 1, -1, 2, -2, 3, -4, 6))
        if r:
            rows[i] = r
    return rows


def test_the_row_key_queue_pivots_as_the_pair_queue():
    """`_eliminate` takes the pivots of the old queue of (row, column)
    pairs, in the same order, and leaves the same residue: the same row
    keys in the same order, each row with the same entries in the same
    order, in both modes."""
    fills, filled, stuck, non_unit = [], 0, 0, 0
    for seed in range(2000):
        rows = elimination_rows(seed)
        got = {}
        for units_only in (True, False):
            want = old_eliminate({i: dict(r) for i, r in rows.items()}, units_only, fills)
            got[units_only] = _eliminate({i: dict(r) for i, r in rows.items()}, units_only)
            assert got[units_only][0] == want[0], seed
            assert ([(i, list(r.items())) for i, r in got[units_only][1].items()]
                    == [(i, list(r.items())) for i, r in want[1].items()]), seed
        filled += bool(fills)
        stuck += bool(got[True][1])  # the peel stops at a non-unit residue
        non_unit += len(got[False][0]) > len(got[True][0])
        del fills[:]
    assert min(filled, stuck, non_unit) > 500, (filled, stuck, non_unit)


# ---------------------------------------------------------------------------
# the modular divisors and the reduced transforms against the dense Smith form


def dense_or_planted(seed):
    """Seeded integer matrix of 1..20 rows and columns.

    Even seeds: dense entries in [-9, 9], every third one with a row that is
    the sum of two others (rank-deficient).  Odd seeds: planted, A D B with
    A, B unimodular and D a diagonal divisor chain of rank at most the
    smaller side, so some are rank-deficient and most have torsion.
    """
    import random

    rng = random.Random("smith-diff:%d" % seed)
    nr, nc = rng.randint(1, 20), rng.randint(1, 20)
    if seed % 2 == 0:
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        if seed % 3 == 0 and nr >= 3:
            rows[0] = [a + b for a, b in zip(rows[1], rows[2])]
        return zmat(rows)

    def unimodular(n):
        lower = [[int(i == j) if j >= i else rng.choice((-1, 0, 0, 1))
                  for j in range(n)] for i in range(n)]
        upper = [[int(i == j) if j <= i else rng.choice((-1, 0, 0, 1))
                  for j in range(n)] for i in range(n)]
        return zmat(lower) @ zmat(upper)

    rk = rng.randint(0, min(nr, nc))
    chain, cur = [], 1
    for _ in range(rk):
        cur *= rng.choice((1, 1, 2, 3))
        chain.append(cur)
    return unimodular(nr) @ Matrix.diagonal(ZZ, nr, nc, chain) @ unimodular(nc)


SMITH_DIFF = [dense_or_planted(seed) for seed in range(30)]


def test_smith_differential_inputs_are_varied():
    assert any(M.nrows != M.ncols for M in SMITH_DIFF)
    assert any(rank(M) < min(M.shape) for M in SMITH_DIFF)
    assert any(d > 1 for M in SMITH_DIFF for d in elementary_divisors(M))


def test_smith_form_matches_old_snf():
    for M in SMITH_DIFF:
        new, old = snf_contract(M), old_snf(M)
        assert new.S == old.S
        assert old.U @ M @ old.V == old.S


def test_elementary_divisors_match_old_on_dense_and_planted():
    for M in SMITH_DIFF:
        divs = elementary_divisors(M)
        assert divs == old_elementary_divisors(M)
        assert divs == [d for d in old_snf(M).divisors() if d]


# ---------------------------------------------------------------------------
# Smith transforms on request: each Z caller against the full `snf`
#
# The old_* functions are the Z branches of kernel_basis, solve_matrix and
# fi_coker's quotient maps as they stood when they read a full `snf`.


def old_kernel_basis_z(M):
    res = snf(M)
    r = len([d for d in res.divisors() if d])
    return [res.V.column(j) for j in range(r, M.ncols)]


def old_solve_z(A, B):
    res = snf(A)
    rhs = res.U @ B
    diag = [res.S.entry(i, i) for i in range(min(A.nrows, A.ncols))]
    yrows = [{} for _ in range(A.ncols)]
    for i in range(A.nrows):
        d = diag[i] if i < len(diag) else 0
        for j, v in rhs.rows[i].items():
            if not d or v % d:
                return None
            yrows[i][j] = v // d
    return res.V @ Matrix(ZZ, A.ncols, B.ncols, yrows)


def old_coker_maps_z(M):
    """fi_coker's (projection, lift) at one level, or None on torsion."""
    res = snf(M)
    ds = [d for d in res.divisors() if d]
    if any(d != 1 for d in ds):
        return None
    r, d = len(ds), M.nrows
    return (Matrix(ZZ, d - r, d, res.U.rows[r:]),
            Matrix(ZZ, d, d - r, [{j - r: v for j, v in row.items() if j >= r}
                                  for row in res.U_inv.rows]))


def test_snf_builds_only_the_transforms_asked_for():
    import itertools

    names = ("U", "U_inv", "V", "V_inv")
    for M in SMITH_DIFF[:12]:
        full = snf(M)
        for want in itertools.product((False, True), repeat=4):
            res = linalg._snf(M, *want)
            assert res.S == full.S
            for name, w in zip(names, want):
                assert getattr(res, name) == (getattr(full, name) if w else None)


def test_z_callers_of_the_smith_form_match_the_full_snf(monkeypatch):
    import random

    from fihom import fimodule
    from fihom.fimodule import CokernelTorsionError, FIModule, FIMorphism, fi_coker

    got = []
    build = fimodule._quotient_module

    def capture(W, quots, name=""):
        got.append(quots[0])
        return build(W, quots, name)

    monkeypatch.setattr(fimodule, "_quotient_module", capture)
    rng = random.Random("smith-callers")
    unsolvable = cokernels = 0
    for M in SMITH_DIFF:
        assert kernel_basis(M) == old_kernel_basis_z(M)
        X = zmat([[rng.randint(-3, 3) for _ in range(3)] for _ in range(M.ncols)])
        B = M @ X
        assert solve_matrix(M, B) == old_solve_z(M, B)
        assert M @ solve_matrix(M, B) == B
        junk = zmat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(M.nrows)])
        assert solve_matrix(M, junk) == old_solve_z(M, junk)
        unsolvable += solve_matrix(M, junk) is None
        # fi_coker at truncation 0 is the cokernel of the one level map M
        src, tgt = (FIModule(ZZ, 0, (k,), (), ((),)) for k in (M.ncols, M.nrows))
        want = old_coker_maps_z(M)
        if want is None:
            with pytest.raises(CokernelTorsionError):
                fi_coker(FIMorphism(src, tgt, (M,)))
            continue
        got.clear()
        fi_coker(FIMorphism(src, tgt, (M,)))
        assert got == [want]
        cokernels += 1
    assert unsolvable > 5 and cokernels > 5


# old_divisors_mod is elementary_divisors as it stood before the dense
# residue went through `_smith`: a Bareiss loop with full pivoting gave the
# rank r and a nonzero r x r minor D, and the divisors were read off a
# Smith form modulo D.


def old_bareiss(A, ncols):
    """(rank r, nonzero r x r minor) of dense integer rows A, consumed.

    A zero pivot is replaced from below in its column, each row swap
    flipping the sign, else from a column to its right.  The empty minor
    of a zero matrix is 1.
    """
    m = len(A)
    sign = prev = 1
    for k in range(min(m, ncols)):
        if not A[k][k]:
            at = next(((i, j) for j in range(k, ncols) for i in range(k, m) if A[i][j]), None)
            if at is None:
                return k, sign * prev
            i, j = at
            if i != k:
                A[k], A[i] = A[i], A[k]
                sign = -sign
            if j != k:
                for row in A[k:]:
                    row[k], row[j] = row[j], row[k]
        pk, pr = A[k][k], A[k]
        right = range(k + 1, ncols)
        for i in range(k + 1, m):
            Ai = A[i]
            a = Ai[k]
            for j in right:
                Ai[j] = (Ai[j] * pk - a * pr[j]) // prev
        prev = pk
    return min(m, ncols), sign * prev


def old_clear_column_mod(rows, i, j, D):
    """Row steps over Z/DZ leaving rows[i][j] alone in column j: a multiple
    of the pivot by subtraction, any other entry by a 2x2 xgcd step."""
    for k, row in enumerate(rows):
        b = row[j]
        if k == i or not b:
            continue
        a = rows[i][j]
        if b % a == 0:
            q = b // a
            rows[k] = [(v - q * u) % D for u, v in zip(rows[i], row)]
            continue
        g, x, y = _xgcd(a, b)
        a, b = a // g, b // g  # [[x, y], [-b, a]] has det 1
        rows[i], rows[k] = ([(x * u + y * v) % D for u, v in zip(rows[i], row)],
                            [(a * v - b * u) % D for u, v in zip(rows[i], row)])


def old_smith_mod(A, r, D):
    """The r nonzero elementary divisors of the dense rows A, of rank r,
    given the absolute value D of a nonzero r x r minor (Hafner-McCurley,
    SIAM J. Comput. 20, 1991).

    A unit pivot mod D is one divisor 1; any other pivot is made alone in
    its row and column, and gives Z/gcd(pivot, D).  Rows without a pivot
    give Z/D each; 2x2 gcd/lcm steps sort the factors.
    """
    rows = [[v % D for v in row] for row in A]
    found = []
    while True:
        rows = [row for row in rows if any(row)]
        if not rows:
            break
        unit = next(((i, j) for i, row in enumerate(rows)
                     for j, v in enumerate(row) if v and gcd(v, D) == 1), None)
        if unit is not None:
            i, j = unit
            prow = rows.pop(i)
            inv = pow(prow[j], -1, D)
            prow = [v * inv % D for v in prow]
            for k, row in enumerate(rows):
                c = row[j]
                if c:
                    rows[k] = [(a - c * b) % D for a, b in zip(row, prow)]
            found.append(1)
        else:
            _, i, j = min((v, i, j) for i, row in enumerate(rows)
                          for j, v in enumerate(row) if v)
            while True:
                old_clear_column_mod(rows, i, j, D)
                cols = [list(c) for c in zip(*rows)]
                old_clear_column_mod(cols, j, i, D)
                rows = [list(c) for c in zip(*cols)]
                if not any(row[j] for k, row in enumerate(rows) if k != i):
                    break
            found.append(gcd(rows.pop(i)[j], D))
        for row in rows:
            del row[j]
    for i in range(len(found)):
        for j in range(i + 1, len(found)):
            a, b = found[i], found[j]
            if b % a:
                found[i], found[j] = gcd(a, b), lcm(a, b)
    return (found + [D] * r)[:r]


def old_divisors_mod(M):
    piv, rows = _eliminate({i: dict(r) for i, r in enumerate(M.rows) if r}, True)
    ones = len(piv)
    if not rows:
        return [1] * ones
    live_cols = sorted({j for r in rows.values() for j in r})
    cindex = {j: k for k, j in enumerate(live_cols)}
    dense = [[0] * len(live_cols) for _ in rows]
    for k, i in enumerate(sorted(rows)):
        for j, v in rows[i].items():
            dense[k][cindex[j]] = v
    r, minor = old_bareiss([row[:] for row in dense], len(live_cols))
    return [1] * ones + old_smith_mod(dense, r, abs(minor))


def test_divisors_modulo_a_minor_without_unit_pivots():
    """Entries that share a factor with every minor: no pivot is a unit mod
    D, so in the oracle `old_divisors_mod` every divisor comes from the
    xgcd branch."""
    import random

    rng = random.Random("non-unit")
    mats = [zmat([[2, 4], [6, 8]]), zmat([[2, 2], [2, 6]]), zmat([[6, 6, 6], [6, 6, 6]]),
            zmat([[4, 0, 2], [0, 6, 0], [2, 0, 4]])]
    for _ in range(20):
        n, c = rng.randint(2, 6), rng.choice((2, 3, 6))
        mats.append(zmat([[c * rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]))
    for M in mats:
        divs = elementary_divisors(M)
        assert divs == old_divisors_mod(M)
        assert divs == old_elementary_divisors(M)
        assert divs == [d for d in snf_contract(M).divisors() if d]
        assert all(d > 1 for d in divs)


def vandermonde(n):
    return zmat([[x ** k for k in range(n)] for x in range(1, n + 1)])


def parting_inputs():
    """Inputs on which the Hermite passes and the modular divisors part
    ways: huge entries (large minors), even entries (no unit pivot mod D),
    a rank-deficient product, a Vandermonde (D is a product of factorials)
    and a sparse matrix (a large unit peel before a dense residue)."""
    import random

    rng = random.Random("parting")
    dense = zmat([[rng.randint(-10**6, 10**6) for _ in range(30)] for _ in range(30)])
    even = zmat([[2 * rng.randint(-9, 9) for _ in range(40)] for _ in range(40)])
    A = zmat([[rng.randint(-5, 5) for _ in range(20)] for _ in range(40)])
    B = zmat([[rng.randint(-5, 5) for _ in range(50)] for _ in range(20)])
    sparse = Matrix.from_sparse(ZZ, 80, 80, [
        {j: rng.choice((-1, 1, 2, -2, 3, 4)) for j in range(80) if rng.random() < 0.08}
        for _ in range(80)])
    return [pytest.param(dense, id="dense30-1e6"), pytest.param(even, id="even40"),
            pytest.param(A @ B, id="rank20-40x50"),
            pytest.param(vandermonde(12), id="vandermonde12"),
            pytest.param(sparse, id="sparse80")]


@pytest.mark.parametrize("M", parting_inputs())
def test_elementary_divisors_match_old_divisors_mod_where_they_part(M):
    import time

    start = time.perf_counter()
    divs = elementary_divisors(M)
    assert time.perf_counter() - start < 5.0
    assert divs == old_divisors_mod(M)
    assert len(divs) == rank(M)
    assert all(d > 0 for d in divs)
    assert all(b % a == 0 for a, b in zip(divs, divs[1:]))
    if M.nrows == M.ncols:
        assert (prod(divs) if len(divs) == M.nrows else 0) == abs(det(M))


def test_one_smith_engine_behind_snf_and_elementary_divisors(monkeypatch):
    """`snf` and `elementary_divisors` diagonalize through `linalg._smith`,
    one call each, and agree on the divisors."""
    calls = []
    engine = linalg._smith

    def counted(*args):
        calls.append(len(args[0]))
        return engine(*args)

    monkeypatch.setattr(linalg, "_smith", counted)
    mats = [zmat([[2, 4], [6, 8]]), zmat([[4, 0, 2], [0, 6, 0], [2, 0, 4]]),
            vandermonde(6), SMITH_DIFF[3], SMITH_DIFF[7]]
    for M in mats:
        residue = _eliminate({i: dict(r) for i, r in enumerate(M.rows) if r}, True)[1]
        assert residue  # a non-unit residue is left after the peel
        calls.clear()
        divs = elementary_divisors(M)
        assert calls == [len(residue)]
        calls.clear()
        S = snf(M).S
        assert calls == [M.nrows]
        assert divs == [d for d in (S.entry(i, i) for i in range(min(M.shape))) if d]


@pytest.mark.parametrize("n,seed,budget", [(40, "dense40", 5.0), (60, "dense60", 5.0)])
def test_large_dense_smith_form_within_budget(n, seed, budget):
    """Dense n x n entries in [-9, 9]: the old dense routine did not finish
    either size in a minute; these must finish in `budget` seconds, with
    transform entries of at most four times the bits of |det|."""
    import random
    import time

    rng = random.Random(seed)
    M = zmat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    start = time.perf_counter()
    res = snf(M)
    divs = elementary_divisors(M)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    I = Matrix.identity(ZZ, n)
    assert res.U @ M @ res.V == res.S
    assert res.U @ res.U_inv == I and res.V @ res.V_inv == I
    diag = res.divisors()
    assert all(d > 0 for d in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    assert divs == diag
    product = 1
    for d in divs:
        product *= d
    assert product == abs(det(M)) != 0
    # size reduction: transform entries stay within a few times |det|'s size
    bits = max(abs(v).bit_length() for X in (res.U, res.V, res.U_inv, res.V_inv)
               for r in X.rows for v in r.values())
    assert bits <= 4 * product.bit_length()


def laplace_det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * v * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, v in enumerate(rows[0]) if v)


def test_z_det_matches_laplace_expansion():
    """Zero pivots force Bareiss to swap rows: sparse entries and every
    permutation matrix of size 4, whose determinant is its sign."""
    import itertools
    import random

    rng = random.Random("z-det")
    mats = [[[int(p[i] == j) for j in range(4)] for i in range(4)]
            for p in itertools.permutations(range(4))]
    for _ in range(60):
        n = rng.randint(1, 6)
        mats.append([[rng.choice((0, 0, 0, 1, -2, 3)) for _ in range(n)] for _ in range(n)])
    for rows in mats:
        M = zmat(rows)
        assert det(M) == laplace_det(rows)
        assert det(M.to_ring(QQ)) == laplace_det(rows)


def test_q_det_matches_gauss():
    import random

    rng = random.Random("q-det")
    for n in range(13):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                for _ in range(n)]
        if n >= 2 and rng.random() < 0.3:
            rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]  # singular
        M = qmat(rows) if n else Matrix.zeros(QQ, 0, 0)
        assert det(M) == old_det_q(M)
    for seed, M in enumerate(SPARSE):
        k = min(M.shape)
        Q = rational_rows(Matrix.from_rows(ZZ, [r[:k] for r in M.to_rows()[:k]]), seed)
        assert det(Q) == old_det_q(Q)
        assert det(Q) == 0 or rank(Q) == k
    for d in cube_differentials(QQ):
        if 0 < min(d.shape) <= 30:
            G = d @ d.transpose() if d.nrows <= d.ncols else d.transpose() @ d
            assert det(G) == old_det_q(G)


# ---------------------------------------------------------------------------
# the sparse RREF and its readers against the dense routines they replaced
#
# old_rref, OldQuotientCoords and the old_* Q readers are the dense
# Gauss-Jordan, the per-vector quotient coordinates and the kernel and
# solve branches as they stood before one sparse RREF served them all.
# old_sparse_rref is that sparse RREF as it stood on Fraction rows, before
# it ran on integer rows through the clearing step of `rank`.


def old_rref(M):
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


def old_sparse_rref(M):
    """(pivot columns, rows) of the RREF by sparse Gauss-Jordan on Fraction
    rows {col: Fraction}, with a column index and canonical pivots: the
    leftmost live column, on the shortest unplaced row holding it."""
    rows = [{j: Fraction(v) for j, v in r.items()} for r in M.rows]
    cols = {}
    for i, r in enumerate(rows):
        for j in r:
            cols.setdefault(j, set()).add(i)
    pivots, placed = [], {}
    for j in range(M.ncols):
        live = [i for i in cols.get(j, ()) if i not in placed]
        if not live:
            continue
        pi = min(live, key=lambda i: (len(rows[i]), i))
        r = rows[pi]
        pv = r[j]
        if pv != 1:
            for k in r:
                r[k] /= pv
        for i in list(cols[j]):
            if i == pi:
                continue
            ri = rows[i]
            c = ri[j]
            for k, v in r.items():
                w = ri.get(k, 0) - c * v
                if w:
                    if k not in ri:
                        cols.setdefault(k, set()).add(i)
                    ri[k] = w
                else:
                    del ri[k]
                    cols[k].discard(i)
        pivots.append(j)
        placed[pi] = r
    return pivots, list(placed.values())


def old_kernel_basis_q(M):
    pivots, rows = old_rref(M)
    pivset = set(pivots)
    basis = []
    for f in [j for j in range(M.ncols) if j not in pivset]:
        v = [Fraction(0)] * M.ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(v)
    return basis


def old_solve_q(A, B):
    aug = Matrix.from_rows(QQ, [
        [A.entry(i, j) for j in range(A.ncols)]
        + [B.entry(i, c) for c in range(B.ncols)]
        for i in range(A.nrows)], ncols=A.ncols + B.ncols)
    apiv, arows = old_rref(aug)
    xrows = [{} for _ in range(A.ncols)]
    for rrow, p in zip(arows, apiv):
        if p >= A.ncols:
            return None
        for c in range(B.ncols):
            v = rrow[A.ncols + c]
            if v:
                xrows[p][c] = v
    return Matrix(QQ, A.ncols, B.ncols, xrows)


class OldQuotientCoords:
    """Dense coordinates on ker(d_out)/im(d_in) over Q."""

    def __init__(self, d_in, d_out):
        self.ambient_dim = d_in.nrows
        pivots, rows = old_rref(d_out)
        pivset = set(pivots)
        self._free = [j for j in range(d_out.ncols) if j not in pivset]
        self._kpivots = pivots
        self._krows = rows
        y = [[d_in.entry(f, j) for j in range(d_in.ncols)] for f in self._free]
        ymat = Matrix.from_rows(QQ, y, ncols=d_in.ncols)
        ypiv, yrows = old_rref(ymat.transpose())
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
        k = [Fraction(vec[f]) for f in self._free]
        for row, p in zip(self._qrows, self._qpivots):
            c = k[p]
            if c:
                k = [a - c * b for a, b in zip(k, row)]
        return [k[t] for t in self._coords]

    def rep(self, t):
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
        rows = [{} for _ in range(target.dim)]
        for t in range(self.dim):
            img = chain_map.mul_vec(self.rep(t))
            for i, v in enumerate(target.reduce(img)):
                if v:
                    rows[i][t] = v
        return Matrix(QQ, target.dim, self.dim, rows)


def sparse_q(seed):
    """A rational SPARSE matrix with a zero row and an exactly repeated row."""
    import random

    rng = random.Random("sparse-rref:%d" % seed)
    M = rational_rows(SPARSE[seed], seed)
    rows = [dict(r) for r in M.rows]
    z, a, b = rng.sample(range(M.nrows), 3)
    rows[z] = {}
    rows[a] = dict(rows[b])
    return Matrix.from_sparse(QQ, M.nrows, M.ncols, rows)


SPARSE_Q = [sparse_q(seed) for seed in range(30)] + [
    Matrix.zeros(QQ, 0, 7), Matrix.zeros(QQ, 7, 0), Matrix.zeros(QQ, 0, 0),
    Matrix.zeros(QQ, 5, 6)]


def dense_rows(rows, ncols):
    return [[r.get(j, 0) for j in range(ncols)] for r in rows]


def test_sparse_q_matrices_are_degenerate():
    # every matrix has a zero row and a repeated row; the set holds
    # matrices short of full row rank and short of full column rank
    for M in SPARSE_Q[:30]:
        assert {} in M.rows
        assert len({tuple(sorted(r.items())) for r in M.rows}) < M.nrows
    assert any(rank(M) < M.ncols for M in SPARSE_Q)
    assert any(0 < rank(M) < M.nrows - 1 for M in SPARSE_Q)


def assert_rref_matches_both_oracles(M):
    pivots, rows = rref(M)
    opiv, orows = old_rref(M)
    assert pivots == opiv
    assert dense_rows(rows, M.ncols) == orows
    assert all(r[p] == 1 for p, r in zip(pivots, rows))
    # the sparse oracle also fixes each row's key order, so compare reprs
    assert repr((pivots, rows)) == repr(old_sparse_rref(M))


def test_rref_matches_old_rref():
    for M in SPARSE_Q + [M.transpose() for M in SPARSE_Q]:
        assert_rref_matches_both_oracles(M)


def dense_q(seed, m, n, den, rank_=None):
    """A seeded dense m x n rational matrix, entries in [-9, 9] over
    denominators 1..den; of rank `rank_` when given (a product of an
    m x rank_ and a rank_ x n factor)."""
    import random

    rng = random.Random("dense-rref:%s" % seed)

    def entries(a, b):
        return qmat([[Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(b)]
                     for _ in range(a)])

    if rank_ is None:
        return entries(m, n)
    return entries(m, rank_) @ entries(rank_, n)


@pytest.mark.parametrize("seed,m,n,den,rank_", [
    ("int30", 30, 30, 1, None), ("den7", 30, 30, 7, None), ("wide", 20, 40, 5, None),
    ("rank30", 40, 40, 1, 30), ("den3", 40, 60, 3, None)])
def test_dense_rational_rref_matches_both_oracles(seed, m, n, den, rank_):
    """Dense inputs, where every clearing step fills and scales whole rows
    and no pivot is a unit after the first few; each within 5 s."""
    import time

    M = dense_q(seed, m, n, den, rank_)
    start = time.perf_counter()
    pivots = rref(M)[0]
    assert time.perf_counter() - start < 5.0
    assert len(pivots) == (min(m, n) if rank_ is None else rank_)
    assert_rref_matches_both_oracles(M)


def test_rank_and_rref_clear_through_one_step(monkeypatch):
    """`rank`, the unit peel and `rref` clear their columns through
    `linalg._clear`: one call per pivot."""
    calls = []
    step = linalg._clear

    def counted(rows, cols, pi, pj, queue):
        calls.append((pi, pj))
        return step(rows, cols, pi, pj, queue)

    monkeypatch.setattr(linalg, "_clear", counted)
    for M in SPARSE_Q[:10] + [dense_q("den7", 12, 9, 7)]:
        calls.clear()
        pivots = rref(M)[0]
        assert [j for _, j in calls] == pivots
        calls.clear()
        assert rank(M) == len(calls) == len(pivots)
    for M in SPARSE[:5]:
        calls.clear()
        ones = elementary_divisors(M).count(1)
        assert 0 < len(calls) <= ones  # the peel's pivots are unit divisors


def test_rref_of_an_integer_matrix_is_rational():
    for M in SPARSE[:5]:
        pivots, rows = rref(M)
        assert (pivots, rows) == rref(M.to_ring(QQ))
        assert all(isinstance(v, Fraction) for r in rows for v in r.values())


def test_kernel_and_image_bases_match_the_old_formulas():
    for M in SPARSE_Q:
        assert kernel_basis(M) == old_kernel_basis_q(M)


def test_q_solve_matches_the_old_formula():
    import random

    rng = random.Random("q-solve")
    inconsistent = 0
    for M in SPARSE_Q:
        X = Matrix.from_sparse(QQ, M.ncols, 3, [
            {c: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for c in range(3)
             if rng.random() < 0.5} for _ in range(M.ncols)])
        B = M @ X
        assert solve_matrix(M, B) == old_solve_q(M, B)
        assert M @ solve_matrix(M, B) == B
        junk = Matrix.from_sparse(QQ, M.nrows, 2, [
            {c: Fraction(rng.randint(-3, 3)) for c in range(2)} for _ in range(M.nrows)])
        assert solve_matrix(M, junk) == old_solve_q(M, junk)
        inconsistent += solve_matrix(M, junk) is None
    assert inconsistent > 20


def coker_cube_maps(seeds=range(12)):
    """(A, B, phi): cube complexes of gen_coker Q modules V at truncation 5
    and of their shifts SV, at every level, with the chain map V -> SV."""
    from fihom import fih_chain_complex, shift_module
    from fihom.complexes import _cube_chain_map
    from fihom.generate import gen_coker

    for seed in seeds:
        V = gen_coker("quot:%d" % seed, ring=QQ, trunc=5).module
        sd = shift_module(V)
        for n in range(V.truncation):
            yield _cube_chain_map(V, n, sd, fih_chain_complex(V, n))


def test_quotient_coords_match_old_on_cube_complexes():
    import random

    rng = random.Random("quot")
    classes = induced = 0
    for A, B, phi in coker_cube_maps():
        for a in range(len(phi)):
            pairs = [(QuotientCoords(X.boundary_in(a), X.boundary_out(a)),
                      OldQuotientCoords(X.boundary_in(a), X.boundary_out(a)))
                     for X in (A, B)]
            for q, old in pairs:
                assert (q.ambient_dim, q.dim) == (old.ambient_dim, old.dim)
                assert q.rep_matrix() == old.rep_matrix()
                assert all(q.rep(t) == old.rep(t) for t in range(q.dim))
                for _ in range(3):
                    k = [Fraction(rng.randint(-3, 3)) for _ in old._free]
                    cycle = old.kernel_vector(k)
                    assert q.kernel_vector(k) == cycle
                    assert q.reduce(cycle) == old.reduce(cycle)
                classes += q.dim
            (qa, oa), (qb, ob) = pairs
            got = qa.induced(phi[a], qb)
            assert got == oa.induced(phi[a], ob)
            induced += not got.is_zero()
    assert classes > 80 and induced > 10
