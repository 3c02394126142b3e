"""Exact linear algebra: ranks, kernels, Smith form, homology classes."""

from fractions import Fraction
from math import gcd

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
    image_basis,
    kernel_basis,
    rank,
    rank_kernel,
    representable,
    snf,
    solve_matrix,
)
from fihom.linalg import _eliminate, _int_rows


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
    rk, basis = rank_kernel(Matrix.identity(ZZ, 4))
    assert rk == 4
    assert basis == []


def test_rank_kernel_sum_row():
    rk, basis = rank_kernel(zmat([[1, 1]]))
    assert rk == 1
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


@given(int_matrices(max_rows=6, max_cols=6, lo=-4, hi=4))
def test_image_basis_spans_columns(M):
    B = image_basis(M)
    assert rank(B) == B.ncols == rank(M)
    for j in range(M.ncols):
        col = Matrix.from_rows(M.ring, [[x] for x in M.column(j)], ncols=1)
        assert solve_matrix(B, col) is not None


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
    res = snf(Matrix.from_rows(ZZ, dense, ncols=len(live_cols)))
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
    assert all(ones < rank(M) for M, (ones, _) in zip(SPARSE, peeled))
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


def test_elementary_divisors_match_old_on_sparse_matrices():
    for M in SPARSE:
        assert elementary_divisors(M) == old_elementary_divisors(M)


def test_unit_mode_residue_is_the_old_peel():
    for M in cube_differentials(ZZ) + SPARSE:
        got = _eliminate({i: dict(r) for i, r in enumerate(M.rows) if r}, True)
        assert got == old_unit_peel(M)


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
