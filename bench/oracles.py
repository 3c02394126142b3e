"""Reference computations the benchmark checks fihom against.

Nothing here imports fihom.  Each routine is the slow, obvious version of
something fihom does faster or more generally, so that a wrong answer from
the program cannot be hidden by the same mistake in its checker.
"""

from __future__ import annotations

import itertools
import random
from math import comb


# ---------------------------------------------------------------------------
# free FI-modules as text


def _injections(ms, n):
    """Basis of (+)_t M(ms[t]) at level n: (summand, injection m_ -> n_) pairs."""
    out = []
    for t, m in enumerate(ms):
        for f in itertools.permutations(range(n), m):
            out.append((t, f))
    return out


def _perm_block(rows, cols, image):
    """Text rows of the 0/1 matrix sending column basis vector b to image(b)."""
    index = {b: i for i, b in enumerate(rows)}
    mat = [["0"] * len(cols) for _ in rows]
    for j, b in enumerate(cols):
        mat[index[image(b)]][j] = "1"
    return [" ".join(r) for r in mat]


def free_module_text(ms, N, ring, rng=None, name=""):
    """The fimodule file of (+)_t M(ms[t]) truncated at N.

    The basis of level n is the set of injections m_ -> n_ of each summand;
    iota_n is the inclusion n_ -> n+1_ and s_i swaps i-1 and i, so every
    structure map is a permutation matrix.  With an rng the basis of each
    level is listed in a random order, which gives an isomorphic module in
    other coordinates.
    """
    bases = []
    for n in range(N + 1):
        b = _injections(ms, n)
        if rng is not None:
            rng.shuffle(b)
        bases.append(b)
    lines = ["fimodule"]
    if name:
        lines.append("name %s" % name)
    lines += ["ring %s" % ring, "truncation %d" % N,
              "dims %s" % " ".join(str(len(b)) for b in bases)]
    for n in range(N):
        lines.append("iota %d" % n)
        if bases[n]:
            lines += _perm_block(bases[n + 1], bases[n], lambda b: b)
    for n in range(N + 1):
        for i in range(1, n):
            def swap(b, a=i - 1, c=i):
                t, f = b
                return t, tuple(c if x == a else a if x == c else x for x in f)
            lines.append("trans %d %d" % (n, i))
            if bases[n]:
                lines += _perm_block(bases[n], bases[n], swap)
    lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Euler characteristic of the total complex


def total_euler(module_dims, q_min, n):
    """chi of Tot at level n of a complex W_{q_min}, W_{q_min+1}, ...

    T_m = (+)_{p+q=m} (+)_{|S|=n-p} W_q(S), so chi = sum over p, q of
    (-1)^(p+q) C(n, p) dim W_q(n-p), from the module dims alone.
    """
    chi = 0
    for t, dims in enumerate(module_dims):
        q = q_min + t
        for p in range(n + 1):
            chi += (-1) ** (p + q) * comb(n, n - p) * dims[n - p]
    return chi


# ---------------------------------------------------------------------------
# elimination


def rank_mod_p(rows, p):
    """Rank over F_p of a matrix given as sparse rows {col: int}."""
    work = []
    for r in rows:
        d = {j: v % p for j, v in r.items() if v % p}
        if d:
            work.append(d)
    pivots = {}  # col -> reduced row with a 1 at col
    rank = 0
    for r in work:
        while r:
            j = min(r)
            piv = pivots.get(j)
            if piv is None:
                inv = pow(r[j], p - 2, p)
                r = {c: v * inv % p for c, v in r.items()}
                pivots[j] = r
                rank += 1
                break
            a = r[j]
            for c, v in piv.items():
                w = (r.get(c, 0) - a * v) % p
                if w:
                    r[c] = w
                else:
                    r.pop(c, None)
    return rank


def bareiss_det(a):
    """Determinant of a square integer matrix (list of lists), fraction-free."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(r) for r in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def matmul(a, b):
    """Product of integer matrices given as lists of rows."""
    bt = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(r, c)) for c in bt] for r in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# integer matrices to feed the Smith form


def dense_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def _unimodular(rng, n):
    """A random unimodular matrix: unit lower times unit upper, rows permuted."""
    lower = [[int(i == j) if j >= i else rng.choice((-1, 0, 0, 1))
              for j in range(n)] for i in range(n)]
    upper = [[int(i == j) if j <= i else rng.choice((-1, 0, 0, 1))
              for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    prod = matmul(lower, upper)
    return [prod[perm[i]] for i in range(n)]


def planted_matrix(rng, n, rank):
    """(M, divisors) with M = A D B for unimodular A, B and D = diag(divisors).

    The divisors form a chain d_1 | d_2 | ... | d_rank, each a small
    multiple of the last, so the Smith form of M is known in advance.
    """
    divisors = []
    cur = 1
    for _ in range(rank):
        cur *= rng.choice((1, 1, 1, 1, 2, 3))
        divisors.append(cur)
    a = _unimodular(rng, n)
    b = _unimodular(rng, n)
    ad = [[a[i][j] * divisors[j] if j < rank else 0 for j in range(n)]
          for i in range(n)]
    return matmul(ad, b), divisors


def smith_checks(m, s, u, v, u_inv, v_inv):
    """Failures of the Smith contract U M V = S for lists-of-rows inputs."""
    bad = []
    nr, nc = len(m), len(m[0]) if m else 0
    if matmul(matmul(u, m), v) != s:
        bad.append("U M V != S")
    if matmul(u, u_inv) != identity(nr):
        bad.append("U U^-1 != I")
    if matmul(v, v_inv) != identity(nc):
        bad.append("V V^-1 != I")
    diag = []
    for i in range(nr):
        for j in range(nc):
            if i != j and s[i][j]:
                bad.append("S is not diagonal")
                return bad
        if i < nc:
            diag.append(s[i][i])
    nz = [d for d in diag if d]
    if any(d < 0 for d in nz) or any(d for d in diag[len(nz):]):
        bad.append("S diagonal is not d_1, ..., d_r, 0, ..., 0 with d_i > 0")
    if any(b % a for a, b in zip(nz, nz[1:])):
        bad.append("S diagonal is not a divisibility chain")
    return bad


def seeded(*parts):
    """A Random seeded from the parts, stable across Python runs."""
    return random.Random(":".join(str(p) for p in parts))
