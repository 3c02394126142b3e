"""FI-module data: free modules, injections, shift, colimits, cokernels."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from fihom import (
    CokernelTorsionError,
    FBData,
    FIModule,
    FIMorphism,
    Matrix,
    QQ,
    ZZ,
    colim_compare,
    degrees,
    direct_sum,
    fi_coker,
    free_fi_module,
    free_morphism,
    parse,
    representable,
    representable_basis_injections,
    shift_module,
    truncate,
    validate,
    validate_morphism,
    zero_module,
)
from fihom import linalg
from fihom.fimodule import (
    _Injections, _coxeter_relations, _poset_presentation, _violations, face_matrices,
)
from fihom.generate import gen_coker, gen_complex, gen_free, random_fbdata

from test_homology import doubling_module, old_homology_class


def fbdata_dims(ring, dims):
    return FBData(ring, len(dims) - 1, tuple(dims))


def same_structure(V, W):
    """Equality of the matrix data, ignoring the name field."""
    return (V.ring == W.ring and V.truncation == W.truncation
            and V.dims == W.dims and V.iota == W.iota and V.trans == W.trans)


# ---------------------------------------------------------------------------
# free modules


def test_free_dims_point_generator():
    V = free_fi_module(fbdata_dims(ZZ, (0, 1, 0, 0, 0)))
    assert V.dims == (0, 1, 2, 3, 4)


def test_free_dims_constant():
    V = free_fi_module(fbdata_dims(ZZ, (1,)))
    assert V.dims == (1,)
    V = free_fi_module(fbdata_dims(QQ, (1, 0, 0)))
    assert V.dims == (1, 1, 1)
    assert all(M == Matrix.identity(QQ, 1) for M in V.iota)


def test_free_dims_binomial():
    V = free_fi_module(fbdata_dims(ZZ, (1, 0, 1, 0)))
    assert V.dims == (1, 1, 2, 4)  # 1 + C(n, 2)


def test_free_dims_binomial_formula_random():
    from math import comb

    rng = random.Random("dims:0")
    for _ in range(20):
        trunc = rng.randint(1, 5)
        X = random_fbdata(rng, ZZ, trunc)
        V = free_fi_module(X)
        for n in range(trunc + 1):
            assert V.dims[n] == sum(comb(n, k) * X.dims[k] for k in range(n + 1))


def test_free_modules_validate():
    rng = random.Random("validate:0")
    for ring in (ZZ, QQ):
        for _ in range(5):
            X = random_fbdata(rng, ring, rng.randint(1, 4))
            assert validate(free_fi_module(X)) == []


def test_representable_dims_are_injection_counts():
    V = representable(2, 3, ZZ)
    assert V.dims == (0, 0, 2, 6)
    assert len(representable_basis_injections(2, 3)) == 6


# ---------------------------------------------------------------------------
# induced injections


def test_identity_injection_is_identity_matrix():
    V = representable(1, 3, ZZ)
    for a in range(4):
        f = tuple(range(a))
        assert _Injections(V)(f, a) == Matrix.identity(ZZ, V.dims[a])


def test_point_module_standard_inclusion():
    V = representable(1, 2, ZZ)
    M = _Injections(V)((0,), 2)
    assert M.to_rows() == [[1], [0]]


def random_injection(rng, a, b):
    return tuple(rng.sample(range(b), a))


def test_injection_functoriality():
    rng = random.Random("compose:0")
    mods = [representable(2, 4, ZZ),
            free_fi_module(random_fbdata(rng, ZZ, 4)),
            free_fi_module(random_fbdata(rng, QQ, 4))]
    for V in mods:
        for _ in range(60):
            c = rng.randint(0, 4)
            b = rng.randint(0, c)
            a = rng.randint(0, b)
            f = random_injection(rng, a, b)
            g = random_injection(rng, b, c)
            gf = tuple(g[x] for x in f)
            lhs = _Injections(V)(gf, c)
            rhs = _Injections(V)(g, c) @ _Injections(V)(f, b)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# induced injections against the product chains they replaced
#
# old_induced_injection_matrix is V(f) as it stood before one memoized
# evaluator built every structure map: f = sigma o iota^{b-a}, one iota
# product per level, then sigma as one transposition product per letter
# of its bubble-sort word.


def old_perm_word(perm):
    p = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i + 1)
                changed = True
    return word


def old_permutation_matrix(V, n, perm):
    out = Matrix.identity(V.ring, V.dims[n])
    for i in old_perm_word(perm):
        out = V.transposition(n, i) @ out
    return out


def old_induced_injection_matrix(V, f, a, b):
    sigma = list(f) + sorted(set(range(b)) - set(f))
    out = Matrix.identity(V.ring, V.dims[a])
    for k in range(a, b):
        out = V.iota[k] @ out
    if sigma != list(range(b)):
        out = old_permutation_matrix(V, b, sigma) @ out
    return out


def injection_test_modules():
    from fihom.generate import gen_coker

    rng = random.Random("injections:0")
    mods = []
    for ring in (ZZ, QQ):
        mods.append(representable(2, 5, ring))
        mods.append(free_fi_module(random_fbdata(rng, ring, 5)))
        for seed in range(1, 4):
            mods.append(gen_coker("injections:%d" % seed, ring=ring, trunc=5).module)
    return mods


def test_induced_injection_matrix_matches_old_products():
    rng = random.Random("injections:1")
    mods = injection_test_modules()
    # the cokernels' structure maps are not permutation-like
    assert any(not all(len(r) <= 1 for m in V.iota for r in m.rows) for V in mods)
    for V in mods:
        N = V.truncation
        cases = [(a, b) for b in range(N + 1) for a in (0, b)]
        cases += [(rng.randint(0, b), b) for b in [rng.randint(0, N) for _ in range(25)]]
        for a, b in cases:
            f = random_injection(rng, a, b)
            assert _Injections(V)(f, b) \
                == old_induced_injection_matrix(V, f, a, b), (V, f, b)


def test_every_permutation_matches_old_permutation_matrix():
    from itertools import permutations

    for V in injection_test_modules()[:3]:
        for perm in permutations(range(4)):
            assert _Injections(V)(perm, 4) \
                == old_permutation_matrix(V, 4, perm)


class OldInjections(_Injections):
    """`_Injections` with every step a `Matrix.__matmul__`, as it stood
    before one-entry rows were gathered."""

    def _times(self, m, g, c):
        return m if g == tuple(range(c)) else m @ self(g, c)


def stored(M):
    """M's rows as stored: every entry with its type, in key order."""
    return [[(j, v, type(v)) for j, v in r.items()] for r in M.rows]


def remade(V, entry):
    """V with every stored entry v of its iotas replaced by entry(v); the
    transpositions keep theirs, so the two kinds of entry meet in products."""
    iota = tuple(Matrix(M.ring, M.nrows, M.ncols,
                        [{j: entry(v) for j, v in r.items()} for r in M.rows])
                 for M in V.iota)
    return FIModule(V.ring, V.truncation, V.dims, iota, V.trans)


def gather_test_modules():
    for ring in (ZZ, QQ):
        yield representable(2, 5, ring)
        yield shift_module(representable(3, 5, ring)).module
        for seed in range(6):  # seed 5 holds rows out of key order
            yield gen_coker("gather:%d" % seed, ring=ring, trunc=4).module
    one = representable(2, 5, QQ)
    yield remade(one, Fraction)  # a stored Fraction(1, 1) times int entries
    yield remade(one, lambda v: Fraction(-2, 3) * v)
    yield remade(representable(1, 5, ZZ), lambda v: -3 * v)


def test_one_entry_rows_gather_as_the_product(monkeypatch):
    """Every V(f) built by gathering one-entry rows equals the product
    chain entry for entry: values, key order and entry types, with fewer
    products."""
    from itertools import permutations

    calls = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__",
                        lambda x, y: calls.append(None) or matmul(x, y))
    mods = list(gather_test_modules())
    assert any(not r for V in mods for m in V.iota for r in m.rows)
    assert any(len(r) > 1 for V in mods for m in V.iota for r in m.rows)
    built, products = [], []
    for kind in (_Injections, OldInjections):
        del calls[:]
        built.append([[stored(ev(f, b)) for b in range(V.truncation + 1)
                       for a in range(b + 1) for f in permutations(range(b), a)]
                      for V, ev in ((V, kind(V)) for V in mods)])
        products.append(len(calls))
    assert built[0] == built[1]
    assert 0 < products[0] < products[1]


def test_a_degree_walk_multiplies_only_for_its_square_checks(monkeypatch):
    """The faces of a free module are all gathered: the walk's only
    products are the d_1 d_2 checks, one per level from 2 up."""
    calls = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__",
                        lambda x, y: calls.append(None) or matmul(x, y))
    degrees(representable(2, 6, ZZ), 1)
    assert len(calls) == 5


def test_free_morphism_makes_one_product_per_injection(monkeypatch):
    """At most one product per distinct (injection 2_ -> b_, level b)."""
    from fihom import linalg

    target = representable(2, 5, ZZ)
    calls = []
    product = linalg.Matrix.__matmul__

    def counted(x, y):
        calls.append(1)
        return product(x, y)

    monkeypatch.setattr(linalg.Matrix, "__matmul__", counted)
    f = free_morphism([2], target, [[1, -2]])
    bound = sum(len(representable_basis_injections(2, b)) for b in range(6))
    assert len(calls) <= bound == 40
    monkeypatch.setattr(linalg.Matrix, "__matmul__", product)
    for n in range(6):
        cols = [old_induced_injection_matrix(target, g, 2, n).mul_vec([1, -2])
                for g in representable_basis_injections(2, n)]
        assert f.levels[n].to_rows() == [list(r) for r in zip(*cols)]


# ---------------------------------------------------------------------------
# validation


def test_validate_reports_negated_transposition():
    V = representable(1, 3, ZZ)
    trans = list(list(t) for t in V.trans)
    trans[3][0] = trans[3][0].scale(-1)  # s_1 at the top level
    bad = validate(FIModule(V.ring, V.truncation, V.dims, V.iota,
                            tuple(tuple(t) for t in trans)))
    assert bad
    assert any("s_1" in msg for msg in bad)


def test_validate_messages_name_each_broken_relation():
    V = representable(1, 4, ZZ)
    s1, s2, _ = V.trans[4]
    trans = list(V.trans)
    trans[3] = (V.trans[3][1].scale(2), V.trans[3][1])
    trans[4] = (s1.scale(-1), s1, s2)
    bad = validate(FIModule(ZZ, 4, V.dims, V.iota, tuple(trans)))
    # `fihom validate` prints these through ValidationError: keep them as they are
    assert bad == [
        "level 3: s_1^2 != id",
        "level 3: braid s_1 s_2 s_1 != s_2 s_1 s_2",
        "level 4: braid s_1 s_2 s_1 != s_2 s_1 s_2",
        "level 4: s_1 s_3 != s_3 s_1",
        "levels 2->3: s_1 iota != iota s_1",
        "levels 3->4: s_1 iota != iota s_1",
        "levels 3->4: s_2 iota != iota s_2",
        "levels 2->4: s_3 iota iota != iota iota",
    ]


def fb_violations(X, k):
    """The Coxeter relations that X's transpositions at cardinality k break."""
    mats = [X.transposition(k, i) for i in range(1, k)]
    return _violations(_coxeter_relations(
        mats, Matrix.identity(X.ring, X.dims[k]), "cardinality %d" % k))


def test_validate_fbdata_reports_a_wrong_shape():
    eye2, eye3 = Matrix.identity(ZZ, 2), Matrix.identity(ZZ, 3)
    with pytest.raises(ValueError, match="bad transposition shape at cardinality 3"):
        FBData(ZZ, 3, (1, 1, 2, 2), ((), (), (eye2,), (eye2, eye3)))
    with pytest.raises(ValueError, match="bad transposition shape at cardinality 2"):
        FBData(ZZ, 2, (1, 1, 2), ((), (), (Matrix.identity(QQ, 2),)))
    with pytest.raises(ValueError, match="cardinality 2 needs 1 transpositions, got 0"):
        FBData(ZZ, 2, (1, 1, 2), ((), (), ()))


def test_zero_iota_is_valid_module_data():
    z = Matrix.zeros(ZZ, 1, 1)
    V = FIModule(ZZ, 2, (1, 1, 1), (z, z), ((), (), (Matrix.identity(ZZ, 1),)))
    assert validate(V) == []


def test_validate_fbdata_catches_broken_involution():
    X = random_fbdata(random.Random("fb:1"), ZZ, 3)
    assert all(fb_violations(X, k) == [] for k in range(2, 4))
    if X.trans is not None and X.dims[2] >= 1:
        bad_mat = Matrix.from_rows(ZZ, [[1] * X.dims[2]] * X.dims[2],
                                   ncols=X.dims[2])
        trans = list(list(t) for t in X.trans)
        trans[2] = [bad_mat]
        Y = FBData(X.ring, X.truncation, X.dims, tuple(tuple(t) for t in trans))
        if bad_mat @ bad_mat != Matrix.identity(ZZ, X.dims[2]):
            assert fb_violations(Y, 2)


def test_validate_morphism_messages_name_each_broken_square():
    V = representable(1, 3, ZZ)
    levels = [Matrix.identity(ZZ, d) for d in V.dims]
    levels[2] = levels[2].scale(2)
    levels[3] = Matrix.diagonal(ZZ, 3, 3, [2, 4, 6])
    f = FIMorphism(V, V, tuple(levels))
    # `fihom validate` prints these through ValidationError: keep them as they are
    assert validate_morphism(f) == [
        "naturality square fails at levels 1->2",
        "naturality square fails at levels 2->3",
        "level 3: map does not commute with s_1",
        "level 3: map does not commute with s_2",
    ]


# ---------------------------------------------------------------------------
# relations on index arrays against the matrix products they replace


def old_coxeter_violations(mats, eye, where):
    """The reference: every relation checked by multiplying the matrices."""
    bad = []
    for i, s in enumerate(mats, 1):
        if s @ s != eye:
            bad.append("%s: s_%d^2 != id" % (where, i))
    for i in range(1, len(mats)):
        a, b = mats[i - 1], mats[i]
        if a @ b @ a != b @ a @ b:
            bad.append("%s: braid s_%d s_%d s_%d != s_%d s_%d s_%d"
                       % (where, i, i + 1, i, i + 1, i, i + 1))
    for i in range(1, len(mats)):
        for j in range(i + 2, len(mats) + 1):
            a, b = mats[i - 1], mats[j - 1]
            if a @ b != b @ a:
                bad.append("%s: s_%d s_%d != s_%d s_%d" % (where, i, j, j, i))
    return bad


def old_validate(V):
    bad = []
    N = V.truncation
    for n in range(2, N + 1):
        bad += old_coxeter_violations(V.trans[n], Matrix.identity(V.ring, V.dims[n]),
                                      "level %d" % n)
    for n in range(0, N):
        for i in range(1, n):
            lhs = V.transposition(n + 1, i) @ V.iota[n]
            rhs = V.iota[n] @ V.transposition(n, i)
            if lhs != rhs:
                bad.append("levels %d->%d: s_%d iota != iota s_%d" % (n, n + 1, i, i))
    for n in range(1, N):
        ii = V.iota[n] @ V.iota[n - 1]
        if V.transposition(n + 1, n) @ ii != ii:
            bad.append("levels %d->%d: s_%d iota iota != iota iota" % (n - 1, n + 1, n))
    return bad


def old_validate_morphism(f):
    bad = []
    V, W = f.source, f.target
    for n in range(V.truncation):
        if f.levels[n + 1] @ V.iota[n] != W.iota[n] @ f.levels[n]:
            bad.append("naturality square fails at levels %d->%d" % (n, n + 1))
    for n in range(2, V.truncation + 1):
        for i in range(1, n):
            if f.levels[n] @ V.transposition(n, i) != W.transposition(n, i) @ f.levels[n]:
                bad.append("level %d: map does not commute with s_%d" % (n, i))
    return bad


def _edited(m, edit):
    """m with `edit` applied to a copy of its rows (zeros stay unstored)."""
    rows = [dict(r) for r in m.rows]
    edit(rows)
    return Matrix(m.ring, m.nrows, m.ncols, rows)


def _mutations(m, rng):
    """Broken copies of m: one entry scaled by -1, 2 or 1/2 (Q), two rows
    swapped, a row zeroed, and a second entry put in a one-entry row."""
    full = [i for i, r in enumerate(m.rows) if r]
    if not full:
        return []
    i = rng.choice(full)
    j = next(iter(m.rows[i]))
    factors = [-1, 2] + ([Fraction(1, 2)] if m.ring == QQ else [])

    def scaled(c):
        def edit(rows):
            rows[i][j] *= c
        return edit

    def swapped(rows):
        k = rng.randrange(len(rows))
        rows[i], rows[k] = rows[k], rows[i]

    def zeroed(rows):
        rows[i] = {}

    def widened(rows):
        rows[i][(j + 1) % m.ncols] = 1

    edits = [scaled(c) for c in factors] + [swapped, zeroed]
    if len(m.rows[i]) == 1 and m.ncols > 1:
        edits.append(widened)
    return [_edited(m, e) for e in edits]


def _with_iota(V, n, m):
    return FIModule(V.ring, V.truncation, V.dims,
                    V.iota[:n] + (m,) + V.iota[n + 1:], V.trans)


def _with_trans(V, n, i, m):
    level = V.trans[n][:i - 1] + (m,) + V.trans[n][i:]
    return FIModule(V.ring, V.truncation, V.dims, V.iota,
                    V.trans[:n] + (level,) + V.trans[n + 1:])


def _mutated_modules(V, rng, picks=4):
    spots = ([("iota", n) for n in range(V.truncation) if V.iota[n].nnz()]
             + [("trans", n, i) for n in range(2, V.truncation + 1)
                for i in range(1, n) if V.dims[n]])
    out = []
    for spot in rng.sample(spots, min(picks, len(spots))):
        if spot[0] == "iota":
            out += [_with_iota(V, spot[1], m) for m in _mutations(V.iota[spot[1]], rng)]
        else:
            _, n, i = spot
            out += [_with_trans(V, n, i, m)
                    for m in _mutations(V.transposition(n, i), rng)]
    return out


def _mutated_morphisms(f, rng, picks=3):
    spots = [n for n, m in enumerate(f.levels) if m.nnz()]
    out = []
    for n in rng.sample(spots, min(picks, len(spots))):
        out += [FIMorphism(f.source, f.target,
                           f.levels[:n] + (m,) + f.levels[n + 1:])
                for m in _mutations(f.levels[n], rng)]
    return out


def _oracle_instances(ring, seed):
    """(modules, morphisms) from gen_free, gen_coker, shift_module and
    gen_complex at truncation 4 and 5."""
    V, _ = gen_free(seed, ring=ring, trunc=5)
    C = gen_coker(seed, ring=ring, trunc=4).module
    sd = shift_module(C)
    W = gen_complex(seed, ring=ring, trunc=4)
    return [V, C, sd.module] + list(W.modules), [sd.natural] + list(W.diffs)


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("seed", [0, 1])
def test_validate_on_index_arrays_matches_the_matrix_products(ring, seed):
    rng = random.Random("arrays:%s:%d" % (ring, seed))
    modules, morphisms = _oracle_instances(ring, seed)
    broken = 0
    for V in modules:
        for U in [V] + _mutated_modules(V, rng):
            want = old_validate(U)
            assert validate(U) == want
            broken += bool(want)
    for f in morphisms:
        for g in [f] + _mutated_morphisms(f, rng):
            want = old_validate_morphism(g)
            assert validate_morphism(g) == want
            broken += bool(want)
    assert broken > 20


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_fbdata_relations_on_index_arrays_match_the_matrix_products(ring):
    rng = random.Random("arrays-fb:%s" % ring)
    checked = 0
    for seed in range(6):
        _, X = gen_free(seed, ring=ring, trunc=5)
        if X.trans is None:
            continue
        for k in range(2, X.truncation + 1):
            for i in range(1, k):
                for m in _mutations(X.transposition(k, i), rng):
                    level = X.trans[k][:i - 1] + (m,) + X.trans[k][i:]
                    Y = FBData(ring, X.truncation, X.dims,
                               X.trans[:k] + (level,) + X.trans[k + 1:])
                    mats = [Y.transposition(k, t) for t in range(1, k)]
                    want = old_coxeter_violations(
                        mats, Matrix.identity(ring, X.dims[k]), "cardinality %d" % k)
                    assert fb_violations(Y, k) == want
                    checked += bool(want)
    assert checked > 10


def test_an_iota_with_an_empty_row_is_checked_on_index_arrays():
    broken = 0
    for m in (1, 2):
        V = representable(m, 4, QQ)
        for n, iota in enumerate(V.iota):
            for r in range(iota.nrows):
                U = _with_iota(V, n, _edited(iota, lambda rows: rows[r].clear()))
                want = old_validate(U)
                assert validate(U) == want
                broken += bool(want)
    assert broken >= 13


def test_a_morphism_with_levels_over_another_ring_is_refused():
    V = representable(1, 3, ZZ)
    with pytest.raises(ValueError, match="ring mismatch"):
        FIMorphism(V, V, tuple(Matrix.identity(QQ, d) for d in V.dims))


HYPER_FILES = sorted((Path(__file__).parent.parent / "bench" / "data" / "hyper")
                     .glob("*.fic"))


def test_validating_one_entry_rows_multiplies_no_matrix(monkeypatch):
    """Free-module data (permutation structure maps) is checked on index
    arrays alone; a transposition with a two-entry row takes the matrix
    path."""
    assert len(HYPER_FILES) == 4
    modules = [representable(2, 6, ZZ)]
    modules += [V for path in HYPER_FILES for V in parse(str(path)).modules]
    calls = []
    matmul = Matrix.__matmul__

    def spy(a, b):
        calls.append((a.shape, b.shape))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", spy)
    assert [validate(V) for V in modules] == [[]] * len(modules)
    assert calls == []
    V = modules[0]
    s = V.transposition(3, 1)
    free = next(j for j in range(s.ncols) if j not in s.rows[0])
    wide = _with_trans(V, 3, 1, _edited(s, lambda rows: rows[0].update({free: 1})))
    assert validate(wide)
    assert calls


def matmul_spy(monkeypatch):
    """The list that records the shapes of every Matrix product from now on."""
    calls = []
    matmul = Matrix.__matmul__

    def spy(a, b):
        calls.append((a.shape, b.shape))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", spy)
    return calls


def test_validating_the_bench_complexes_multiplies_no_matrix(monkeypatch):
    """Their differentials have rows of several entries; every relation of
    a differential has one such factor a side, met by gathers."""
    from fihom.complexes import validate_complex

    complexes = [parse(str(path)) for path in HYPER_FILES]
    assert any(len(r) > 1 for W in complexes for d in W.diffs
               for m in d.levels for r in m.rows)
    calls = matmul_spy(monkeypatch)
    assert [validate_complex(W) for W in complexes] == [[]] * len(complexes)
    assert calls == []


def _conjugated(m, out, inn):
    """diag(out) @ m @ diag(inn)^-1."""
    return Matrix.from_sparse(m.ring, m.nrows, m.ncols, [
        {j: Fraction(out[i]) * v / inn[j] for j, v in r.items()}
        for i, r in enumerate(m.rows)])


def _rescaled(f, rng):
    """f between copies of its source and target in other bases: each basis
    vector scaled by -1 (or 2 or 1/2 over Q), so their one-entry structure
    maps carry values other than 1."""
    units = [-1, 1] + ([2, Fraction(1, 2)] if f.source.ring == QQ else [])

    def module(V):
        ds = [[rng.choice(units) for _ in range(d)] for d in V.dims]
        iota = tuple(_conjugated(m, ds[n + 1], ds[n]) for n, m in enumerate(V.iota))
        trans = tuple(tuple(_conjugated(m, ds[n], ds[n]) for m in mats)
                      for n, mats in enumerate(V.trans))
        return FIModule(V.ring, V.truncation, V.dims, iota, trans), ds

    (V, dv), (W, dw) = module(f.source), module(f.target)
    return FIMorphism(V, W, tuple(_conjugated(m, dw[n], dv[n])
                                  for n, m in enumerate(f.levels)))


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_gathered_morphism_sides_match_the_matrix_products(monkeypatch, ring):
    rng = random.Random("gathers:%s" % ring)
    W = gen_complex(3, ring=ring, trunc=4)
    fs = [free_morphism([1, 1], representable(1, 4, ring), [[1], [1]]),
          shift_module(W.modules[0]).natural] + list(W.diffs)
    fs += [_rescaled(f, rng) for f in fs]
    assert any(v != 1 for f in fs for V in (f.source, f.target)
               for m in V.iota for r in m.rows for v in r.values())
    calls = matmul_spy(monkeypatch)
    assert [validate_morphism(f) for f in fs] == [[]] * len(fs)
    assert calls == []
    broken = 0
    for f in fs:
        for g in _mutated_morphisms(f, rng):
            want = old_validate_morphism(g)
            assert validate_morphism(g) == want
            broken += bool(want)
    assert broken > 20


def test_a_right_factor_that_repeats_a_column_is_multiplied(monkeypatch):
    """M @ Q relabels M's columns only when no two rows of Q share one."""
    V = representable(1, 2, ZZ)
    ident = tuple(Matrix.identity(ZZ, d) for d in V.dims[:2])
    wide = Matrix.from_rows(ZZ, [[1, 0], [1, 1]])
    repeat = Matrix.from_rows(ZZ, [[1, 0], [1, 0]])
    U = FIModule(ZZ, 2, V.dims, V.iota, ((), (), (repeat,)))
    calls = matmul_spy(monkeypatch)
    f = FIMorphism(V, V, ident + (wide,))
    assert "level 2: map does not commute with s_1" in validate_morphism(f)
    assert calls == []
    assert validate_morphism(f) == old_validate_morphism(f)
    g = FIMorphism(U, U, ident + (wide,))
    del calls[:]
    # wide @ repeat sums two entries of row 1 into {0: 2}; repeat @ wide
    # has row 1 {0: 1}, as a relabelling that kept one of them would
    assert validate_morphism(g) == [
        "naturality square fails at levels 1->2",
        "level 2: map does not commute with s_1"]
    assert ((2, 2), (2, 2)) in calls


# ---------------------------------------------------------------------------
# sums, truncation, zero


def test_direct_sum_dims_add():
    A = representable(1, 3, ZZ)
    B = representable(2, 3, ZZ)
    S = direct_sum(A, B)
    assert S.dims == tuple(a + b for a, b in zip(A.dims, B.dims))
    assert validate(S) == []


def test_truncate_prefix():
    V = representable(1, 4, ZZ)
    W = truncate(V, 2)
    assert W.truncation == 2
    assert W.dims == V.dims[:3]
    assert validate(W) == []


def test_zero_module_is_zero():
    Z = zero_module(3, QQ)
    assert Z.dims == (0, 0, 0, 0)
    assert all(d == 0 for d in Z.dims)
    assert not all(d == 0 for d in representable(0, 3, QQ).dims)


# ---------------------------------------------------------------------------
# shift


def test_shift_constant_is_constant_with_identity_map():
    sd = shift_module(representable(0, 3, ZZ))
    assert same_structure(sd.module, representable(0, 2, ZZ))
    assert all(m == Matrix.identity(ZZ, 1) for m in sd.natural.levels)


def test_shift_point_module_dims():
    sd = shift_module(representable(1, 4, ZZ))
    assert sd.module.dims == (1, 2, 3, 4)
    assert validate(sd.module) == []


def test_shift_natural_map_is_a_morphism():
    rng = random.Random("shiftnat:0")
    for _ in range(6):
        V = free_fi_module(random_fbdata(rng, QQ, rng.randint(1, 4)))
        sd = shift_module(V)
        assert validate(sd.module) == []
        assert validate_morphism(sd.natural) == []


def test_shift_needs_positive_truncation():
    with pytest.raises(ValueError):
        shift_module(representable(0, 0, ZZ))


# ---------------------------------------------------------------------------
# colimit comparison


def test_colim_free_iso_at_generator_degree():
    X = fbdata_dims(ZZ, (1, 0, 1, 0))
    V = free_fi_module(X)
    for n in range(4):
        cls, iso = colim_compare(V, n, 2)
        assert iso
        assert cls.rank == V.dims[n]


def test_colim_point_module_misses_generators():
    V = representable(2, 3, QQ)
    cls, iso = colim_compare(V, 3, 1)
    assert not iso
    assert cls.is_zero()  # nothing below cardinality 2 to generate with


def test_colim_full_cutoff_always_iso():
    rng = random.Random("colim:0")
    for _ in range(4):
        V = free_fi_module(random_fbdata(rng, QQ, 3))
        for n in range(4):
            _, iso = colim_compare(V, n, n)
            assert iso


def test_colim_iso_monotone_in_cutoff():
    rng = random.Random("colim:1")
    for _ in range(4):
        V = free_fi_module(random_fbdata(rng, ZZ, 3))
        for n in range(4):
            flags = [colim_compare(V, n, K)[1] for K in range(n + 1)]
            assert all(b for a, b in zip(flags, flags[1:]) if a)


def old_colim_compare(V, n, K):
    """colim_compare as it stood before it read one chain complex: three
    two-map homology classes, each map eliminated whole (P and c twice)."""
    P, c = _poset_presentation(V, n, K)
    colim = old_homology_class(P, Matrix.zeros(V.ring, 0, P.nrows))
    middle = old_homology_class(P, c)
    onto = old_homology_class(c, Matrix.zeros(V.ring, 0, c.nrows))
    return colim, middle.is_zero() and onto.is_zero()


def colim_modules():
    D = doubling_module(4)
    out = [D, direct_sum(D, representable(1, 4, ZZ))]
    for s in range(10):
        for ring in (ZZ, QQ):
            out.append(gen_coker("colim-oracle:%d" % s, ring=ring, trunc=4).module)
    return out


def test_colim_matches_the_three_class_oracle():
    torsion = isos = 0
    for V in colim_modules():
        for n in range(V.truncation + 1):
            for K in range(n + 1):
                got = colim_compare(V, n, K)
                assert got == old_colim_compare(V, n, K)
                torsion += bool(got[0].torsion)
                isos += got[1]
    assert torsion > 0 and isos > 0


def test_colim_eliminates_c_and_p_once_each(monkeypatch):
    handed = []

    def spy(core):
        def counted(rows):
            handed.append({i: dict(r) for i, r in rows.items()})
            out = core(rows)
            handed[-1] = (handed[-1], set(out[1]))
            return out
        return counted

    for name in ("_rank_of", "_divisors_of"):
        monkeypatch.setattr(linalg, name, spy(getattr(linalg, name)))
    cases = 0
    for V in colim_modules():
        for n in range(1, V.truncation + 1):
            P, c = _poset_presentation(V, n, n - 1)
            if not (c.nrows and c.ncols):
                continue  # H_0 or H_1 is 0 without an elimination
            del handed[:]
            colim_compare(V, n, n - 1)
            # H_0 reads the empty D_0 and c, then H_1 reads P once, on the
            # rows that c's pivots leave
            (d0_rows, _), (c_rows, c_piv), (p_rows, _) = handed
            assert d0_rows == {}
            assert c_rows == {i: r for i, r in enumerate(c.rows) if r}
            assert p_rows == {i: r for i, r in enumerate(P.rows)
                              if r and i not in c_piv}
            cases += bool(c_piv)
    assert cases > 0


def test_colim_rejects_negative_cutoff():
    with pytest.raises(ValueError):
        colim_compare(representable(0, 2, ZZ), 1, -1)


@pytest.mark.parametrize("n", [-1, -4, 4])
def test_colim_refuses_levels_outside_the_truncation(n):
    with pytest.raises(ValueError, match=r"level %d outside 0\.\.3" % n):
        colim_compare(representable(1, 3, QQ), n, 0)


@pytest.mark.parametrize("k", [-1, 3])
def test_face_matrices_refuse_levels_without_faces(k):
    with pytest.raises(ValueError, match=r"face level %d outside 0\.\.2" % k):
        face_matrices(representable(1, 3, QQ), k)


# ---------------------------------------------------------------------------
# morphisms and cokernels


def test_free_morphism_is_valid():
    target = representable(1, 3, QQ)
    f = free_morphism([0, 1], target, [[], [1]])  # target(0_) is 0-dimensional
    assert validate_morphism(f) == []
    assert f.source.dims == tuple(1 + d for d in target.dims)


def test_free_morphism_checks_image_dimension():
    with pytest.raises(ValueError):
        free_morphism([0], representable(1, 2, QQ), [[1, 2]])


@pytest.mark.parametrize("sources, images, counts", [
    ([1], [[1], [1, 0]], "2 generator images for 1 sources"),
    ([1, 2], [[1]], "1 generator images for 2 sources"),
])
def test_free_morphism_matches_images_to_sources(sources, images, counts):
    with pytest.raises(ValueError, match=counts):
        free_morphism(sources, representable(1, 3, QQ), images)


def test_coker_of_identity_is_zero():
    V = representable(1, 3, QQ)
    ident = free_morphism([1], V, [[1]])
    C = fi_coker(ident)
    assert all(d == 0 for d in C.dims)


def test_coker_of_zero_map_is_target():
    target = representable(0, 3, QQ)
    f = free_morphism([1], target, [[0]])
    C = fi_coker(f)
    assert same_structure(C, target)


def test_coker_of_augmentation_is_skyscraper():
    target = representable(0, 3, QQ)
    f = free_morphism([1], target, [[1]])
    C = fi_coker(f)
    assert C.dims == (1, 0, 0, 0)
    assert validate(C) == []


def test_coker_validates_on_random_instances():
    rng = random.Random("coker:0")
    for _ in range(6):
        X = random_fbdata(rng, QQ, 3, top=2)
        target = free_fi_module(X)
        cards = [rng.randint(0, 2) for _ in range(rng.randint(1, 2))]
        images = [[rng.randint(-2, 2) for _ in range(target.dims[m])]
                  for m in cards]
        C = fi_coker(free_morphism(cards, target, images))
        assert validate(C) == []


def test_coker_torsion_over_z_raises():
    target = representable(0, 3, ZZ)
    doubling = free_morphism([0], target, [[2]])
    with pytest.raises(CokernelTorsionError):
        fi_coker(doubling)


# ---------------------------------------------------------------------------
# the Z cokernel against the closures it replaced
#
# old_fi_coker_z is the Z branch of fi_coker as it stood before Z and Q
# cokernels shared one quotient-module builder: project and lift closures
# over the Smith transforms, applied column by column.


def old_fi_coker_z(f):
    from fihom import snf

    V, W = f.source, f.target
    N = V.truncation
    datas = []
    for n in range(N + 1):
        res = snf(f.levels[n])
        ds = [d for d in res.divisors() if d]
        if any(d != 1 for d in ds):
            raise CokernelTorsionError("level %d" % n)
        datas.append((res, len(ds)))

    def project(n, mat_cols):
        res, r = datas[n]
        d = W.dims[n]
        out_rows = [{} for _ in range(d - r)]
        for c in range(mat_cols.ncols):
            img = res.U.mul_vec(mat_cols.column(c))
            for t, v in enumerate(img[r:]):
                if v:
                    out_rows[t][c] = v
        return Matrix(ZZ, d - r, mat_cols.ncols, out_rows)

    def lift(n):
        res, r = datas[n]
        d = W.dims[n]
        rows = [{} for _ in range(d)]
        for t in range(d - r):
            for k, v in enumerate(res.U_inv.column(r + t)):
                if v:
                    rows[k][t] = v
        return Matrix(ZZ, d, d - r, rows)

    lifts = [lift(n) for n in range(N + 1)]
    dims = tuple(W.dims[n] - datas[n][1] for n in range(N + 1))
    iotas = tuple(project(n + 1, W.iota[n] @ lifts[n]) for n in range(N))
    trans = tuple(
        tuple(project(n, W.transposition(n, i) @ lifts[n]) for i in range(1, n))
        for n in range(N + 1))
    return FIModule(ZZ, N, dims, iotas, trans)


def test_z_coker_matches_old_on_generated_presentations():
    from fihom.generate import gen_coker

    nonzero = 0
    for seed in range(16):
        inst = gen_coker("zcoker:%d" % seed, ring=ZZ, trunc=5)
        if inst.ring != ZZ:
            continue
        C = fi_coker(inst.presentation)
        assert C == old_fi_coker_z(inst.presentation) == inst.module
        nonzero += any(not m.is_zero() for m in C.iota)
    assert nonzero >= 8


def test_z_coker_torsion_raises_like_old():
    target = representable(1, 3, ZZ)
    f = free_morphism([1], target, [[3]])
    with pytest.raises(CokernelTorsionError):
        fi_coker(f)
    with pytest.raises(CokernelTorsionError):
        old_fi_coker_z(f)
