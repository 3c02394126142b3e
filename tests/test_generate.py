"""Instance generators and the randomized verification battery."""

import hashlib
import random
import sys
from fractions import Fraction

import pytest

from fihom import QQ, ZZ, fimodule, free_morphism, parse, run_suite, validate
from fihom.fimodule import fi_coker
from fihom.generate import MAX_FB_DIM, gen_coker, gen_complex, gen_free, random_fbdata
from fihom.linalg import Matrix
from fihom.verify import SUITES, SuiteReport

generate = sys.modules["fihom.generate"]


def test_random_fbdata_respects_dim_cap():
    for s in range(10):
        rng = random.Random("cap:%d" % s)
        X = random_fbdata(rng, QQ, trunc=4)
        assert all(d <= MAX_FB_DIM for d in X.dims)


def test_gen_free_actions_are_honest():
    for s in range(8):
        V, X = gen_free("act:%d" % s, ring=ZZ, trunc=4)
        assert validate(V) == []


def test_gen_coker_downgrade_policy():
    # tight retry budget so a torsion draw actually downgrades
    hit = None
    for s in range(60):
        inst = gen_coker("dg:%d" % s, ring=ZZ, trunc=4, retries=1)
        if inst.downgraded:
            hit = inst
            break
    assert hit is not None, "no Z draw produced torsion in 60 seeds"
    assert hit.ring == QQ
    assert hit.module.ring == QQ
    assert any("downgraded" in line for line in hit.notes())


def test_gen_coker_last_attempt_is_drawn_over_q():
    # retries=0 leaves only the Q draw; it used to reach the "unreachable" raise
    for s in range(40):
        inst = gen_coker(s, ring=ZZ, trunc=4, retries=0)
        assert inst.ring == QQ and inst.module.ring == QQ and inst.downgraded
    # with one retry the first draw is over Z, the second over Q
    rings = {gen_coker(s, ring=ZZ, trunc=4, retries=1).ring for s in range(40)}
    assert rings == {ZZ, QQ}
    # the default budget draws as before: seed 6 is downgraded at trunc 4
    assert gen_coker(6, ring=ZZ, trunc=4).downgraded
    assert not gen_coker(0, ring=QQ, trunc=4, retries=0).downgraded
    with pytest.raises(ValueError, match="retries -1 is negative"):
        gen_coker(0, ring=ZZ, retries=-1)


def test_gen_coker_notes_survive_serialization(tmp_path):
    from fihom.generate import generate

    text = generate("coker", "notes:1", ring=QQ, trunc=4)
    assert text.startswith("# coker: source cards")
    assert validate(parse(text)) == []


@pytest.mark.parametrize("kind", ["coker", "complex"])
def test_generate_refuses_dims_for_a_kind_other_than_free(kind):
    with pytest.raises(ValueError, match="dims applies to kind 'free' only, not '%s'" % kind):
        generate.generate(kind, 1, dims=(1, 2))
    assert generate.generate("free", 1, dims=(1, 2)).startswith(
        "# free module, seed 1, generator dims [1, 2, 0, 0, 0]\n")


def test_generate_names_an_unknown_kind_before_its_dims():
    with pytest.raises(ValueError, match="unknown kind 'torus'"):
        generate.generate("torus", 1, dims=(1,))


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_smoke(suite):
    rep = run_suite(suite, trials=4, seed=11)
    assert rep.passed
    assert rep.checks > 0


def test_run_suite_is_deterministic():
    a = run_suite("homology", trials=5, seed=7).render("kv")
    b = run_suite("homology", trials=5, seed=7).render("kv")
    assert a == b


def test_report_render_failure_plain():
    rep = SuiteReport("demo", 0, 1, 3, failures=(("label text", "artifact"),))
    text = rep.render("plain")
    assert "suite demo: FAIL" in text
    assert "counterexample: label text" in text


def test_report_render_failure_kv():
    rep = SuiteReport("demo", 0, 1, 3, failures=(("label text", "artifact"),))
    text = rep.render("kv")
    assert "failures=1" in text
    assert "result=fail" in text
    assert "failure_0=label text" in text


def test_report_render_stats_in_order():
    rep = SuiteReport("demo", 0, 2, 5, stats=(("max_t0", 3), ("modules", 2)))
    lines = rep.render("kv").splitlines()
    assert lines.index("stat_max_t0=3") < lines.index("stat_modules=2")


def test_unknown_suite_raises():
    with pytest.raises(ValueError, match="choose from"):
        run_suite("nonsense")


def test_failed_check_carries_the_serialized_instance(monkeypatch):
    """A failing check records the instance it was run on, serialized."""
    import fihom.verify as verify
    from fihom import serialize
    from fihom.homology import Estimate

    monkeypatch.setattr(verify, "hmax_estimate", lambda V: Estimate(99, False))
    rep = verify.suite_degrees(trials=3, seed=0)
    arts = dict(rep.failures)
    V, _ = gen_free("0:2", ring=QQ, trunc=5)
    assert arts["free module shows dying elements"] == serialize(V)
    assert all(art.startswith("fimodule\n") for art in arts.values())


# ---------------------------------------------------------------------------
# gen_coker pushes generator vectors


def old_free_morphism_levels(sources, target, images):
    """The levels of `free_morphism` by the matrix path: V(f) built for
    every basis injection f, then applied to the generator image."""
    ev = fimodule._Injections(target)
    for n in range(target.truncation + 1):
        cols = []
        for m, vec in zip(sources, images):
            for f in fimodule.representable_basis_injections(m, n):
                cols.append(ev(f, n).mul_vec(vec))
        rows = [{} for _ in range(target.dims[n])]
        for c, col in enumerate(cols):
            for i, v in enumerate(col):
                if v:
                    rows[i][c] = v
        yield Matrix(target.ring, target.dims[n], len(cols), rows)


def typed(M):
    """M's rows with each entry's type, in storage order."""
    return [[(j, v, type(v)) for j, v in r.items()] for r in M.rows]


def drawn_maps(monkeypatch):
    """(sources, target, images) of every free map that gen_coker draws for
    s = 0..11, Z and Q, truncation 4..6, and that gen_complex draws over Z
    and Q, each attempt of a retried draw included."""
    calls = []
    coker, morphism = generate._free_coker, generate.free_morphism
    monkeypatch.setattr(generate, "_free_coker",
                        lambda *a: calls.append(a) or coker(*a))
    monkeypatch.setattr(generate, "free_morphism",
                        lambda *a: calls.append(a) or morphism(*a))
    for t in (4, 5, 6):
        for ring in (ZZ, QQ):
            for s in range(12):
                gen_coker(s, ring=ring, trunc=t)
    for ring in (ZZ, QQ):
        for s in range(6):
            gen_complex("push:%d" % s, ring=ring, trunc=4)
    monkeypatch.undo()
    return calls


def test_pushed_levels_match_the_matrix_path(monkeypatch):
    calls = drawn_maps(monkeypatch)
    fractions = 0

    def no_product(self, other):
        raise AssertionError("a matrix product while pushing vectors")

    for args in calls:
        want = [typed(L) for L in old_free_morphism_levels(*args)]
        monkeypatch.setattr(Matrix, "__matmul__", no_product)
        got = [typed(L) for L in fimodule._free_morphism_levels(*args)]
        monkeypatch.undo()
        assert got == want
        fractions += any(t is Fraction for L in got for r in L for _, _, t in r)
    assert len(calls) > 100
    assert fractions > 0


def test_gen_coker_builds_the_presentation_when_read(monkeypatch):
    sums, kept = [0], []
    free_sum, coker = fimodule._free_sum, generate._free_coker

    def counted_sum(*args):
        sums[0] += 1
        return free_sum(*args)

    monkeypatch.setattr(fimodule, "_free_sum", counted_sum)
    monkeypatch.setattr(generate, "_free_coker",
                        lambda *a: kept.append(a) or coker(*a))
    for ring in (ZZ, QQ):
        for s in range(6):
            sums[0] = 0
            inst = gen_coker("lazy:%d" % s, ring=ring, trunc=4)
            assert sums[0] == 0
            f = inst.presentation
            assert sums[0] == 1
            assert inst.presentation is f and sums[0] == 1
            assert f == free_morphism(*kept[-1])
            assert fi_coker(f) == inst.module


def test_the_coker_sweep_matches_its_pinned_hash():
    """generate('coker', s, ring, t) for t = 4, 5, 6, then ring Z, Q, then
    s = 0..11, concatenated, byte for byte, by its SHA-256."""
    h = hashlib.sha256()
    for t in (4, 5, 6):
        for ring in ("Z", "Q"):
            for s in range(12):
                h.update(generate.generate("coker", s, ring, t).encode())
    assert h.hexdigest() == \
        "d1847f6f256ab68c814499be71294734fe056ff51429fa0c0a2f2fff6b6f5951"
