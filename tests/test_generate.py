"""Instance generators and the randomized verification battery."""

import random

import pytest

from fihom import QQ, ZZ, parse, run_all, run_suite, validate
from fihom.generate import MAX_FB_DIM, gen_coker, gen_free, random_fbdata
from fihom.verify import SUITES, SuiteReport


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


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_smoke(suite):
    rep = run_suite(suite, trials=4, seed=11)
    assert rep.passed
    assert rep.checks > 0


def test_run_suite_is_deterministic():
    a = run_suite("homology", trials=5, seed=7).render("kv")
    b = run_suite("homology", trials=5, seed=7).render("kv")
    assert a == b


def test_run_all_covers_every_suite():
    reports = run_all(trials=3, seed=0)
    assert sorted(r.suite for r in reports) == sorted(SUITES)


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
