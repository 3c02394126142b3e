"""The command line surface: exit codes, output formats, file handling."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fihom import ZZ, representable, serialize
from fihom.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from fihom.verify import SuiteReport


@pytest.fixture
def m2_file(tmp_path):
    path = tmp_path / "m2.fim"
    path.write_text(serialize(representable(2, 4, ZZ)))
    return str(path)


@pytest.fixture
def complex_file(tmp_path):
    from fihom import generate

    path = tmp_path / "w.fic"
    path.write_text(generate("complex", "cli:0", trunc=3))
    return str(path)


def run(capsys, argv, env=None, monkeypatch=None):
    if env:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# validate


def test_validate_good_module(capsys, m2_file):
    code, out, _ = run(capsys, ["validate", m2_file])
    assert code == EXIT_OK
    assert "ok: fimodule over Z" in out
    assert "dims" in out


def test_validate_good_complex(capsys, complex_file):
    code, out, _ = run(capsys, ["validate", complex_file])
    assert code == EXIT_OK
    assert "ficomplex" in out


def test_validate_missing_file_is_verification_failure(capsys):
    code, _, err = run(capsys, ["validate", "/nonexistent.fim"])
    assert code == EXIT_FAIL
    assert err.startswith("fihom:")


def test_validate_corrupt_file(capsys, tmp_path, m2_file):
    text = open(m2_file).read()
    bad = tmp_path / "bad.fim"
    bad.write_text(text.replace("trans 2 1\n0 1\n1 0",
                                "trans 2 1\n1 1\n0 1"))
    code, _, err = run(capsys, ["validate", str(bad)])
    assert code == EXIT_FAIL
    assert "s_1" in err


@pytest.mark.parametrize("text", [
    "fimodule\nring Z\ntruncation 0\ndims -1\nend\n",
    "ficomplex\nring Z\ntruncation 0\nqmin 0\nmodules 1\nmodule 0\n"
    "ring Z\ntruncation 0\ndims -2\nendmodule\nend\n",
], ids=["module", "complex"])
def test_validate_negative_dims_is_verification_failure(capsys, tmp_path, text):
    bad = tmp_path / "neg.txt"
    bad.write_text(text)
    code, out, err = run(capsys, ["validate", str(bad)])
    assert code == EXIT_FAIL
    assert "negative dims" in err
    assert "ok" not in out


def test_python_m_fihom_runs_the_command_line(capsys, m2_file):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "fihom", "validate", m2_file],
                          env=env, capture_output=True, text=True, timeout=120)
    code, out, _ = run(capsys, ["validate", m2_file])
    assert done.returncode == code == EXIT_OK
    assert done.stdout == out


def test_module_command_rejects_complex_file(capsys, complex_file):
    code, _, err = run(capsys, ["degrees", complex_file])
    assert code == EXIT_FAIL
    assert "expected a fimodule" in err


# ---------------------------------------------------------------------------
# homology and degrees


def test_homology_of_point_square(capsys, m2_file):
    code, out, _ = run(capsys, ["homology", m2_file, "--level", "2",
                                "--degree", "0"])
    assert code == EXIT_OK
    assert "H_0 V(2_) = Z^2" in out


def test_homology_vanishing_level(capsys, m2_file):
    code, out, _ = run(capsys, ["homology", m2_file, "--level", "3",
                                "--degree", "0"])
    assert code == EXIT_OK
    assert "H_0 V(3_) = 0" in out


def test_homology_level_guard_is_usage_error(capsys, m2_file):
    code, _, err = run(capsys, ["homology", m2_file, "--level", "9",
                                "--degree", "0"])
    assert code == EXIT_USAGE
    assert "level" in err


def test_degrees_plain(capsys, m2_file):
    code, out, _ = run(capsys, ["degrees", m2_file])
    assert code == EXIT_OK
    assert out.strip() == "t_0=2 t_1=none?"


def test_degrees_kv(capsys, monkeypatch, m2_file):
    code, out, _ = run(capsys, ["degrees", m2_file],
                       env={"FIHOM_FORMAT": "kv"}, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    toks = out.split()
    assert "t_0=2" in toks
    assert "certified_0=yes" in toks
    assert "t_1=none" in toks
    assert "certified_1=no" in toks


def test_degrees_negative_kmax_is_usage_error(capsys, m2_file):
    with pytest.raises(SystemExit) as err:
        main(["degrees", m2_file, "--kmax", "-1"])
    assert err.value.code == EXIT_USAGE
    err_text = capsys.readouterr().err
    assert "usage:" in err_text
    assert "--kmax" in err_text


def test_hyper_lists_total_degrees(capsys, complex_file):
    code, out, _ = run(capsys, ["hyper", complex_file, "--level", "1"])
    assert code == EXIT_OK
    assert "(Tot, level 1)" in out


# ---------------------------------------------------------------------------
# bound reports


def test_bounds_ganli(capsys):
    code, out, _ = run(capsys, ["bounds", "ganli", "--t", "3,3", "--k", "0"])
    assert code == EXIT_OK
    assert "t0 <= 7" in out and "t1 <= 8" in out


def test_bounds_bahran(capsys):
    code, out, _ = run(capsys, ["bounds", "bahran", "--delta", "3",
                                "--hmax", "4"])
    assert code == EXIT_OK
    assert "t0 <= 6" in out and "t1 <= 7" in out
    assert "formula" in out


def test_bounds_bahran_kv_quotes_formula(capsys, monkeypatch):
    code, out, _ = run(capsys, ["bounds", "bahran", "--delta", "0",
                                "--hmax", "0"],
                       env={"FIHOM_FORMAT": "kv"}, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert "t0_bound=1" in out
    assert 'formula="' in out  # spaces force quoting


def test_bounds_bahran_domain_error_is_usage(capsys):
    code, _, err = run(capsys, ["bounds", "bahran", "--delta", "-5",
                                "--hmax", "0"])
    assert code == EXIT_USAGE
    assert "error" in err


def test_bounds_goingdown_monotone(capsys):
    code, out, _ = run(capsys, ["bounds", "goingdown", "--p", "0",
                                "--variant", "monotone", "--f-const", "2"])
    assert code == EXIT_OK
    assert "t0 <= 3" in out and "t1 <= 4" in out


def test_bounds_goingdown_general_needs_t(capsys):
    code, _, err = run(capsys, ["bounds", "goingdown", "--p", "0"])
    assert code == EXIT_USAGE
    assert "--t" in err


def test_bounds_goingup(capsys):
    code, out, _ = run(capsys, ["bounds", "goingup",
                                "--pi", "0:0:4,1:0:6", "--k", "1"])
    assert code == EXIT_OK
    assert "t_1 bound = 6" in out


@pytest.mark.parametrize("pi", ["1:2", "1:0:x", "0:0:4,a:0:1", "1:0:2:3"])
def test_bounds_goingup_names_a_bad_entry(capsys, pi):
    code, out, err = run(capsys, ["bounds", "goingup", "--pi", pi, "--k", "1"])
    assert code == EXIT_USAGE
    assert out == ""
    bad = pi.split(",")[-1]
    assert err == "fihom: error: bad --pi entry %r: expected k:j:value\n" % bad


@pytest.mark.parametrize("argv, message", [
    (["bounds", "ganli", "--t", "1,x"],
     "bad --t entry 'x': expected an integer or none"),
    (["bounds", "goingdown", "--p", "0", "--t", "1,x"],
     "bad --t entry 'x': expected an integer or none"),
    (["conf", "--d", "3", "--p", "x"],
     "bad --p value 'x': expected an integer or A..B"),
    (["conf", "--d", "3", "--p", "3.."],
     "bad --p value '3..': expected an integer or A..B"),
    (["gen", "--kind", "free", "--seed", "1", "--dims", "1,x"],
     "bad --dims entry 'x': expected an integer"),
    (["gen", "--kind", "coker", "--seed", "1", "--dims", "1,2"],
     "--dims applies to --kind free only"),
])
def test_integer_flags_name_the_bad_flag(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "fihom: error: %s\n" % message


# ---------------------------------------------------------------------------
# cube, conf, cohomology


def test_cube_from_spec_file(capsys, tmp_path):
    spec = tmp_path / "cube.txt"
    spec.write_text("cube 2\nset 0 1\nset 1 1\nset 0,1 3\n")
    code, out, _ = run(capsys, ["cube", "--spec", str(spec),
                                "--direction", "cart"])
    assert code == EXIT_OK
    assert "partition min = 2" in out
    assert "1-cartesian" in out


def test_cube_by_sizes(capsys, tmp_path):
    spec = tmp_path / "cube.txt"
    spec.write_text("cube 3\nsize 1 2\nsize 2 4\nsize 3 6\n")
    code, out, _ = run(capsys, ["cube", "--spec", str(spec),
                                "--direction", "cocart"])
    assert code == EXIT_OK
    assert "partition min = 6" in out
    assert "8-cocartesian" in out


def test_cube_bad_spec_file(capsys, tmp_path):
    spec = tmp_path / "cube.txt"
    spec.write_text("cube two\n")
    code, _, err = run(capsys, ["cube", "--spec", str(spec),
                                "--direction", "cart"])
    assert code == EXIT_FAIL
    assert "line 1" in err


@pytest.mark.parametrize("text, line, why", [
    ("cube 2\nset 0,5 3\nset 0 1\nset 1 1\n", 2, "set 0,5 needs distinct elements in 0..1"),
    ("cube 2\nset 0 1\nset 1 1\nset 0,1 3\nset 0,0 0\n", 5,
     "set 0,0 needs distinct elements in 0..1"),
    ("cube 2\nset 0 1\nset 1 1\nset 1,0 3\nset 0,1 3\n", 5, "set 0,1 given twice"),
    ("cube 2\nsize 1 1\nsize 2 3\nsize 1 0\n", 4, "size 1 given twice"),
    ("cube 2\nsize 1 1\nsize 2 3\nsize 5 0\n", 4, "size 5 must lie in 1..2"),
    ("cube 2\nsize 0 0\nsize 1 1\nsize 2 3\n", 2, "size 0 must lie in 1..2"),
])
def test_cube_spec_lines_out_of_range_or_repeated(capsys, tmp_path, text, line, why):
    spec = tmp_path / "cube.txt"
    spec.write_text(text)
    code, out, err = run(capsys, ["cube", "--spec", str(spec), "--direction", "cart"])
    assert code == EXIT_FAIL
    assert out == ""
    assert "line %d: %s" % (line, why) in err


def test_cube_spec_subset_outside_the_cube_is_a_value_error():
    from fihom import CubeSpec

    with pytest.raises(ValueError, match="subset \\[0, 5\\] not inside 0..1"):
        CubeSpec(2, k_by_subset={(0,): 1, (1,): 1, (0, 1): 3, (0, 5): 3})


def test_cube_over_the_limit_is_refused_before_building(capsys, tmp_path,
                                                       monkeypatch):
    import fihom.cli as cli

    def no_spec(*args, **kwargs):
        raise AssertionError("CubeSpec built for an oversized cube")

    monkeypatch.setattr(cli, "CubeSpec", no_spec)
    spec = tmp_path / "cube.txt"
    spec.write_text("cube 24\n" + "".join("size %d %d\n" % (s, s)
                                           for s in range(1, 25)))
    code, _, err = run(capsys, ["cube", "--spec", str(spec),
                                "--direction", "cart"])
    assert code == EXIT_USAGE
    assert "n <= 16" in err


def test_cube_runs_the_partition_dp_once(capsys, tmp_path, monkeypatch):
    import fihom.bounds as bounds
    import fihom.cli as cli

    runs = []
    real = bounds.partition_min

    def counted(spec):
        runs.append(spec.n)
        return real(spec)

    monkeypatch.setattr(bounds, "partition_min", counted)
    monkeypatch.setattr(cli, "partition_min", counted)
    spec = tmp_path / "cube.txt"
    spec.write_text("cube 3\nsize 1 2\nsize 2 4\nsize 3 6\n")
    code, out, _ = run(capsys, ["cube", "--spec", str(spec),
                                "--direction", "cart"])
    assert code == EXIT_OK
    assert "partition min = 6" in out
    assert "4-cartesian" in out
    assert runs == [3]


def test_conf_shows_both_variants(capsys):
    code, out, _ = run(capsys, ["conf", "--d", "3", "--p", "2"])
    assert code == EXIT_OK
    assert "p=2 stated: t0 <= 3  t1 <= 4" in out
    assert "p=2 body: t0 <= 5  t1 <= 6" in out


@pytest.mark.parametrize("n", ["0", "-4"])
def test_conf_refuses_a_cube_below_dimension_one(capsys, n):
    code, out, err = run(capsys, ["conf", "--d", "3", "--p", "2", "--n", n])
    assert code == EXIT_USAGE
    assert out == ""
    assert "n >= 1" in err


def test_cohomology_table(capsys):
    code, out, _ = run(capsys, ["cohomology", "--d", "3", "--u", "0",
                                "--p", "0..2"])
    assert code == EXIT_OK
    assert "p=0: t0 <= 1  t1 <= 2" in out
    assert "p=2: t0 <= 5  t1 <= 6" in out


def test_cohomology_rejects_flat_dimension(capsys):
    code, _, err = run(capsys, ["cohomology", "--d", "2", "--u", "0",
                                "--p", "1"])
    assert code == EXIT_USAGE
    assert "d >= 3" in err


# ---------------------------------------------------------------------------
# gen and verify


def test_gen_writes_deterministic_file(capsys, tmp_path):
    a = tmp_path / "a.fim"
    b = tmp_path / "b.fim"
    assert main(["gen", "--kind", "free", "--seed", "3",
                 "-o", str(a)]) == EXIT_OK
    assert main(["gen", "--kind", "free", "--seed", "3",
                 "-o", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    code, out, _ = run(capsys, ["validate", str(a)])
    assert code == EXIT_OK
    assert "ok:" in out


@pytest.mark.parametrize("where", ["dir", "missing/out.fim"])
def test_gen_reports_an_unwritable_output(capsys, tmp_path, where):
    path = tmp_path if where == "dir" else tmp_path / where
    code, out, err = run(capsys, ["gen", "--kind", "free", "--seed", "3",
                                  "-o", str(path)])
    assert code == EXIT_FAIL
    assert out == ""
    assert err.startswith("fihom: [Errno ") and str(path) in err
    assert "Traceback" not in err


def test_gen_coker_to_stdout_parses(capsys):
    code, out, _ = run(capsys, ["gen", "--kind", "coker", "--seed", "5",
                                "--ring", "Q", "--trunc", "4"])
    assert code == EXIT_OK
    from fihom import parse

    assert parse(out).ring == "Q"


@pytest.mark.parametrize("kind", ["free", "coker", "complex"])
def test_gen_refuses_truncation_zero(capsys, kind):
    code, out, err = run(capsys, ["gen", "--kind", kind, "--seed", "1",
                                  "--trunc", "0"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "truncation 0 outside 1..6" in err


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "partitions",
                                "--trials", "6", "--seed", "1"])
    assert code == EXIT_OK
    assert "suite partitions: PASS" in out


def test_verify_negative_trials_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "homology", "--trials", "-3"])
    assert err.value.code == EXIT_USAGE
    err_text = capsys.readouterr().err
    assert "usage:" in err_text
    assert "--trials" in err_text


def test_verify_kv_result(capsys, monkeypatch):
    code, out, _ = run(capsys, ["verify", "--suite", "bounds", "--seed", "2"],
                       env={"FIHOM_FORMAT": "kv"}, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert "result=pass" in out


def test_verify_reports_are_deterministic(capsys):
    main(["verify", "--suite", "degrees", "--trials", "4", "--seed", "3"])
    first = capsys.readouterr().out
    main(["verify", "--suite", "degrees", "--trials", "4", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_verify_failure_dumps_counterexample(capsys, tmp_path, monkeypatch):
    import fihom.cli as cli

    def fake_run_suite(name, trials=None, seed=0):
        return SuiteReport(name, seed, 1, 1,
                           failures=(("demo failure", "artifact body\n"),))

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    code, out, _ = run(capsys, ["verify", "--suite", "homology",
                                "--dump-dir", str(tmp_path)])
    assert code == EXIT_FAIL
    assert "FAIL" in out
    dumped = list(tmp_path.glob("fihom-counterexample-*.txt"))
    assert len(dumped) == 1
    assert dumped[0].read_text() == "# demo failure\nartifact body\n"


def test_verify_reports_an_unwritable_counterexample(capsys, tmp_path, monkeypatch):
    import fihom.cli as cli

    def fake_run_suite(name, trials=None, seed=0):
        return SuiteReport(name, seed, 1, 1,
                           failures=(("demo failure", "artifact body\n"),))

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    missing = tmp_path / "missing"
    code, out, err = run(capsys, ["verify", "--suite", "homology",
                                  "--dump-dir", str(missing)])
    assert code == EXIT_FAIL
    assert "FAIL" in out and "counterexample written" not in out
    assert err.startswith("fihom: [Errno ") and str(missing) in err
    assert not missing.exists()


# ---------------------------------------------------------------------------
# top-level plumbing


def test_bad_output_format_is_usage_error(capsys, monkeypatch):
    code, _, err = run(capsys, ["conf", "--d", "3", "--p", "2"],
                       env={"FIHOM_FORMAT": "xml"}, monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert "FIHOM_FORMAT" in err


def test_unknown_subcommand_exits_usage(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == EXIT_USAGE


def test_missing_required_flag_exits_usage(capsys):
    with pytest.raises(SystemExit) as err:
        main(["homology", "somefile"])
    assert err.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# golden output


DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "verify-all-seed0.kv"


def test_verify_all_seed0_matches_the_golden_output(capsys, monkeypatch):
    """The whole battery at seed 0, byte for byte as committed."""
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--seed", "0"],
                       env={"FIHOM_FORMAT": "kv"}, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert out.encode() == GOLDEN.read_bytes()


# SHA-256 of `FIHOM_FORMAT=kv fihom verify --suite all --seed S` (seed 0 is
# the golden file above)
VERIFY_SHA256 = {
    1: "e5aa8553829a982b799fd15e1240f40c79fcb30fac450ada4f0052f696767d21",
    2: "d20e8dbab6aa813f86eedf142b5c70bb570c1f0fdf13c516866940f2a2253ccb",
    3: "67ee9c079bda7b535b64759af02915c68a240ca1dbfc3d58de7e8beeb125ec8e",
    4: "40f0be57b91754e62db81d122678eb15df80ff1a868137a9dd6dab9d955a5a44",
    5: "3d76943d24f3164352511293d589d23b29490f73eb88baa9c674dd27cc8aaf63",
    6: "3b0ee5701b4c0a6fb9503822ce52bd5b314bff1d0968e566c397e98cd4c8cb66",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_SHA256))
def test_verify_all_matches_its_pinned_hash(seed, capsys, monkeypatch):
    """The whole battery at seeds 1..6, byte for byte, by its SHA-256."""
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--seed", str(seed)],
                       env={"FIHOM_FORMAT": "kv"}, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[seed]


HYPER_FILES = sorted((Path(__file__).parent.parent / "bench" / "data" / "hyper").glob("*.fic"))


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_hyper_on_the_bench_complexes_matches_the_golden_output(ring, capsys, monkeypatch,
                                                                 tmp_path):
    """`fihom hyper FILE --level n` under kv for the frozen bench complexes
    (file names sorted, levels 0..6), concatenated, byte for byte.  The Q
    case reads each file with its `ring Z` lines rewritten to `ring Q`."""
    assert [f.name for f in HYPER_FILES] == [
        "complex-s2.fic", "complex-s3.fic", "complex-s4.fic", "complex-s6.fic"]
    monkeypatch.setenv("FIHOM_FORMAT", "kv")
    out = []
    for path in HYPER_FILES:
        if ring == "Q":
            text = path.read_text().replace("ring Z\n", "ring Q\n")
            path = tmp_path / path.name
            path.write_text(text)
        for level in range(7):
            code, text, _ = run(capsys, ["hyper", str(path), "--level", str(level)])
            assert code == EXIT_OK
            out.append(text)
    assert "".join(out).encode() == (DATA / ("hyper-bench-%s.kv" % ring)).read_bytes()


BOUNDS_COMMANDS = (
    [["conf", "--d", str(d), "--p", "2..8", "--variant", "both"] for d in range(3, 8)]
    + [["conf", "--d", "4", "--p", "2..4", "--n", "3"]]
    + [["cohomology", "--d", str(d), "--u", str(u), "--p", "0..8"]
       for d in range(3, 8) for u in range(3)]
    + [["bounds", "ganli", "--t", "2,3", "--k", "0"],
       ["bounds", "bahran", "--delta", "3", "--hmax", "4"],
       ["bounds", "goingdown", "--p", "1", "--variant", "general", "--t", "1,2,3,2,1"],
       ["bounds", "goingdown", "--p", "3", "--variant", "monotone", "--f-const", "2"],
       ["bounds", "goingdown", "--p", "3", "--variant", "linear", "--a", "2", "--b", "1"]])


def test_bound_tables_match_the_golden_output(capsys, monkeypatch):
    """The closed-form bound tables under kv, `BOUNDS_COMMANDS` in order,
    concatenated: every `BoundReport` field, regime, formula and note."""
    monkeypatch.setenv("FIHOM_FORMAT", "kv")
    out = []
    for argv in BOUNDS_COMMANDS:
        code, text, _ = run(capsys, argv)
        assert code == EXIT_OK
        out.append(text)
    assert "".join(out).encode() == (DATA / "bounds-golden.kv").read_bytes()


GEN_GOLDEN = DATA / "gen-golden.txt"


def test_gen_matches_the_golden_output(capsys):
    """`fihom gen --kind K --ring R --seed S` for K in free, coker, complex,
    R in Z, Q and S in 0..2, in that nesting order, concatenated."""
    out = []
    for kind in ("free", "coker", "complex"):
        for ring in ("Z", "Q"):
            for seed in range(3):
                code, text, _ = run(capsys, ["gen", "--kind", kind, "--ring", ring,
                                             "--seed", str(seed)])
                assert code == EXIT_OK
                out.append(text)
    assert "".join(out).encode() == GEN_GOLDEN.read_bytes()


def test_degrees_match_the_golden_output(capsys, monkeypatch, tmp_path):
    """`fihom degrees FILE --kmax K` under kv for K = 0..3, on the files of
    `fihom gen --kind coker --trunc 5` and then `fihom gen --kind free`,
    ring Z then Q, seeds 0..3, concatenated."""
    out = []
    for kind in ("coker", "free"):
        for ring in ("Z", "Q"):
            for seed in range(4):
                path = tmp_path / ("%s-%s-%d.fim" % (kind, ring, seed))
                argv = ["gen", "--kind", kind, "--seed", str(seed), "--ring", ring,
                        "-o", str(path)]
                code, _, _ = run(capsys, argv + (["--trunc", "5"] if kind == "coker" else []))
                assert code == EXIT_OK
                for kmax in range(4):
                    code, text, _ = run(capsys, ["degrees", str(path), "--kmax", str(kmax)],
                                        env={"FIHOM_FORMAT": "kv"}, monkeypatch=monkeypatch)
                    assert code == EXIT_OK
                    out.append(text)
    assert "".join(out).encode() == (DATA / "degrees-golden.kv").read_bytes()


# ---------------------------------------------------------------------------
# one parser per process


def test_main_builds_one_parser_tree_and_import_builds_none(tmp_path):
    """Count the `_Parser` objects made: none by the import, one tree by the
    first `main` call, none by the later ones."""
    script = (
        "import argparse, contextlib, io\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def spy(self, *a, **k):\n"
        "    made.append(type(self).__name__)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = spy\n"
        "import fihom.cli as cli\n"
        "print(len(made))\n"
        "for _ in range(3):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['bounds', 'bahran', '--delta', '2', '--hmax', '3']) == 0\n"
        "    print(len(made))\n"
        "print(set(made))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    counts = done.stdout.split()
    assert counts[0] == "0"
    assert int(counts[1]) > 0
    assert counts[2] == counts[3] == counts[1]
    assert counts[4] == "{'_Parser'}"


def test_a_shared_parser_leaks_no_value_into_the_next_call(capsys, monkeypatch):
    code, out, _ = run(capsys, ["verify", "--suite", "partitions", "--trials", "1"],
                       env={"FIHOM_FORMAT": "kv"}, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert "trials=1\n" in out
    code, out, _ = run(capsys, ["verify", "--suite", "partitions"])
    assert code == EXIT_OK
    assert "trials=40\n" in out


def test_a_usage_error_leaves_the_shared_parser_working(capsys, m2_file):
    with pytest.raises(SystemExit) as err:
        main(["homology", m2_file, "--level", "x", "--degree", "0"])
    assert err.value.code == EXIT_USAGE
    assert "usage:" in capsys.readouterr().err
    code, out, _ = run(capsys, ["homology", m2_file, "--level", "3", "--degree", "0"])
    assert code == EXIT_OK
    assert out
