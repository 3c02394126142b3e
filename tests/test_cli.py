"""The command line surface: exit codes, output formats, file handling."""

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


def test_conf_shows_both_variants(capsys):
    code, out, _ = run(capsys, ["conf", "--d", "3", "--p", "2"])
    assert code == EXIT_OK
    assert "p=2 stated: t0 <= 3  t1 <= 4" in out
    assert "p=2 body: t0 <= 5  t1 <= 6" in out


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


def test_gen_coker_to_stdout_parses(capsys):
    code, out, _ = run(capsys, ["gen", "--kind", "coker", "--seed", "5",
                                "--ring", "Q", "--trunc", "4"])
    assert code == EXIT_OK
    from fihom import parse

    assert parse(out).ring == "Q"


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
