"""Serialization: canonical text format, round trips, corruption reporting."""

import subprocess
import sys

import pytest

from fihom import (
    FIComplex,
    FIModule,
    ParseError,
    QQ,
    ValidationError,
    ZZ,
    complex_from_morphisms,
    free_morphism,
    generate,
    parse,
    representable,
    serialize,
    validate,
)
from fihom.cli import EXIT_FAIL, main
from fihom.generate import gen_coker, gen_complex, gen_free


def matrices(x):
    """Every matrix of a module or complex: the iotas, then the differentials."""
    mods = x.modules if isinstance(x, FIComplex) else [x]
    diffs = x.diffs if isinstance(x, FIComplex) else []
    return [M for V in mods for M in V.iota] + [M for d in diffs for M in d.levels]


def round_trip(x):
    s = serialize(x)
    y = parse(s)
    assert serialize(y) == s
    assert type(y) is type(x)
    assert y.ring == x.ring and y.truncation == x.truncation
    assert matrices(y) == matrices(x)  # sparse rows equal too: no stored zeros
    return y


# ---------------------------------------------------------------------------
# round trips


def test_point_module_round_trips():
    V = representable(1, 3, ZZ)
    W = round_trip(V)
    assert validate(W) == []
    assert W.dims == V.dims


def test_round_trip_of_generated_instances():
    # free + cokernel modules and complexes, both rings where applicable
    n = 0
    for i in range(14):
        ring = ZZ if i % 2 == 0 else QQ
        V, _ = gen_free("rt:%d" % i, ring=ring, trunc=2 + i % 4)
        round_trip(V)
        n += 1
    for i in range(8):
        ring = ZZ if i % 2 == 0 else QQ
        inst = gen_coker("rt:%d" % i, ring=ring, trunc=4)
        round_trip(inst.module)
        n += 1
    for i in range(8):
        round_trip(gen_complex("rt:%d" % i, trunc=3))
        n += 1
    assert n == 30


def test_serialize_is_idempotent_through_parse():
    text = serialize(gen_complex("idem:0", trunc=3))
    assert serialize(parse(text)) == text


def test_comments_and_blank_lines_are_skipped():
    text = generate("free", "c0", trunc=3)
    assert text.startswith("#")
    V = parse(text)
    assert isinstance(V, FIModule)
    assert parse("\n\n" + text).dims == V.dims


def test_rational_entries_written_reduced():
    inst = gen_coker("reduced:1", ring=QQ, trunc=4)
    text = serialize(inst.module)
    for line in text.splitlines():
        for tok in line.split():
            if "/" in tok and not line.startswith("#"):
                num, den = tok.split("/")
                from math import gcd

                assert gcd(int(num), int(den)) == 1
                assert int(den) > 1  # x/1 would not be canonical


# ---------------------------------------------------------------------------
# parse errors carry a locus


def test_unknown_header_rejected():
    with pytest.raises(ParseError, match="expected 'fimodule' or 'ficomplex'"):
        parse("bogus\nend\n")


def test_truncated_file_rejected():
    text = serialize(representable(1, 3, ZZ))
    clipped = "\n".join(text.splitlines()[:4]) + "\n"
    with pytest.raises(ParseError):
        parse(clipped)


def test_bad_matrix_entry_names_its_line():
    for ring, bad in ((ZZ, "x"), (QQ, "1/0"), (QQ, "0/0")):
        text = serialize(representable(1, 2, ring))
        lines = text.splitlines()
        # first iota with entries is 'iota 1' on a point module
        idx = lines.index("iota 1") + 1
        lines[idx] = bad
        with pytest.raises(ParseError) as err:
            parse("\n".join(lines) + "\n")
        assert err.value.line_no == idx + 1
        assert ("line %d" % (idx + 1)) in str(err.value)
        assert ("bad %s entry %r" % (ring, bad)) in str(err.value)


@pytest.mark.parametrize("ring, spellings", [(QQ, ("0", "-0", "00", "0/5")), (ZZ, ("-0",))])
def test_zero_spellings_are_parsed_and_not_stored(ring, spellings):
    """Every zero entry token of M(2) spelled in turn as each of `spellings`."""
    V = representable(2, 3, ring)
    text = serialize(V)
    lines, used = [], 0
    for line in text.splitlines():
        toks = line.split()
        if toks and toks[0].isdigit():  # a matrix row
            for j, tok in enumerate(toks):
                if tok == "0":
                    toks[j] = spellings[used % len(spellings)]
                    used += 1
            line = " ".join(toks)
        lines.append(line)
    assert used >= 2 * len(spellings)
    W = parse("\n".join(lines) + "\n")
    assert serialize(W) == text
    assert matrices(W) == matrices(V)
    trans = [W.transposition(n, i) for n in range(W.truncation + 1) for i in range(1, n)]
    assert trans == [V.transposition(n, i) for n in range(V.truncation + 1) for i in range(1, n)]
    assert all(v for M in matrices(W) + trans for r in M.rows for v in r.values())


def test_unknown_ring_rejected():
    text = serialize(representable(1, 2, ZZ)).replace("ring Z", "ring F7")
    with pytest.raises(ParseError, match="ring"):
        parse(text)


@pytest.mark.parametrize("text, line_no", [
    ("fimodule\nring Z\ntruncation 0\ndims -1\nend\n", 4),
    ("ficomplex\nring Z\ntruncation 0\nqmin 0\nmodules 1\nmodule 0\n"
     "ring Z\ntruncation 0\ndims -2\nendmodule\nend\n", 9),
], ids=["module", "complex"])
def test_negative_dims_entry_is_a_parse_error(text, line_no):
    with pytest.raises(ParseError, match="negative dims") as err:
        parse(text)
    assert err.value.line_no == line_no


HEADERS = {
    "module": "fimodule\nring Z\ntruncation 0\ndims 1\nend\n",
    "complex": "ficomplex\nring Z\ntruncation 0\nqmin 0\nmodules 1\nmodule 0\n"
               "ring Z\ntruncation 0\ndims 1\nendmodule\nend\n",
}
BARE_KEYS = ([("module", i) for i in (1, 2, 3)]
             + [("complex", i) for i in (1, 2, 3, 4, 6, 7, 8)])


@pytest.mark.parametrize("kind, idx", BARE_KEYS, ids=[
    "%s-line%d-%s" % (kind, i + 1, HEADERS[kind].split("\n")[i].split()[0])
    for kind, i in BARE_KEYS])
def test_a_bare_header_key_is_a_parse_error_on_its_line(tmp_path, capsys, kind, idx):
    """A header line `key` without its value, in a module or a complex file."""
    text = HEADERS[kind]
    lines = text.splitlines()
    key = lines[idx].split()[0]
    lines[idx] = key
    bare = "\n".join(lines) + "\n"
    parse(text)
    with pytest.raises(ParseError, match=key) as err:
        parse(bare)
    assert err.value.line_no == idx + 1
    path = tmp_path / "bare.txt"
    path.write_text(bare)
    assert main(["validate", str(path)]) == EXIT_FAIL
    assert "line %d: " % (idx + 1) in capsys.readouterr().err


HEADED_MODULE = ("fimodule\nring Z\ntruncation 3\ndims 1 1 1 1\niota 0\n1\niota 1\n1\n"
                 "iota 2\n1\ntrans 2 1\n1\ntrans 3 1\n1\ntrans 3 2\n1\nend\n")
HEADED_COMPLEX = ("ficomplex\nring Z\ntruncation 1\nqmin 0\nmodules 2\n"
                  "module 0\nring Z\ntruncation 1\ndims 1 1\niota 0\n1\nendmodule\n"
                  "module 1\nring Z\ntruncation 1\ndims 1 1\niota 0\n1\nendmodule\n"
                  "diff 1 level 0\n0\ndiff 1 level 1\n0\nend\n")
# (text, 0-based line, what replaces it, the whole ParseError message)
HEADER_MESSAGES = [
    (HEADED_MODULE, 4, "bogus", "line 5: expected 'iota 0', got 'bogus'"),
    (HEADED_MODULE, 6, "iota 2", "line 7: expected 'iota 1', got 'iota 2'"),
    (HEADED_MODULE, 8, "bogus", "line 9: expected 'iota 2', got 'bogus'"),
    (HEADED_MODULE, 10, "bogus", "line 11: expected 'trans 2 1', got 'bogus'"),
    (HEADED_MODULE, 12, "trans 3 2", "line 13: expected 'trans 3 1', got 'trans 3 2'"),
    (HEADED_MODULE, 14, "bogus", "line 15: expected 'trans 3 2', got 'bogus'"),
    (HEADED_MODULE, 16, "endmodule", "line 17: expected 'end', got 'endmodule'"),
    (HEADED_MODULE, 0, "bogus", "line 1: expected 'fimodule' or 'ficomplex' header"),
    (HEADED_MODULE, 1, "bogus Z", "line 2: expected 'ring', got 'bogus Z'"),
    (HEADED_COMPLEX, 5, "bogus", "line 6: expected 'module 0', got 'bogus'"),
    (HEADED_COMPLEX, 9, "bogus", "line 10: expected 'iota 0', got 'bogus'"),
    (HEADED_COMPLEX, 11, "end", "line 12: expected 'endmodule', got 'end'"),
    (HEADED_COMPLEX, 12, "module 0", "line 13: expected 'module 1', got 'module 0'"),
    (HEADED_COMPLEX, 16, "bogus", "line 17: expected 'iota 0', got 'bogus'"),
    (HEADED_COMPLEX, 18, "bogus", "line 19: expected 'endmodule', got 'bogus'"),
    (HEADED_COMPLEX, 19, "diff 2 level 0",
     "line 20: expected 'diff 1 level 0', got 'diff 2 level 0'"),
    (HEADED_COMPLEX, 21, "bogus", "line 22: expected 'diff 1 level 1', got 'bogus'"),
    (HEADED_COMPLEX, 23, "endmodule", "line 24: expected 'end', got 'endmodule'"),
    (HEADED_COMPLEX, 4, "bogus 2", "line 5: expected 'modules', got 'bogus 2'"),
]


@pytest.mark.parametrize("text, idx, line, message", HEADER_MESSAGES,
                         ids=["%s-line%d" % (t.split()[0], i + 1)
                              for t, i, _, _ in HEADER_MESSAGES])
def test_a_wrong_header_line_is_named_byte_for_byte(text, idx, line, message):
    parse(text)
    lines = text.splitlines()
    lines[idx] = line
    with pytest.raises(ParseError) as err:
        parse("\n".join(lines) + "\n")
    assert str(err.value) == message


BARE_KEY_MESSAGES = {
    ("module", 1): "line 2: 'ring' needs a value",
    ("module", 2): "line 3: 'truncation' needs a value",
    ("module", 3): "line 4: dims has 0 entries, truncation 0 needs 1",
    ("complex", 1): "line 2: 'ring' needs a value",
    ("complex", 2): "line 3: 'truncation' needs a value",
    ("complex", 3): "line 4: 'qmin' needs a value",
    ("complex", 4): "line 5: 'modules' needs a value",
    ("complex", 6): "line 7: 'ring' needs a value",
    ("complex", 7): "line 8: 'truncation' needs a value",
    ("complex", 8): "line 9: dims has 0 entries, truncation 0 needs 1",
}


def test_every_bare_header_key_message_is_pinned():
    assert sorted(BARE_KEY_MESSAGES) == sorted(BARE_KEYS)
    for (kind, idx), message in BARE_KEY_MESSAGES.items():
        lines = HEADERS[kind].splitlines()
        lines[idx] = lines[idx].split()[0]
        with pytest.raises(ParseError) as err:
            parse("\n".join(lines) + "\n")
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# validation errors name the broken relation


def test_non_involutive_transposition_names_level_and_generator():
    text = serialize(representable(2, 3, ZZ))
    lines = text.splitlines()
    idx = lines.index("trans 2 1")
    # the 2x2 swap becomes a shear: no longer squares to the identity
    lines[idx + 1] = "1 1"
    lines[idx + 2] = "0 1"
    with pytest.raises(ValidationError) as err:
        parse("\n".join(lines) + "\n")
    assert any("level 2" in v and "s_1" in v for v in err.value.violations)


def test_non_composing_complex_names_degree_and_level():
    target = representable(1, 2, QQ)
    f = free_morphism([1], target, [[1]])
    g = free_morphism([1], f.source, [[0]])
    W = complex_from_morphisms([target, f.source, g.source], [f, g])
    text = serialize(W)
    lines = text.splitlines()
    idx = lines.index("diff 2 level 1")
    assert lines[idx + 1] == "0"
    lines[idx + 1] = "1"  # now del_1 o del_2 = id != 0 at level 1
    with pytest.raises(ValidationError, match="degree 2, level 1"):
        parse("\n".join(lines) + "\n")


def test_complex_module_header_mismatch():
    W = gen_complex("hm:0", trunc=3)
    text = serialize(W).replace("truncation 3", "truncation 2", 1)
    with pytest.raises(ParseError):
        parse(text)


# ---------------------------------------------------------------------------
# deterministic generation


def test_identical_seeds_identical_bytes():
    for kind in ("free", "coker", "complex"):
        assert generate(kind, "det:7") == generate(kind, "det:7")
    assert generate("free", "a") != generate("free", "b")


def test_generation_is_deterministic_across_processes():
    text = generate("coker", "xp:3")
    prog = ("import sys; from fihom.generate import generate; "
            "sys.stdout.write(generate('coker', 'xp:3'))")
    out = subprocess.run([sys.executable, "-c", prog],
                         capture_output=True, text=True, check=True)
    assert out.stdout == text


def test_generate_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind"):
        generate("sphere", 1)


def test_generate_size_guards():
    with pytest.raises(ValueError):
        generate("free", 1, trunc=9)
    for kind in ("free", "coker", "complex"):  # 0 is not "use the default"
        with pytest.raises(ValueError, match="truncation 0 outside 1..6"):
            generate(kind, 1, trunc=0)
    with pytest.raises(ValueError):
        gen_free(1, trunc=3, dims=(1, 1, 1, 1, 1))
