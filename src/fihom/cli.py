"""Command line front end.

Exit codes: 0 = success / all checks pass, 1 = usage error (bad flags or
argument values), 2 = verification failure (unparseable or invalid input
files, output files that cannot be written, failed verify suites).
Output format switches between `plain` and `kv` (logfmt-style key=value
tokens) via the FIHOM_FORMAT variable.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .bounds import (
    _MAX_CUBE_N, CubeSpec, DegreeSeq, _cube_value, bahran_bounds,
    cohomology_bounds, conf_bounds, gan_li_bounds, going_down_bounds,
    going_up_bound, partition_min,
)
from .complexes import FIComplex, hyper_total_complex
from .fimodule import FIModule
from .generate import generate
from .homology import degrees, fih_group
from .io import parse
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2


class _FileProblem(Exception):
    """Input file failed to parse or validate, or an output file could not
    be written: exit 2, not a usage error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _kv_token(key, value):
    v = str(value)
    if v == "" or any(c in v for c in ' ="'):
        v = '"%s"' % v.replace('"', r'\"')
    return "%s=%s" % (key, v)


def _emit(fmt, pairs, plain):
    """One record: pairs for kv mode, preformatted lines for plain mode."""
    if fmt == "kv":
        print(" ".join(_kv_token(k, v) for k, v in pairs))
    else:
        for line in plain:
            print(line)


def _load(path, want=None):
    try:
        with open(path) as fh:
            obj = parse(fh)
    except OSError as e:
        raise _FileProblem(str(e))
    except (ValueError, ArithmeticError) as e:  # ParseError and ValidationError too
        raise _FileProblem("%s: %s" % (path, e))
    if want is not None and not isinstance(obj, want):
        raise _FileProblem("%s: expected a %s file" % (path, want.__name__.lower()))
    return obj


def _write(path, *parts):
    """Write the text parts to path; an OSError is a file problem."""
    try:
        with open(path, "w") as fh:
            fh.writelines(parts)
    except OSError as e:
        raise _FileProblem(str(e))


def _count(text):
    """argparse type of a count flag: an integer >= 0."""
    try:
        v = int(text)
    except ValueError:
        v = -1
    if v < 0:
        raise argparse.ArgumentTypeError("expected an integer >= 0, got %r" % text)
    return v


def _int_entry(tok, flag, want="an integer"):
    """int(tok) for an entry of the list flag `flag`; a bad one names both."""
    try:
        return int(tok)
    except ValueError:
        raise ValueError("bad %s entry %r: expected %s" % (flag, tok, want)) from None


def _parse_int(tok, flag):
    if tok == "none":
        return -1
    return _int_entry(tok, flag, "an integer or none")


def _parse_seq(text, flag):
    """Comma list "2,3,none" -> DegreeSeq {0: 2, 1: 3, 2: -1}."""
    entries = {}
    for i, tok in enumerate(t.strip() for t in text.split(",")):
        entries[i] = _parse_int(tok, flag)
    return DegreeSeq(entries)


def _parse_range(text):
    """The --p value: "A..B" or a single value, inclusive."""
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError("bad --p value %r: expected an integer or A..B" % text) from None
    if hi < lo:
        raise ValueError("empty range %s" % text)
    return range(lo, hi + 1)


def _read_cube_spec(path):
    """Cube spec file: "cube N", then "size S V" or "set i,j,... V" lines."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise _FileProblem(str(e))
    n = None
    by_size, by_subset = {}, {}
    for no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "cube" and len(parts) == 2 and n is None:
                n = int(parts[1])
            elif parts[0] == "size" and len(parts) == 3 and n is not None:
                table, key, v = by_size, int(parts[1]), int(parts[2])
                bad = None if 1 <= key <= n else "must lie in 1..%d" % n
            elif parts[0] == "set" and len(parts) == 3 and n is not None:
                table, v = by_subset, int(parts[2])
                key = tuple(sorted(int(x) for x in parts[1].split(",")))
                ok = len(set(key)) == len(key) and set(key) <= set(range(n))
                bad = None if ok else "needs distinct elements in 0..%d" % (n - 1)
            else:
                raise ValueError("bad cube spec line")
        except ValueError:
            raise _FileProblem("%s: line %d: expected 'cube N', 'size S V' "
                               "or 'set i,j,... V'" % (path, no))
        if parts[0] != "cube":
            if bad or key in table:
                raise _FileProblem("%s: line %d: %s %s %s" % (
                    path, no, parts[0], parts[1], bad or "given twice"))
            table[key] = v
        elif n > _MAX_CUBE_N:
            # refused before CubeSpec builds its 2^n - 1 weights
            raise ValueError("cube dimension %d exceeds the limit n <= %d"
                             % (n, _MAX_CUBE_N))
    if n is None:
        raise _FileProblem("%s: missing 'cube N' header" % path)
    if bool(by_size) == bool(by_subset):
        raise _FileProblem("%s: give size lines or set lines, not both" % path)
    try:
        if by_size:
            return CubeSpec(n, k_by_size=by_size)
        return CubeSpec(n, k_by_subset=by_subset)
    except ValueError as e:
        raise _FileProblem("%s: %s" % (path, e))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args, fmt):
    obj = _load(args.file)
    if isinstance(obj, FIModule):
        pairs = [("status", "ok"), ("kind", "fimodule"), ("ring", obj.ring),
                 ("truncation", obj.truncation),
                 ("dims", ",".join(map(str, obj.dims)))]
        plain = ["ok: fimodule over %s, truncation %d, dims %s"
                 % (obj.ring, obj.truncation, list(obj.dims))]
    else:
        pairs = [("status", "ok"), ("kind", "ficomplex"), ("ring", obj.ring),
                 ("truncation", obj.truncation),
                 ("degrees", "%d..%d" % (obj.q_min, obj.q_max))]
        plain = ["ok: ficomplex over %s, truncation %d, degrees %d..%d"
                 % (obj.ring, obj.truncation, obj.q_min, obj.q_max)]
    _emit(fmt, pairs, plain)
    return EXIT_OK


def _cmd_homology(args, fmt):
    V = _load(args.file, FIModule)
    if not (0 <= args.level <= V.truncation):
        raise ValueError("level must lie in 0..%d" % V.truncation)
    cls = fih_group(V, args.level, args.degree)
    _emit(fmt,
          [("level", args.level), ("degree", args.degree),
           ("rank", cls.rank), ("torsion", ",".join(map(str, cls.torsion))),
           ("group", str(cls))],
          ["H_%d V(%d_) = %s" % (args.degree, args.level, cls)])
    return EXIT_OK


def _cmd_degrees(args, fmt):
    V = _load(args.file, FIModule)
    prof = degrees(V, args.kmax)
    pairs = []
    for k in sorted(prof.values):
        v = prof.values[k]
        pairs.append(("t_%d" % k, "none" if v is None else v))
        pairs.append(("certified_%d" % k, "yes" if prof.certified[k] else "no"))
    _emit(fmt, pairs, [str(prof)])
    return EXIT_OK


def _cmd_hyper(args, fmt):
    W = _load(args.file, FIComplex)
    if not (0 <= args.level <= W.truncation):
        raise ValueError("level must lie in 0..%d" % W.truncation)
    tot = hyper_total_complex(W, args.level)
    for m in range(tot.m_min, tot.m_max + 1):
        cls = tot.homology(m)
        _emit(fmt,
              [("level", args.level), ("m", m), ("rank", cls.rank),
               ("torsion", ",".join(map(str, cls.torsion))),
               ("group", str(cls))],
              ["H_%d(Tot, level %d) = %s" % (m, args.level, cls)])
    return EXIT_OK


def _report_pairs(rep, extra=()):
    pairs = list(extra)
    for name in ("t0_bound", "t1_bound", "cartesianity", "cocartesianity", "partition_min"):
        if getattr(rep, name) is not None:
            pairs.append((name, getattr(rep, name)))
    pairs.append(("regime", rep.regime))
    pairs.append(("formula", rep.formula))
    for note in rep.notes:
        pairs.append(("note", note))
    return pairs


def _print_report(fmt, rep, extra=(), label=None):
    plain = []
    head = str(rep)
    if label:
        head = "%s: %s" % (label, head)
    plain.append(head)
    plain.append("  formula: %s" % rep.formula)
    for note in rep.notes:
        plain.append("  note: %s" % note)
    _emit(fmt, _report_pairs(rep, extra), plain)


def _cmd_bounds(args, fmt):
    if args.family == "ganli":
        rep = gan_li_bounds(_parse_seq(args.t, "--t"), args.k)
        _print_report(fmt, rep, extra=[("k", args.k)])
    elif args.family == "bahran":
        rep = bahran_bounds(args.delta, args.hmax)
        _print_report(fmt, rep,
                      extra=[("delta", args.delta), ("hmax", args.hmax)])
    elif args.family == "goingdown":
        if args.variant == "general":
            if args.t is None:
                raise ValueError("general variant needs --t")
            rep = going_down_bounds(_parse_seq(args.t, "--t"), args.p)
        elif args.variant == "monotone":
            if args.f_const is None:
                raise ValueError("monotone variant needs --f-const")
            c = args.f_const
            rep = going_down_bounds(None, args.p, variant="monotone",
                                    f=lambda q: c)
        else:
            if args.a is None or args.b is None:
                raise ValueError("linear variant needs --a and --b")
            rep = going_down_bounds(None, args.p, variant="linear",
                                    a=args.a, b=args.b)
        _print_report(fmt, rep, extra=[("p", args.p), ("variant", args.variant)])
    else:  # goingup
        pi = {}
        for tok in args.pi.split(","):
            try:
                k, j, v = (t.strip() for t in tok.split(":"))
                pi[(int(k), int(j))] = _parse_int(v, "--pi")
            except ValueError:
                raise ValueError("bad --pi entry %r: expected k:j:value" % tok.strip())
        val = going_up_bound(pi, args.k)
        _emit(fmt, [("k", args.k), ("bound", val)],
              ["t_%d bound = %s" % (args.k, val)])
    return EXIT_OK


def _cmd_cube(args, fmt):
    spec = _read_cube_spec(args.spec)
    direction = "to_cartesian" if args.direction == "cart" else "to_cocartesian"
    m = partition_min(spec)
    value = _cube_value(spec.n, m, direction)
    key = "cartesianity" if args.direction == "cart" else "cocartesianity"
    _emit(fmt,
          [("n", spec.n), ("partition_min", m), (key, value)],
          ["partition min = %d" % m,
           "%d-%s" % (value, "cartesian" if args.direction == "cart"
                      else "cocartesian")])
    return EXIT_OK


def _cmd_conf(args, fmt):
    variants = ("stated", "body") if args.variant == "both" else (args.variant,)
    for p in _parse_range(args.p):
        for variant in variants:
            rep = conf_bounds(p, args.d, variant=variant, n=args.n)
            _print_report(fmt, rep,
                          extra=[("p", p), ("d", args.d), ("variant", variant)],
                          label="p=%d %s" % (p, variant))
    return EXIT_OK


def _cmd_cohomology(args, fmt):
    for p in _parse_range(args.p):
        rep = cohomology_bounds(p, args.d, args.u)
        _print_report(fmt, rep,
                      extra=[("p", p), ("d", args.d), ("u", args.u)],
                      label="p=%d" % p)
    return EXIT_OK


def _cmd_gen(args, fmt):
    dims = None
    if args.dims is not None:
        if args.kind != "free":
            raise ValueError("--dims applies to --kind free only")
        dims = tuple(_int_entry(t, "--dims") for t in args.dims.split(","))
    text = generate(args.kind, args.seed, ring=args.ring, trunc=args.trunc,
                    dims=dims)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args, fmt):
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        rep = run_suite(name, trials=args.trials, seed=args.seed)
        print(rep.render(fmt))
        for i, (label, artifact) in enumerate(rep.failures):
            ok = False
            if artifact:
                path = os.path.join(args.dump_dir,
                                    "fihom-counterexample-%s-%d.txt" % (name, i))
                _write(path, "# %s\n" % label, artifact)
                print("counterexample written to %s" % path)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def build_parser():
    """The `fihom` parser, built by the first call and shared by the later
    ones: `parse_args` fills a fresh namespace from it each time."""
    top = _Parser(prog="fihom",
                  description="exact homological calculator for FI-modules")
    sub = top.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("validate", help="parse and validate a module/complex file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("homology", help="one FI-homology group of a module file")
    p.add_argument("file")
    p.add_argument("--level", type=int, required=True, metavar="n")
    p.add_argument("--degree", type=int, required=True, metavar="p")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("degrees", help="degree profile t_0..t_kmax")
    p.add_argument("file")
    p.add_argument("--kmax", type=_count, default=1)
    p.set_defaults(func=_cmd_degrees)

    p = sub.add_parser("hyper", help="hyperhomology of a complex file at a level")
    p.add_argument("file")
    p.add_argument("--level", type=int, required=True, metavar="n")
    p.set_defaults(func=_cmd_hyper)

    p = sub.add_parser("bounds", help="closed-form degree bounds")
    fam = p.add_subparsers(dest="family", metavar="FAMILY")
    fam.required = True
    q = fam.add_parser("ganli", help="spectral sequence bounds from t_k, t_{k+1}")
    q.add_argument("--t", required=True, metavar="LIST",
                   help="comma list t_0,t_1,... ('none' allowed)")
    q.add_argument("--k", type=int, default=0)
    q = fam.add_parser("bahran", help="piecewise bounds from (delta, hmax)")
    q.add_argument("--delta", type=int, required=True)
    q.add_argument("--hmax", type=int, required=True)
    q = fam.add_parser("goingdown", help="homotopy degree bounds")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--variant", choices=("general", "monotone", "linear"),
                   default="general")
    q.add_argument("--t", metavar="LIST", help="comma list for the general variant")
    q.add_argument("--f-const", type=int, dest="f_const",
                   help="constant dominating f for the monotone variant")
    q.add_argument("--a", type=int, help="slope for the linear variant")
    q.add_argument("--b", type=int, help="offset for the linear variant")
    q = fam.add_parser("goingup", help="max over the contributing column")
    q.add_argument("--pi", required=True, metavar="LIST",
                   help="comma list of k:j:value entries")
    q.add_argument("--k", type=int, required=True)
    for q in fam.choices.values():
        q.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("cube", help="cube (co)cartesianity from a spec file")
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("--direction", choices=("cart", "cocart"), required=True)
    p.set_defaults(func=_cmd_cube)

    p = sub.add_parser("conf", help="stability bounds, stated and body variants")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", required=True, help="degree or inclusive range A..B")
    p.add_argument("--variant", choices=("stated", "body", "both"), default="both")
    p.add_argument("--n", type=int, help="also report the n-cube cartesianity")
    p.set_defaults(func=_cmd_conf)

    p = sub.add_parser("cohomology", help="cohomology degree bounds by regime")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--p", required=True, help="degree or inclusive range A..B")
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--kind", choices=("free", "coker", "complex"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ring", choices=("Z", "Q"))
    p.add_argument("--trunc", type=int)
    p.add_argument("--dims", metavar="LIST", help="generator dims for kind=free")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(SUITES) + ["all"], required=True)
    p.add_argument("--trials", type=_count)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-dir", default=".", dest="dump_dir",
                   help="directory for counterexample files")
    p.set_defaults(func=_cmd_verify)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    fmt = os.environ.get("FIHOM_FORMAT", "plain")
    if fmt not in ("plain", "kv"):
        print("fihom: error: FIHOM_FORMAT must be plain or kv", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, fmt)
    except _FileProblem as e:
        print("fihom: %s" % e, file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, KeyError) as e:
        msg = e.args[0] if e.args else e
        print("fihom: error: %s" % msg, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
