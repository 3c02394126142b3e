"""The four workloads: their inputs, their ops and the checks on each answer.

A workload draws its inputs from the benchmark seed with its own code
(`draw`), loads them through fihom (`load`, the timed set-up) and lists the
ops of one round (`ops`).  Every round runs the same ops in the same order.
An op returns the program's answer; its check runs outside the timed region
and returns a list of problems, empty when the answer is right.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
from dataclasses import dataclass, field
from math import comb, prod
from typing import Callable

import oracles

# The ops that today's dense Smith form cannot finish (more than 25 s) run
# in a child process stopped at CAP_S.  Every other op runs in-process under
# SAFETY_CAP_S, so that a hang still ends the run; the slowest of them took
# 1.5 s.  Both caps lie far from every op's time, so which ops fail does
# not depend on the seed or on the machine's speed.
CAP_S = 1.0
SAFETY_CAP_S = 30.0

BIG_PRIME = 2147483647


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    in_child: bool = False


@dataclass
class Workload:
    name: str
    seed: int
    workdir: str
    state: dict = field(default_factory=dict)
    loaded: object = None

    def draw(self):
        """Make the inputs from the seed, with the benchmark's own code."""

    def load(self, fihom):
        """Load the inputs through the program (the timed set-up)."""

    def prepare(self, fihom):
        """Reference answers that need the loaded inputs (not timed)."""

    def ops(self, fihom):
        raise NotImplementedError

    def end_round(self, results):
        """Checks that compare ops of one round; returns failing op indices."""
        return {}


def _kv_lines(text):
    """Records of FIHOM_FORMAT=kv output, one dict per line."""
    out = []
    for line in text.splitlines():
        if line.strip():
            out.append(dict(tok.split("=", 1) for tok in shlex.split(line)))
    return out


def _cli(fihom, argv):
    """(exit code, stdout) of one in-process `fihom` call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = fihom.cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# degrees: FI-homology degree profiles of free modules


# (generator cardinalities, truncation, ring, the kmax values of each copy);
# each copy is the same module in its own seeded basis order.  44 ops: the
# tail (the 11th slowest) falls among nine ops of 0.3-0.45 s, the (1, 0) Q
# kmax 3 and M(2) Q kmax 1 ones, not on the edge between two groups.
DEGREE_INPUTS = (
    ((1, 1, 0), 8, "Z", ((1, 3),) * 4),
    ((2, 2), 7, "Z", ((1, 3), (1, 3), (1,))),
    ((2,), 8, "Z", ((1, 3), (1, 3), (1,))),
    ((2, 1), 8, "Z", ((1,),) * 3),
    ((3,), 7, "Z", ((1,),)),
    ((1, 0), 8, "Q", ((1, 3),) * 5),
    ((2, 1, 0), 7, "Q", ((1, 3), (1,), (1,))),
    ((1, 1, 0), 8, "Q", ((1,),) * 4),
    ((2,), 8, "Q", ((1,),) * 4),
)


class Degrees(Workload):
    """`fihom.degrees(V, kmax)` on direct sums of representables M(m).

    The seed orders the basis of every level of every module file, so each
    run computes on other coordinates of the same modules.
    """

    def draw(self):
        files = []
        for ms, N, ring, copies in DEGREE_INPUTS:
            for c, kmaxes in enumerate(copies):
                rng = oracles.seeded("degrees", self.seed, ms, N, ring, c)
                name = "M%s-N%d-%s-%d" % ("+".join(map(str, ms)), N, ring, c)
                path = os.path.join(self.workdir, name + ".fim")
                with open(path, "w") as fh:
                    fh.write(oracles.free_module_text(ms, N, ring, rng, name))
                files.append((path, ms, N, kmaxes))
        self.state["files"] = files

    def load(self, fihom):
        return [fihom.io.parse(path) for path, _, _, _ in self.state["files"]]

    def ops(self, fihom):
        out = []
        for V, (path, ms, N, kmaxes) in zip(self.loaded,
                                            self.state["files"]):
            for kmax in kmaxes:
                out.append(Op("%s k=%d" % (os.path.basename(path), kmax),
                              lambda V=V, k=kmax: fihom.degrees(V, k),
                              lambda prof, ms=ms, N=N, k=kmax:
                                  _check_free_profile(prof, ms, N, k)))
        return out


def _check_free_profile(prof, ms, N, kmax):
    """A free module is FI-acyclic: t_0 is its top generator, t_k none."""
    top = max(ms)
    bad = []
    if sorted(prof.values) != list(range(kmax + 1)):
        bad.append("profile covers %s, not 0..%d" % (sorted(prof.values), kmax))
        return bad
    if prof.values[0] != top or prof.certified[0] != (top < N):
        bad.append("t_0 = %s (certified %s), want %d (certified %s)"
                   % (prof.values[0], prof.certified[0], top, top < N))
    for k in range(1, kmax + 1):
        if prof.values[k] is not None or prof.certified[k]:
            bad.append("t_%d = %s, want none" % (k, prof.values[k]))
    return bad


# ---------------------------------------------------------------------------
# hyper: `fihom hyper FILE --level n` on frozen FI-complexes


HYPER_FILES = ("complex-s2.fic", "complex-s3.fic", "complex-s4.fic",
               "complex-s6.fic")
HYPER_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "data", "hyper")


def _complex_header(text):
    """(q_min, [dims of each module]) read from a ficomplex file's text."""
    q_min, dims = None, []
    for line in text.splitlines():
        if line.startswith("qmin "):
            q_min = int(line.split()[1])
        elif line.startswith("dims "):
            dims.append([int(t) for t in line.split()[1:]])
    return q_min, dims


def _total_sizes(dims, q_min, n):
    """dim T_m of the total complex at level n, from the module dims."""
    sizes = {}
    for t, d in enumerate(dims):
        for p in range(n + 1):
            m = q_min + t + p
            sizes[m] = sizes.get(m, 0) + comb(n, p) * d[n - p]
    return sizes


class Hyper(Workload):
    """Each frozen integral complex, once as Z and once as its Q twin, at
    every level.  The seed orders the ops of a round.
    """

    def draw(self):
        files = []
        for base in HYPER_FILES:
            with open(os.path.join(HYPER_DIR, base)) as fh:
                text = fh.read()
            q_min, dims = _complex_header(text)
            N = len(dims[0]) - 1
            for ring in ("Z", "Q"):
                path = os.path.join(self.workdir, "%s-%s" % (ring, base))
                with open(path, "w") as fh:
                    fh.write(text.replace("ring Z\n", "ring %s\n" % ring))
                files.append((base, ring, path, q_min, dims, N))
        self.state["files"] = files
        order = [(f, n) for f in range(len(files)) for n in range(files[f][5] + 1)]
        oracles.seeded("hyper", self.seed).shuffle(order)
        self.state["order"] = order

    def load(self, fihom):
        return [fihom.io.parse(path) for _, _, path, _, _, _ in self.state["files"]]

    def prepare(self, fihom):
        """dim over F_p of H_m(Tot) for p = 2, 3 and a large prime.

        The differentials come from fihom's total complex; their ranks mod p
        come from the benchmark's own elimination.
        """
        fp = {}
        for (base, ring, _, q_min, dims, N), W in zip(self.state["files"],
                                                     self.loaded):
            if ring != "Z":
                continue
            for n in range(N + 1):
                tot = fihom.complexes.hyper_total_complex(W, n)
                sizes = _total_sizes(dims, q_min, n)
                for p in (2, 3, BIG_PRIME):
                    rk = {m: oracles.rank_mod_p(D.rows, p) for m, D in tot.D.items()}
                    fp[base, n, p] = {m: sizes[m] - rk.get(m, 0) - rk.get(m + 1, 0)
                                      for m in sizes}
        self.state["fp"] = fp

    def ops(self, fihom):
        out = []
        for f, n in self.state["order"]:
            base, ring, path, q_min, dims, N = self.state["files"][f]
            out.append(Op("%s %s level %d" % (base, ring, n),
                          lambda path=path, n=n: _cli(
                              fihom, ["hyper", path, "--level", str(n)]),
                          lambda res, base=base, ring=ring, n=n, q_min=q_min,
                          dims=dims: self._check(res, base, ring, n, q_min, dims)))
        return out

    def _groups(self, res):
        rc, text = res
        return rc, {int(r["m"]): (int(r["rank"]),
                                  tuple(int(t) for t in r["torsion"].split(",") if t))
                    for r in _kv_lines(text)}

    def _check(self, res, base, ring, n, q_min, dims):
        rc, groups = self._groups(res)
        if rc != 0:
            return ["exit code %d" % rc]
        sizes = _total_sizes(dims, q_min, n)
        if sorted(groups) != sorted(sizes):
            return ["degrees %s, want %s" % (sorted(groups), sorted(sizes))]
        bad = []
        chi = sum((-1) ** m * r for m, (r, _) in groups.items())
        want = oracles.total_euler(dims, q_min, n)
        if chi != want:
            bad.append("Euler characteristic %d, want %d" % (chi, want))
        if ring == "Q":
            if any(t for _, t in groups.values()):
                bad.append("torsion over Q")
            return bad
        for p in (2, 3, BIG_PRIME):
            fp = self.state["fp"][base, n, p]
            for m, (r, tors) in groups.items():
                below = groups.get(m - 1, (0, ()))[1]
                got = r + sum(t % p == 0 for t in tors) + sum(t % p == 0 for t in below)
                if got != fp[m]:
                    bad.append("universal coefficients fail at m=%d, p=%d: %d != %d"
                               % (m, p, got, fp[m]))
        return bad

    def end_round(self, results):
        """The Z ranks must equal the ranks of the Q twin."""
        ranks, where = {}, {}
        for i, (f, n) in enumerate(self.state["order"]):
            base, ring = self.state["files"][f][:2]
            res = results[i]
            if res is None:
                continue
            rc, groups = self._groups(res)
            ranks[base, n, ring] = {m: r for m, (r, _) in groups.items()}
            where[base, n, ring] = i
        bad = {}
        for (base, n, ring), rk in ranks.items():
            twin = ranks.get((base, n, "Z"))
            if ring == "Q" and twin is not None and twin != rk:
                bad[where[base, n, ring]] = ["Q ranks %s != Z ranks %s" % (rk, twin)]
        return bad


# ---------------------------------------------------------------------------
# smith: dense Smith form, divisors, determinants and solves


# (kind, rows, cols, planted rank or None for dense [-9, 9])
SMITH_KINDS = (
    ("dense", 12, 12, None),
    ("dense", 14, 14, None),
    ("dense", 16, 16, None),
    ("dense", 12, 16, None),
    ("dense", 16, 12, None),
    ("planted", 12, 12, 12),
    ("planted", 14, 14, 14),
    ("planted", 16, 16, 12),
)
# Each batch holds PER_KIND matrices of every kind, so that one op averages
# over all sizes and the ops of a round take much the same time.
SMITH_BATCHES = 10
PER_KIND = 4

# Fixed inputs, the same in every run: today's dense elimination does not
# finish them in 25 s.  They run in a child process and fail at CAP_S.
CAPPED = (
    ("dense", 40, "snf"),
    ("dense", 40, "elementary_divisors"),
)


def _draw_matrix(kind, nr, nc, rank, rng):
    if kind == "dense":
        return oracles.dense_matrix(rng, nr, nc), None
    return oracles.planted_matrix(rng, nr, rank)


class Smith(Workload):
    """Batches of integer matrices drawn from the seed, plus the capped set."""

    def draw(self):
        batches = []
        for b in range(SMITH_BATCHES):
            mats = []
            for kind, nr, nc, rank in SMITH_KINDS:
                for j in range(b * PER_KIND, (b + 1) * PER_KIND):
                    # matrix j of a kind: consecutive seeds, none skipped
                    rng = oracles.seeded("smith", self.seed, kind, nr, nc, j)
                    m, divisors = _draw_matrix(kind, nr, nc, rank, rng)
                    x0 = oracles.dense_matrix(rng, nc, 2, -3, 3)
                    mats.append({
                        "m": m, "planted": divisors, "rank": _rank(m),
                        "det": oracles.bareiss_det(m) if nr == nc else None,
                        "b": oracles.matmul(m, x0)})
            batches.append(("batch %d" % b, mats))
        self.state["batches"] = batches
        capped = []
        for kind, n, fn in CAPPED:
            m, divisors = _draw_matrix(kind, n, n, n, oracles.seeded("capped", n, 0))
            capped.append((kind, n, fn, {"m": m, "planted": divisors,
                                         "rank": _rank(m),
                                         "det": oracles.bareiss_det(m)}))
        self.state["capped"] = capped

    def load(self, fihom):
        Matrix, ZZ = fihom.Matrix, fihom.ZZ
        batches = [[(Matrix.from_rows(ZZ, d["m"]), Matrix.from_rows(ZZ, d["b"]))
                    for d in mats]
                   for _, mats in self.state["batches"]]
        capped = [Matrix.from_rows(ZZ, d["m"]) for _, _, _, d in self.state["capped"]]
        return batches, capped

    def ops(self, fihom):
        la = fihom.linalg
        out = []
        self._diag = {}
        batches, capped = self.loaded
        for bi, ((label, mats), loaded) in enumerate(zip(self.state["batches"],
                                                         batches)):
            square = [i for i, d in enumerate(mats) if d["det"] is not None]
            out.append(Op(label + " snf",
                          lambda L=loaded: [la.snf(M) for M, _ in L],
                          lambda res, mats=mats, bi=bi: self._check_snf(
                              [_snf_rows(r) for r in res], mats, bi)))
            out.append(Op(label + " elementary_divisors",
                          lambda L=loaded: [la.elementary_divisors(M) for M, _ in L],
                          lambda res, mats=mats, bi=bi: self._check_ed(res, mats, bi)))
            out.append(Op(label + " det",
                          lambda L=[loaded[i] for i in square]: [la.det(M) for M, _ in L],
                          lambda res, mats=[mats[i] for i in square]: [
                              "det %d != Bareiss %d" % (got, d["det"])
                              for got, d in zip(res, mats) if got != d["det"]]))
            out.append(Op(label + " solve_matrix",
                          lambda L=loaded: [la.solve_matrix(M, B) for M, B in L],
                          lambda res, mats=mats: _check_solve(res, mats)))
        for (kind, n, fn, d), M in zip(self.state["capped"], capped):
            key = ("capped", kind, n)
            if fn == "snf":
                run = lambda M=M: _snf_rows(la.snf(M))
                check = lambda res, d=d, key=key: self._check_snf([res], [d], key)
            else:
                run = lambda M=M: la.elementary_divisors(M)
                check = lambda res, d=d, key=key: self._check_ed([res], [d], key)
            out.append(Op("capped %s %dx%d %s" % (kind, n, n, fn), run, check,
                          in_child=True))
        return out

    def _check_snf(self, results, mats, key):
        bad = []
        diags = []
        for (s, u, v, ui, vi), d in zip(results, mats):
            bad += oracles.smith_checks(d["m"], s, u, v, ui, vi)
            diag = [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]
            nz = [x for x in diag if x]
            diags.append(nz)
            bad += _divisor_checks(nz, d)
        self._diag[key] = diags
        return bad

    def _check_ed(self, results, mats, key):
        bad = []
        snf_diags = self._diag.get(key)
        for i, (divs, d) in enumerate(zip(results, mats)):
            divs = list(divs)
            if snf_diags is not None and divs != snf_diags[i]:
                bad.append("elementary divisors %s != Smith diagonal %s"
                           % (divs, snf_diags[i]))
            bad += _divisor_checks(divs, d)
        return bad


def _rank(m):
    """Rank over a large prime field: the rational rank for these inputs."""
    return oracles.rank_mod_p([{j: v for j, v in enumerate(r) if v} for r in m],
                              BIG_PRIME)


def _snf_rows(res):
    return tuple(m.to_rows() for m in (res.S, res.U, res.V, res.U_inv, res.V_inv))


def _divisor_checks(divs, d):
    bad = []
    if len(divs) != d["rank"]:
        bad.append("%d divisors for rank %d" % (len(divs), d["rank"]))
    if d["planted"] is not None and divs != d["planted"]:
        bad.append("divisors %s != planted %s" % (divs, d["planted"]))
    if d["det"] is not None:
        n = len(d["m"])
        if d["det"] and (len(divs) != n or prod(divs) != abs(d["det"])):
            bad.append("product of divisors != |det| = %d" % abs(d["det"]))
        if not d["det"] and len(divs) == n:
            bad.append("full set of divisors of a singular matrix")
    return bad


def _check_solve(results, mats):
    bad = []
    for X, d in zip(results, mats):
        if X is None:
            bad.append("consistent system reported unsolvable")
        elif oracles.matmul(d["m"], X.to_rows()) != d["b"]:
            bad.append("A X != B")
    return bad


# ---------------------------------------------------------------------------
# battery: `fihom verify --suite NAME --seed s`


SUITE_NAMES = ("bounds", "colim", "degrees", "ganli", "homology",
               "partitions", "shift")
# A fixed pool: one verify seed's work varies by about 15% between seeds and
# a run holds only seven, so drawing them from the benchmark seed would make
# runs unlike each other.  The benchmark seed orders the ops instead.
VERIFY_SEEDS = (0, 1, 2, 3, 4, 5, 6)


class Battery(Workload):
    """All seven verify suites at seven seeds, in an order drawn from the seed."""

    def draw(self):
        order = [(s, v) for v in VERIFY_SEEDS for s in SUITE_NAMES]
        oracles.seeded("battery", self.seed).shuffle(order)
        self.state["order"] = order

    def ops(self, fihom):
        return [Op("verify %s seed %d" % (suite, v),
                   lambda suite=suite, v=v: _cli(
                       fihom, ["verify", "--suite", suite, "--seed", str(v),
                               "--dump-dir", self.workdir]),
                   _check_verify)
                for suite, v in self.state["order"]]


def _check_verify(res):
    rc, text = res
    rec = {}
    for r in _kv_lines(text):
        rec.update(r)
    bad = []
    if rc != 0:
        bad.append("exit code %d" % rc)
    if rec.get("result") != "pass" or rec.get("failures") != "0":
        bad.append("suite reports %s with %s failures"
                   % (rec.get("result"), rec.get("failures")))
    if int(rec.get("checks", 0)) <= 0:
        bad.append("no checks ran")
    return bad


WORKLOADS = {"degrees": Degrees, "hyper": Hyper, "smith": Smith,
             "battery": Battery}
