"""Benchmark of fihom: one workload per run, end to end or traced by layer.

    python3 bench/run.py --workload degrees --seed 1 --seconds 25 --trace 0

Run from the root of a fihom checkout; the program is imported from its
`src/`.  One process, one thread, one op after another (a closed loop).
A round is the workload's fixed list of ops; rounds repeat until the next
one would end after `--seconds`, and at least one runs.  Every answer is
checked outside the timed region.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  See README.md in this directory for what each one means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import select
import shutil
import signal
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
# set-up runs at least SETUP_MIN times, and more while they take under
# SETUP_BUDGET_S in all, up to SETUP_MAX; setup_s is their median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.0

sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on the path)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def import_fihom():
    """Import fihom afresh from the checkout's src/ (a cold import each time)."""
    for name in [m for m in sys.modules if m == "fihom" or m.startswith("fihom.")]:
        del sys.modules[name]
    import fihom
    import fihom.cli  # noqa: F401  (the package does not import cli)
    if not os.path.abspath(fihom.__file__).startswith(SRC + os.sep):
        raise ImportError("fihom imported from %s, not from %s" % (fihom.__file__, SRC))
    return fihom


def run_in_child(fn, cap):
    """(result, ok) of fn() in a forked child stopped at `cap` seconds.

    A fork, not a spawn: the child needs the loaded inputs, and a spawned
    interpreter would spend the cap importing.  The process has no threads.
    The child's memory never counts in this process's peak RSS.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 1
        try:
            os.close(rfd)
            data = pickle.dumps(fn())
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    deadline = perf_counter() + cap
    chunks, ended = [], False
    try:
        while True:
            left = deadline - perf_counter()
            if left <= 0 or not select.select([rfd], [], [], left)[0]:
                break
            chunk = os.read(rfd, 1 << 20)
            if not chunk:
                ended = True
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        if not ended:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if ended and os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0:
        return pickle.loads(b"".join(chunks)), True  # bytes from our own child
    return None, False


class Runner:
    """Runs rounds of one workload's ops and keeps their times and faults."""

    def __init__(self, wl, ops):
        self.wl = wl
        self.ops = ops
        self.rounds = []        # per round: list of op seconds
        self.attempted = 0
        self.failed = 0
        self.wrong = []         # problems found in answers of ops that ran
        self.errors = []        # exceptions raised by the program

    def one_round(self):
        times, results = [], []
        failed_here = set()
        for i, op in enumerate(self.ops):
            res, ok = None, True
            if op.in_child:
                t0 = perf_counter()
                res, ok = run_in_child(op.run, workloads.CAP_S)
                dt = perf_counter() - t0
            else:
                signal.setitimer(signal.ITIMER_REAL, workloads.SAFETY_CAP_S)
                t0 = perf_counter()
                try:
                    res = op.run()
                except OpTimeout:
                    ok = False
                except Exception:  # the program failed this op; keep going
                    ok = False
                    self.errors.append("%s: %s" % (op.name, traceback.format_exc(limit=3)))
                finally:
                    dt = perf_counter() - t0
                    signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(dt)
            if ok:
                try:
                    bad = op.check(res)
                except Exception:  # an answer the check cannot read is wrong
                    bad = [traceback.format_exc(limit=3)]
                if bad:
                    ok = False
                    self.wrong.append("%s: %s" % (op.name, "; ".join(bad[:3])))
            if not ok:
                failed_here.add(i)
                res = None
            results.append(res)
        for i, bad in self.wl.end_round(results).items():
            self.wrong.append("%s: %s" % (self.ops[i].name, "; ".join(bad[:3])))
            failed_here.add(i)
        self.rounds.append(times)
        self.attempted += len(self.ops)
        self.failed += len(failed_here)

    def run_until(self, t_end):
        """Rounds until the next one would end after t_end (at least one)."""
        n = 0
        while True:
            t0 = perf_counter()
            self.one_round()
            n += 1
            took = perf_counter() - t0
            if perf_counter() + took > t_end:
                return n



def position_medians(rounds):
    """Per op of the round, its median time over the given rounds."""
    return [statistics.median(col) for col in zip(*rounds)]


def end_to_end(runner, setup_times):
    med = position_medians(runner.rounds)
    ranked = sorted(med)
    return {
        "wall_s": (sum(med), "s"),
        "op_s.p50": (statistics.median(med), "s"),
        # the highest percentile with at least ten ops of the round above it
        "op_s.tail": (ranked[len(ranked) - 11], "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# per-layer time metrics: name -> the spans whose outermost calls it sums
SPAN_GROUPS = {
    "io.parse": ("io.parse", "io.parse_module", "io.parse_complex"),
    "linalg.build": ("linalg.Matrix.from_rows", "linalg.Matrix.from_flat",
                     "linalg.Matrix.from_sparse"),
    "fimodule.validate": ("fimodule.validate", "fimodule.validate_morphism"),
    "homology.cube": ("homology.fih_chain_complex",),
    "linalg.matmul": ("linalg.Matrix.__matmul__",),
    "linalg.rank": ("linalg.rank",),
    "linalg.homology_class": ("linalg.homology_class",),
    "linalg.ed": ("linalg.elementary_divisors",),
    "linalg.snf": ("linalg.snf",),
    "linalg.det": ("linalg.det",),
    "linalg.solve": ("linalg.solve_matrix",),
    "linalg.rref": ("linalg.rref",),
    "linalg.quotient": ("linalg.QuotientCoords.__init__",
                        "linalg.QuotientCoords.kernel_vector",
                        "linalg.QuotientCoords.reduce",
                        "linalg.QuotientCoords.rep",
                        "linalg.QuotientCoords.rep_matrix",
                        "linalg.QuotientCoords.induced"),
    "fimodule.fi_coker": ("fimodule.fi_coker",),
    "complexes.levelwise": ("complexes.levelwise_homology_module",),
    "complexes.total": ("complexes.hyper_total_complex",),
}
SECONDS = ("io.parse", "linalg.build", "fimodule.validate", "homology.cube",
           "linalg.matmul", "linalg.rank", "linalg.ed", "linalg.snf",
           "linalg.det", "linalg.solve", "linalg.rref", "linalg.quotient",
           "fimodule.fi_coker", "complexes.levelwise", "complexes.total")
CALLS = ("homology.cube", "linalg.matmul", "linalg.rank",
         "linalg.homology_class", "linalg.ed", "linalg.snf", "linalg.rref",
         "fimodule.fi_coker")
# (metric, span, count key, unit): a count recorded at the span, summed
COUNTED = (
    ("io.bytes", "io.parse", "bytes", "bytes"),
    ("homology.cube_cells", "homology.fih_chain_complex", "cells", "count"),
    ("homology.cube_nnz", "homology.fih_chain_complex", "nnz", "count"),
    ("linalg.rank_nnz", "linalg.rank", "nnz", "count"),
    ("complexes.total_cells", "complexes.hyper_total_complex", "cells", "count"),
    ("verify.checks", "verify.run_suite", "checks", "count"),
)


def per_layer(tracer, split, rounds, overhead):
    """Per-layer figures of one set-up plus one round.

    Spans before index `split` belong to the traced set-up and count once;
    the spans of the `rounds` traced rounds count 1/rounds each.
    """
    def weight(i):
        return 1.0 if i < split else 1.0 / rounds

    out = {}
    for key in SECONDS:
        out[key + "_s"] = (tracer.inclusive(SPAN_GROUPS[key], weight)[0], "s")
    for key in CALLS:
        out[key + "_calls"] = (tracer.inclusive(SPAN_GROUPS[key], weight)[1], "count")
    for metric, span, key, unit in COUNTED:
        out[metric] = (tracer.count(span, key, weight), unit)
    out["linalg.snf_max_bits"] = (tracer.count_max("linalg.snf", "bits"), "bits")
    for layer, secs in tracer.self_times(weight).items():
        out[layer + ".self_s"] = (secs, "s")
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="fihom benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fihom", "__init__.py")):
        print("bench: no fihom sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["FIHOM_FORMAT"] = "kv"   # the CLI ops are read as key=value
    signal.signal(signal.SIGALRM, _alarm)
    workdir = os.path.join(HERE, "work", "%s-%d-%d" % (args.workload, args.seed,
                                                       os.getpid()))
    os.makedirs(workdir)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir):
    wl = workloads.WORKLOADS[args.workload](args.workload, args.seed, workdir)
    wl.draw()
    setup_times = []
    while len(setup_times) < SETUP_MIN or (
            len(setup_times) < SETUP_MAX and sum(setup_times) < SETUP_BUDGET_S):
        wl.loaded = None
        gc.collect()
        t0 = perf_counter()
        fihom = import_fihom()
        wl.loaded = wl.load(fihom)
        setup_times.append(perf_counter() - t0)
    wl.prepare(fihom)
    ops = wl.ops(fihom)
    start = perf_counter()
    runner = Runner(wl, ops)
    if not args.trace:
        runner.run_until(start + args.seconds)
        metrics = end_to_end(runner, setup_times)
    else:
        # untraced rounds first, for the overhead; then set-up and rounds traced
        import spans
        runner.run_until(start + args.seconds / 3)
        untraced = sum(position_medians(runner.rounds))
        n_untraced = len(runner.rounds)
        tracer = spans.Tracer()
        tracer.install(fihom)
        wl.loaded = None
        gc.collect()
        wl.loaded = wl.load(fihom)
        split = len(tracer.spans)
        runner.ops = wl.ops(fihom)
        traced_rounds = runner.run_until(start + args.seconds)
        tracer.uninstall()
        traced = sum(position_medians(runner.rounds[n_untraced:]))
        metrics = per_layer(tracer, split, traced_rounds, traced - untraced)
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(RESULTS, "trace-%s-seed%d.tsv"
                                  % (args.workload, args.seed)))
    for w in runner.wrong[:10]:
        print("wrong answer: %s" % w, file=sys.stderr)
    for e in runner.errors[:3]:
        print("op failed: %s" % e, file=sys.stderr)
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        ops = position_medians(runner.rounds)
        json.dump(dict(result, rounds=len(runner.rounds), op_seconds={
            op.name: t for op, t in zip(runner.ops, ops)}), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
