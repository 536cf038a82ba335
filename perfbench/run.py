"""Seeded solve benchmark for cd3csp.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sat-mix --seed 1 --seconds 50 --trace 0

Single process, single thread, closed loop: the corpus is generated from
the seed and written through ``cd3csp.fileio`` by one import of the
package, read back by a second, fresh import, and then ``solve`` of that
second copy decides one instance after another for ``--seconds`` of
wall time.  Each verdict is checked right after its solve,
outside the timed region, by the first copy: a SAT answer must satisfy
the generated instance, and every verdict must agree with
``brute_force_solve``.  Keeping generation and checking in their own copy
means nothing they compute can be reused by a timed solve.

``--trace 0`` solves the corpus ROUNDS times, each round with a fresh
import, and reports the end-to-end metrics from each instance's fastest
solve (see timed_rounds).  ``--trace 1`` first solves for half the time
untraced, then imports the package afresh, reads the same instances
again and solves them with spans around the public functions of the
solver's layers (see spans.py), and reports per-layer metrics plus the
tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 1 when any verdict is wrong or any solve raised, and 2 when
the checkout has no ``src/cd3csp`` to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from collections import namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import corpus  # noqa: E402
from spans import SETUP_SPANNED, Tracer  # noqa: E402

# Instances drawn per set-up, per corpus extension and per read of
# files.  Generation cost varies a lot from one instance to the next, so
# set-up draws enough of them for setup_s to move little from seed to
# seed.
CHUNK = 64
# The tail percentile keeps this many samples above it.  With 10, five
# seeds of sat-mix spread 0.29 (interquartile range over median); with
# 25, 0.18.
TAIL_BEYOND = 25
# Untraced runs solve each instance this many times, once per round, with
# the rounds spread evenly over the run, and keep its fastest solve.  The
# host's speed drifts: on a 2-vCPU VM the same instances solved 1.6 times
# slower for stretches of 5 to 40 s, switching back and forth between a
# fast and a slow state.  With five rounds, some round of each instance
# usually lands in a fast stretch, so the fastest of five solves measures
# the code more than the drift.  A set-up runs before each round, so that
# setup_s, their median, also samples the machine across the whole run.
ROUNDS = 5
WORK_DIR_PREFIX = ".perfbench-"
OUT_DIR = ".perfbench-out"


# one attempted solve; verdict is "ok", "wrong" or "raised"
Record = namedtuple("Record", "index seconds outcome error verdict")


def fresh_package():
    """Drop every loaded cd3csp module and import the package anew.

    Each copy has its own modules and classes, so no object, and no cache
    kept on one, is shared between copies.
    """
    for name in [m for m in sys.modules if m == "cd3csp" or m.startswith("cd3csp.")]:
        del sys.modules[name]
    import cd3csp

    return cd3csp


class Corpus:
    """The generated instances and the files fileio wrote them to.

    A corpus imports its own copy of the package, ``pkg``, and draws,
    writes and checks with it.  Solves use other copies, which read the
    files back (see Inputs), so nothing that generating or checking
    computes can be reused by a timed solve.  ``ensure`` extends the
    corpus a chunk at a time, outside any timed region.  ``oracle_s``
    adds up the time generation spent in the exhaustive oracle.
    """

    def __init__(self, workload, seed, work_dir):
        self.workload, self.seed, self.work_dir = workload, seed, work_dir
        self.pkg = fresh_package()
        self.generated, self.paths = [], []
        self.oracle_s = 0.0

    def oracle(self, inst):
        start = time.perf_counter()
        sat = self.pkg.brute_force_solve(inst).sat
        self.oracle_s += time.perf_counter() - start
        return sat

    def ensure(self, count):
        while len(self.generated) < count:
            start = len(self.generated)
            fresh = corpus.draw(self.pkg, self.workload, self.seed, start, CHUNK, self.oracle)
            self.generated += fresh
            self.paths += corpus.write(self.pkg, fresh, self.work_dir, start)


class Inputs:
    """What solve receives: the corpus files read back by one package copy.

    ``load`` reads the files up to an index, a chunk at a time, extending
    the corpus first if needed; ``release`` drops an instance once it is
    solved and checked.  So a round holds at most a chunk of unsolved
    instances, however many it gets through.
    """

    def __init__(self, c, pkg):
        self.c, self.pkg, self.items = c, pkg, []

    def load(self, count):
        if len(self.items) >= count:
            return
        end = -(-count // CHUNK) * CHUNK
        self.c.ensure(end)
        self.items += [self.pkg.read_instance(p) for p in self.c.paths[len(self.items):end]]
        # collect what earlier chunks and rounds left behind, so that no
        # solve pays for it
        gc.collect()

    def release(self, i):
        self.items[i] = self.c.generated[i] = None


def set_up(workload, seed, work_dir, tracer=None):
    """Draw the first chunk and write it with one package copy, then
    import the copy that solves and read the chunk back with it.

    Returns (seconds, inputs); the seconds leave out oracle time.  With a
    tracer, the generator and fileio functions of both copies are spanned
    for the duration.
    """
    start = time.perf_counter()
    c = Corpus(workload, seed, work_dir)
    with _setup_spans(tracer, c.pkg):
        c.ensure(CHUNK)
    inputs = Inputs(c, fresh_package())
    with _setup_spans(tracer, inputs.pkg):
        inputs.load(CHUNK)
    return time.perf_counter() - start - c.oracle_s, inputs


def _setup_spans(tracer, pkg):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.install(pkg, targets=SETUP_SPANNED, counted=(), count_relations=False)


def solve_loop(inputs, seconds=None, count=None, tracer=None, release=False, check=None, repeats=0):
    """Solve corpus instances in order, one after another.

    Stops once ``seconds`` of wall time have passed, or after ``count``
    instances.  With ``repeats``, the caller will solve the same instances
    that many more times, so the loop stops once the time it has used
    plus ``repeats`` times its solve time so far reaches ``seconds``.
    Each verdict is checked right after its solve, outside the timed
    region: by default with ``verdict`` and the corpus's own package copy,
    otherwise with ``check(index, outcome, error)``.  With ``release``,
    the instance is then dropped, so that memory does not grow with the
    number of instances a run gets through and peak_rss_mb measures the
    solver, not the corpus.  Returns one Record per attempted instance.
    """
    c = inputs.c
    if check is None:
        def check(i, out, err):
            return verdict(c.pkg, c.generated[i], out, err)
    records = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    clock = time.perf_counter
    i = 0
    spent = 0.0
    while True:
        if count is not None and i >= count:
            break
        if deadline is not None and clock() + repeats * spent >= deadline:
            break
        inputs.load(i + 1)
        inst = inputs.items[i]
        if tracer is not None:
            tracer.instance = i
        # look solve up on each call so a tracer's wrapper is used
        solve = inputs.pkg.solver.solve
        start = clock()
        try:
            out, err = solve(inst), None
        except Exception as e:  # a raising solve is a counted failure
            out, err = None, f"{type(e).__name__}: {e}"
        elapsed = clock() - start
        spent += elapsed
        if tracer is not None:
            tracer.instance = None
        records.append(Record(i, elapsed, out, err, check(i, out, err)))
        if release:
            inputs.release(i)
        i += 1
    return records


def timed_rounds(c, seconds, before_round):
    """Solve the corpus ROUNDS times; return one Record per instance.

    The first round solves instances in order, putting each verdict
    through the gate, until what it has used plus ``ROUNDS - 1`` times its
    solve time fills ``seconds`` of wall time.  Every later round imports
    a fresh package copy, reads the same files back with it and solves
    them again in the same order, so no round reuses anything an earlier
    one computed, and the rounds are spread evenly over the run.  A later
    round's outcome must equal the first round's, field by field, or the
    instance fails.  ``before_round()`` runs before each later round,
    outside the time the first round budgets for.  Each returned Record
    has the instance's fastest solve time, the first round's outcome, the
    first error and the worst verdict.  Also returns the solve times of
    each round, for the report.
    """
    first = solve_loop(
        Inputs(c, fresh_package()), seconds=seconds, release=True, repeats=ROUNDS - 1
    )
    expected = [_fields(r.outcome) for r in first]

    def same_as_first(i, out, err):
        if err is not None:
            return "raised"
        return "ok" if _fields(out) == expected[i] else "wrong"

    rounds = [[r.seconds for r in first]]
    best = list(first)
    for _ in range(ROUNDS - 1):
        before_round()
        again = solve_loop(
            Inputs(c, fresh_package()), count=len(first), release=True, check=same_as_first
        )
        rounds.append([r.seconds for r in again])
        for i, r in enumerate(again):
            b = best[i]
            best[i] = b._replace(
                seconds=min(b.seconds, r.seconds),
                error=b.error or r.error,
                verdict=b.verdict if r.verdict == "ok" else r.verdict,
            )
    return best, rounds


def traced_pass(c, count, tracer):
    """Solve the first ``count`` corpus instances with spans.

    The files are read into a fresh package copy before the tracer is
    installed on it, so the traced pass starts as cold as an untraced one.
    """
    inputs = Inputs(c, fresh_package())
    inputs.load(count)
    with tracer.install(inputs.pkg):
        return solve_loop(inputs, count=count, tracer=tracer)


def verdict(pkg, inst, out, err):
    """Verdict gate for one solve of the generated (not read back)
    instance, checked with the package copy ``pkg``: "ok", "wrong" or
    "raised"."""
    if err is not None:
        return "raised"
    if out.sat and not pkg.satisfies(inst, out.solution):
        return "wrong"
    if out.sat != pkg.brute_force_solve(inst).sat:
        return "wrong"
    return "ok"


def failures(records, kind):
    """Indices of the records whose verdict is ``kind``."""
    return [r.index for r in records if r.verdict == kind]


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    if n <= TAIL_BEYOND:
        return None
    return int(100 * (n - TAIL_BEYOND) / n)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-q * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def end_to_end(records, setup_times, failed):
    """All seven end-to-end metrics, and the tail percentile used."""
    times = sorted(r.seconds for r in records if r.error is None)
    n = len(records)
    decided = len(times)
    q = tail_percentile(decided)
    fallback = sum(1 for r in records if r.error is None and r.outcome.fallback)
    metrics = {
        "solve_s.p50": (statistics.median(times) if times else 0.0, "s"),
        # with too few samples for a tail percentile, the maximum stands in
        "solve_s.tail": (percentile(times, q) if q else max(times, default=0.0), "s"),
        "decided_per_s": (decided / sum(times) if times else 0.0, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_frac": (failed / n, "ratio"),
        "fallback_frac": (fallback / n, "ratio"),
    }
    return metrics, q


def per_layer(tracer, records, untraced_records):
    """Per-layer metrics from one traced pass over the solved instances."""
    rows = tracer.summary()

    def row(name):
        return rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    m = {}
    for name in ("solver.solve", "solver.reduce_to_ideal", "solver.quotient_reduce", "solver.pullback"):
        m[f"{name}.calls"] = (row(name)["calls"], "count")
        m[f"{name}.self_s"] = (row(name)["self_s"], "s")
    m["solver.base_case_solve.s"] = (row("solver.base_case_solve")["s"], "s")

    kmin = tracer.results["consistency.k_minimalize"]
    first = {}
    for inst, sid, _ in kmin:
        first.setdefault(inst, sid)
    spans = tracer.spans
    m["consistency.k_minimalize.calls"] = (row("consistency.k_minimalize")["calls"], "count")
    m["consistency.k_minimalize.s"] = (row("consistency.k_minimalize")["s"], "s")
    m["consistency.k_minimalize.first_s"] = (
        sum(spans[sid][3] - spans[sid][2] for sid in first.values()),
        "s",
    )
    m["consistency.k_minimalize.entries"] = (sum(r["entries"] for *_, r in kmin), "count")
    m["consistency.k_minimalize.tuples"] = (sum(r["tuples"] for *_, r in kmin), "count")
    m["consistency.k_minimalize.empty_frac"] = (
        sum(r["empty"] for *_, r in kmin) / len(kmin) if kmin else 0.0,
        "ratio",
    )
    m["consistency.make_subdirect.s"] = (row("consistency.make_subdirect")["s"], "s")
    m["consistency.effective_instance.s"] = (row("consistency.effective_instance")["s"], "s")

    for name in ("build_lambda_J", "reduce_constraint_RJ", "classify_binary", "some_proper_ideal", "is_jonsson_trivial"):
        m[f"jonsson.{name}.calls"] = (row(f"jonsson.{name}")["calls"], "count")
        m[f"jonsson.{name}.s"] = (row(f"jonsson.{name}")["s"], "s")
    m["jonsson.build_lambda_J.level_sets"] = (
        sum(r["level_sets"] for *_, r in tracer.results["jonsson.build_lambda_J"]),
        "count",
    )

    for name in ("check_cd3", "is_simple"):
        m[f"algebra.{name}.calls"] = (row(f"algebra.{name}")["calls"], "count")
        m[f"algebra.{name}.s"] = (row(f"algebra.{name}")["s"], "s")
    for name in ("maximal_proper_congruence", "quotient", "restrict"):
        m[f"algebra.{name}.s"] = (row(f"algebra.{name}")["s"], "s")

    for name in ("validate_invariance", "is_invariant"):
        m[f"relation.{name}.calls"] = (row(f"relation.{name}")["calls"], "count")
        m[f"relation.{name}.s"] = (row(f"relation.{name}")["s"], "s")
    m["relation.satisfies.s"] = (row("relation.satisfies")["s"], "s")
    m["relation.project.calls"] = (tracer.counts["relation.project"], "count")
    m["relation.Relation.constructions"] = (tracer.counts["relation.Relation.constructions"], "count")

    for name in ("generators.gen_cd3_algebra", "generators.gen_instance", "fileio.read_instance"):
        m[f"{name}.s"] = (row(name)["s"], "s")

    # path census over the traced instances
    n = len(records)
    with_span = {}
    for span in tracer.closed_spans():
        with_span.setdefault(span[1], set()).add(span[5])
    ok = [r.outcome for r in records if r.error is None]
    m["census.instances"] = (n, "count")
    m["census.sat"] = (sum(1 for o in ok if o.sat), "count")
    m["census.unsat"] = (sum(1 for o in ok if not o.sat), "count")
    for key, span_name in (("ideal_frac", "solver.reduce_to_ideal"), ("quotient_frac", "solver.quotient_reduce")):
        hit = with_span.get(span_name, set()) - {None}
        m[f"census.{key}"] = (len(hit) / n if n else 0.0, "ratio")
    m["census.fallback_frac"] = (sum(1 for o in ok if o.fallback) / n if n else 0.0, "ratio")

    traced_s = sum(r.seconds for r in records if r.error is None)
    plain_s = sum(r.seconds for r in untraced_records if r.error is None)
    decided = len(ok)
    m["trace.decided_per_s.untraced"] = (decided / plain_s if plain_s else 0.0, "1/s")
    m["trace.decided_per_s.traced"] = (decided / traced_s if traced_s else 0.0, "1/s")
    m["trace.overhead_frac"] = (traced_s / plain_s - 1 if plain_s else 0.0, "ratio")
    return m


def _fields(outcome):
    # outcomes of two package copies are of different classes, so they are
    # compared field by field
    return None if outcome is None else (outcome.solution, outcome.certificate, outcome.fallback)


def differing_outcomes(a, b):
    """Indices whose outcomes differ between two passes over one corpus."""
    return [
        ra.index
        for ra, rb in zip(a, b)
        if (ra.error is None) != (rb.error is None) or _fields(ra.outcome) != _fields(rb.outcome)
    ]


def _fmt(value):
    return repr(round(value, 6)) if isinstance(value, float) else str(value)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cd3csp", "__init__.py")):
        print(f"perfbench: no src/cd3csp under {root}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    with tempfile.TemporaryDirectory(prefix=WORK_DIR_PREFIX, dir=root) as work_dir:
        if args.trace:
            return _traced(args, root, work_dir)
        return _untraced(args, work_dir)


def _untraced(args, work_dir):
    setup_times = []

    def set_up_again():
        # a throw-away set-up in a directory of its own, timed like the first
        with tempfile.TemporaryDirectory(dir=work_dir) as d:
            setup_times.append(set_up(args.workload, args.seed, d)[0])

    t, inputs = set_up(args.workload, args.seed, work_dir)
    setup_times.append(t)
    records, rounds = timed_rounds(inputs.c, args.seconds, before_round=set_up_again)
    wrong, raised = failures(records, "wrong"), failures(records, "raised")
    n = len(records)
    failed = len(set(wrong) | set(raised))
    metrics, q = end_to_end(records, setup_times, failed)

    sat = sum(1 for r in records if r.error is None and r.outcome.sat)
    print(f"workload {args.workload} seed {args.seed}: {n} instances attempted, "
          f"{sat} SAT, {n - sat - len(raised)} UNSAT, {len(raised)} raised")
    print(f"solve_s.tail is p{q} over {n - len(raised)} decided instances" if q
          else f"solve_s.tail undefined: only {n - len(raised)} decided instances")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {_fmt(value):>12} {unit}")
    by_path = {}
    for r in records:
        if r.error is None:
            by_path.setdefault(corpus.path_of(args.workload, r.index), []).append(r.seconds)
    for path, times in sorted(by_path.items()):
        print(f"  path {path}: {len(times)} decided, median {statistics.median(times):.6f} s")
    per_round = " ".join(f"{statistics.median(t):.6f}" for t in rounds)
    print(f"  median solve per round: {per_round} s")
    _report_failures(wrong, records)

    reported = ("solve_s.p50", "solve_s.tail", "decided_per_s", "setup_s", "peak_rss_mb")
    _emit(n, failed, {k: metrics[k] for k in reported})
    return 0 if failed == 0 else 1


def _traced(args, root, work_dir):
    tracer = Tracer()
    _, inputs = set_up(args.workload, args.seed, work_dir, tracer=tracer)
    untraced = solve_loop(inputs, seconds=args.seconds / 2)
    traced = traced_pass(inputs.c, len(untraced), tracer)
    wrong, raised = failures(traced, "wrong"), failures(traced, "raised")
    differ = differing_outcomes(untraced, traced)
    metrics = per_layer(tracer, traced, untraced)

    spans_out = os.path.join(root, OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    os.makedirs(os.path.dirname(spans_out), exist_ok=True)
    tracer.write(spans_out)

    n = len(traced)
    print(f"workload {args.workload} seed {args.seed}: {n} instances traced, "
          f"{len(tracer.closed_spans())} spans written to {os.path.relpath(spans_out, root)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {_fmt(value):>12} {unit}")
    if differ:
        print(f"traced and untraced outcomes differ on instances {differ}")
    _report_failures(wrong, traced)

    failed = len(set(wrong) | set(raised) | set(differ))
    _emit(n, failed, metrics)
    return 0 if failed == 0 else 1


def _report_failures(wrong, records):
    if wrong:
        print(f"WRONG VERDICT on instances {wrong}")
    for r in records:
        if r.verdict == "raised":
            print(f"RAISED on instance {r.index}: {r.error}")


def _emit(attempted, failed, metrics):
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
