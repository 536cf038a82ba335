"""Self-tests for the benchmark harness.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench

They check that a seed fixes the corpus, that solves never share a
package copy with generation, that tracing changes no outcome and
restores every binding, that traced counts repeat exactly, that the
verdict gate catches wrong answers, that untraced runs keep each
instance's fastest round, and that the command's output keeps
to the metric names in BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
import run  # noqa: E402
from spans import Tracer, _package_modules  # noqa: E402

SMALL = {"sat-mix": 4, "unsat-prop": 3}


def _inputs(workload, tmp_path, seed=7):
    c = run.Corpus(workload, seed, str(tmp_path))
    inputs = run.Inputs(c, run.fresh_package())
    inputs.load(SMALL[workload])
    return inputs


def _bindings(pkg):
    out = {}
    for mod in _package_modules(pkg):
        for attr, val in vars(mod).items():
            if callable(val):
                out[(mod.__name__, attr)] = val
    out[("Relation", "__post_init__")] = pkg.relation.Relation.__post_init__
    return out


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_gives_identical_corpus(workload):
    pkg = run.fresh_package()

    def oracle(inst):
        return pkg.brute_force_solve(inst).sat

    def objs(instances):
        return [pkg.fileio.instance_to_obj(x) for x in instances]

    a = corpus.draw(pkg, workload, 3, 0, 3, oracle)
    b = corpus.draw(pkg, workload, 3, 0, 3, oracle)
    other = corpus.draw(pkg, workload, 4, 0, 3, oracle)
    assert objs(a) == objs(b)
    assert objs(a) != objs(other)
    # extending a chunk later gives the same instances as drawing them at once
    assert objs(corpus.draw(pkg, workload, 3, 2, 1, oracle)) == objs(a[2:])


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_solves_read_the_corpus_into_their_own_package_copy(workload, tmp_path):
    inputs = _inputs(workload, tmp_path)
    c = inputs.c
    assert inputs.pkg is not c.pkg
    assert inputs.pkg.Instance is not c.pkg.Instance
    assert all(type(x) is inputs.pkg.Instance for x in inputs.items)
    generated = [c.pkg.fileio.instance_to_obj(x) for x in c.generated]
    read_back = [inputs.pkg.fileio.instance_to_obj(x) for x in inputs.items]
    assert read_back == generated
    assert sorted(os.listdir(tmp_path)) == [os.path.basename(p) for p in c.paths]


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_tracing_keeps_outcomes_and_restores_bindings(workload, tmp_path):
    inputs = _inputs(workload, tmp_path)
    pkg = inputs.pkg
    n = SMALL[workload]
    before = _bindings(pkg)
    plain = run.solve_loop(inputs, count=n)
    with Tracer().install(pkg) as tracer:
        assert pkg.solver.solve is not before[("cd3csp.solver", "solve")]
        assert pkg.solver.k_minimalize is not before[("cd3csp.solver", "k_minimalize")]
        traced = run.solve_loop(inputs, count=n, tracer=tracer)
    assert _bindings(pkg) == before
    assert run.differing_outcomes(plain, traced) == []
    assert [r.outcome for r in plain] == [r.outcome for r in traced]
    assert all(r.verdict == "ok" for r in plain + traced)
    # every span closed, and every solve span belongs to an instance
    spans = tracer.closed_spans()
    assert len(spans) == len(tracer.spans)
    assert all(s[5] is not None for s in spans if s[1] == "solver.solve")


def test_traced_counts_repeat_exactly(tmp_path):
    c = run.Corpus("sat-mix", 7, str(tmp_path))
    counts = []
    for _ in range(2):
        plain = run.solve_loop(run.Inputs(c, run.fresh_package()), count=2)
        tracer = Tracer()
        traced = run.traced_pass(c, 2, tracer)
        assert run.differing_outcomes(plain, traced) == []
        metrics = run.per_layer(tracer, traced, plain)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["solver.solve.calls"] >= 2
    assert counts[0]["relation.Relation.constructions"] > 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        (0, "outer", 0.0, 10.0, None, 0),
        (1, "inner", 1.0, 4.0, 0, 0),
        (2, "inner", 5.0, 6.0, 0, 0),
        (3, "leaf", 2.0, 3.0, 1, 0),
    ]
    rows = tracer.summary()
    assert rows["outer"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert rows["inner"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert rows["leaf"]["self_s"] == 1.0


def test_verdict_gate_flags_wrong_answers(tmp_path):
    inputs = _inputs("sat-mix", tmp_path)  # planted, so every instance is SAT
    good = run.solve_loop(inputs, count=1)[0]
    pkg, inst = inputs.c.pkg, inputs.c.generated[0]
    assert good.verdict == "ok"
    flipped = tuple(1 - x for x in good.outcome.solution)
    assert run.verdict(pkg, inst, pkg.SolveOutcome(None), None) == "wrong"
    assert run.verdict(pkg, inst, pkg.SolveOutcome(flipped), None) == "wrong"
    assert run.verdict(pkg, inst, None, "LemmaViolation: boom") == "raised"
    records = [good, good._replace(index=5, verdict="wrong")]
    assert run.failures(records, "wrong") == [5]


def test_release_drops_solved_instances(tmp_path):
    inputs = _inputs("unsat-prop", tmp_path)
    records = run.solve_loop(inputs, count=2, release=True)
    assert [r.verdict for r in records] == ["ok", "ok"]
    assert inputs.items[:2] == [None, None]
    assert inputs.c.generated[:2] == [None, None]
    assert inputs.items[2] is not None


def test_rounds_keep_each_instances_fastest_solve(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROUNDS", 3)
    c = run.Corpus("unsat-prop", 7, str(tmp_path))
    between = []
    records, rounds = run.timed_rounds(c, 0.6, lambda: between.append(len(between)))
    assert between == [0, 1]
    n = len(records)
    assert n >= 1
    assert [len(times) for times in rounds] == [n, n, n]
    assert [r.seconds for r in records] == [min(t[i] for t in rounds) for i in range(n)]
    assert all(r.verdict == "ok" for r in records)


def test_tail_percentile_keeps_tail_beyond(monkeypatch):
    monkeypatch.setattr(run, "TAIL_BEYOND", 10)
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(40) == 75
    values = list(range(1, 41))
    assert sum(v > run.percentile(values, 75) for v in values) == 10
    monkeypatch.setattr(run, "TAIL_BEYOND", 25)
    assert run.tail_percentile(500) == 95


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_command_output_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    spans_out = os.path.join(ROOT, run.OUT_DIR, "spans-unsat-prop-2.jsonl")
    if os.path.exists(spans_out):
        os.remove(spans_out)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        p = _run_cli(
            ROOT, "--workload", "unsat-prop", "--seed", "2", "--seconds", "1",
            "--trace", str(trace),
        )
        assert p.returncode == 0, p.stderr
        result = json.loads(p.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
    with open(spans_out) as fh:
        first = json.loads(fh.readline())
    assert set(first) == {"id", "name", "start", "end", "parent", "instance"}


def test_command_fails_without_the_package(tmp_path):
    p = _run_cli(tmp_path, "--workload", "unsat-prop", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert p.stdout == ""
