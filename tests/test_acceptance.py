"""Acceptance gate.

Ten checks, each a single test that prints one pass or fail line with its
measured time against a fixed budget.  Run with -s to see the lines; the
per-test verdicts of pytest -v carry the same information.
"""

import functools
import itertools
import random
import time

from cd3csp import (
    Congruence,
    GeneratorConfig,
    Instance,
    Signature,
    brute_force_solve,
    constraint_from_raw,
    gen_cd3_algebra,
    gen_instance,
    is_congruence,
    is_simple,
    k_minimalize,
    majority_algebra,
    maximal_proper_congruence,
    principal_congruence,
    run_suite,
    satisfies,
    solve,
    Relation,
)

from tests.conftest import all_partitions, brute_congruences, labels_of


def _timed(n, desc, bound, fn):
    t0 = time.monotonic()
    try:
        detail = fn()
    except BaseException:
        print(f"FAIL criterion {n}: {desc} (raised after {time.monotonic() - t0:.1f}s)")
        raise
    elapsed = time.monotonic() - t0
    status = "PASS" if elapsed < bound else "FAIL"
    print(f"{status} criterion {n}: {desc} ({detail}; {elapsed:.1f}s, budget {bound}s)")
    assert elapsed < bound, f"criterion {n} exceeded its {bound}s budget"


@functools.lru_cache(maxsize=1)
def corpus():
    """50 algebras of size 2 and 3, 10 instances each: at most 6 variables,
    6 constraints, arity 3."""
    algebras = [
        gen_cd3_algebra(GeneratorConfig(seed=s, domain_size=2)) for s in range(25)
    ] + [
        gen_cd3_algebra(GeneratorConfig(seed=200 + s, domain_size=3)) for s in range(25)
    ]
    rng = random.Random(424242)
    instances = []
    for alg in algebras:
        for _ in range(10):
            nv = rng.randint(2, 6)
            cfg = GeneratorConfig(
                seed=rng.randrange(2**32),
                domain_size=alg.size,
                num_vars=nv,
                num_constraints=rng.randint(1, 6),
                max_arity=min(3, nv),
                subpower_seeds=rng.choice((1, 1, 2, 3)),
            )
            instances.append(gen_instance(alg, cfg))
    return algebras, instances


def test_criterion_01_nonempty_3_minimal_implies_solvable():
    def body():
        _, instances = corpus()
        nonempty = empty = 0
        for inst in instances:
            mi = k_minimalize(inst, 3)
            oracle = brute_force_solve(inst)
            if mi.empty_flag:
                assert not oracle.sat, "propagation emptied a solvable instance"
                empty += 1
            else:
                assert oracle.sat, "nonempty 3-minimal system but no solution"
                nonempty += 1
        assert nonempty and empty
        return f"{len(instances)} instances, {nonempty} nonempty all sat, {empty} empty all unsat"

    _timed(1, "nonempty 3-minimal systems are solvable", 60, body)


def test_criterion_02_pipeline_agrees_with_oracle():
    def body():
        _, instances = corpus()
        sat = unsat = 0
        for inst in instances:
            got = solve(inst)
            want = brute_force_solve(inst)
            assert got.sat == want.sat
            assert not got.fallback, "pipeline fell back to exhaustive assembly"
            if got.sat:
                assert satisfies(inst, got.solution)
                sat += 1
            else:
                unsat += 1
        assert sat and unsat
        return f"{sat + unsat} instances, {sat} sat / {unsat} unsat, all verified"

    _timed(2, "pipeline decision matches exhaustive oracle", 120, body)


def test_criterion_03_two_sat_over_majority():
    def body():
        alg = majority_algebra(2)
        rng = random.Random(31337)
        sat = unsat = 0
        for _ in range(100):
            nv = rng.randint(3, 8)
            cons = []
            for _ in range(rng.randint(3, 12)):
                v1, v2 = rng.randrange(nv), rng.randrange(nv)
                s1, s2 = rng.randint(0, 1), rng.randint(0, 1)
                rows = tuple(
                    (a, b)
                    for a, b in itertools.product((0, 1), repeat=2)
                    if a == s1 or b == s2
                )
                cons.append(constraint_from_raw((v1, v2), Relation((2, 2), rows)))
            inst = Instance(Signature((alg,) * nv), tuple(cons))
            got = solve(inst)
            want = brute_force_solve(inst)
            assert got.sat == want.sat
            if got.sat:
                assert satisfies(inst, got.solution)
                sat += 1
            else:
                unsat += 1
        assert sat and unsat
        return f"100 formulas, {sat} sat / {unsat} unsat"

    _timed(3, "random 2-SAT through the pipeline", 10, body)


def test_criterion_04_binary_subdirect_classification():
    def body():
        return run_suite("connected-simple", trials=20, seed=0).line()

    _timed(4, "subdirect binary relations over simple factors", 60, body)


def test_criterion_05_distance_contraction():
    def body():
        return run_suite("distance", trials=200, seed=0).line()

    _timed(5, "derived multiplication contracts graph distance", 30, body)


def test_criterion_06_ideal_restriction_systems():
    def body():
        return run_suite("gamma-j", trials=100, seed=0).line()

    _timed(6, "ideal-restricted entry systems stay consistent", 60, body)


def test_criterion_07_wide_constraint_reduction():
    def body():
        return run_suite("rj", trials=50, seed=0).line()

    _timed(7, "wide constraints filter to the restricted system", 60, body)


def test_criterion_08_quotient_pullback():
    def body():
        return run_suite("pullback", trials=25, seed=0).line()

    _timed(8, "every congruence class pulls back", 30, body)


def test_criterion_09_almost_trivial_decomposition():
    def body():
        return run_suite("almost-trivial", trials=30, seed=0).line()

    _timed(9, "almost trivial relations decompose into classes", 60, body)


def test_criterion_10_congruence_machinery():
    def body():
        cases = checks = 0
        for size in (2, 3, 4):
            for seed in range(7):
                alg = gen_cd3_algebra(GeneratorConfig(seed=seed, domain_size=size))
                want = brute_congruences(alg)
                labs = [labels_of(p, size) for p in all_partitions(size)]
                for lab in labs:
                    got = is_congruence(alg, Congruence(size, lab))
                    assert got == (lab in want)
                    checks += 1
                for a, b in itertools.combinations(range(size), 2):
                    theta = principal_congruence(alg, a, b)
                    assert theta.blocks in want
                    assert theta.related(a, b)
                    for lab in want:
                        other = Congruence(size, lab)
                        if other.related(a, b):
                            assert theta.refines(other)
                    checks += 1
                nontrivial = [
                    lab for lab in want if 1 < len(set(lab)) < size
                ]
                m = maximal_proper_congruence(alg)
                if nontrivial:
                    assert m is not None and m.blocks in set(nontrivial)
                    for lab in nontrivial:
                        other = Congruence(size, lab)
                        if m.refines(other) and m.blocks != other.blocks:
                            raise AssertionError("a strictly coarser proper congruence exists")
                    assert not is_simple(alg)
                else:
                    assert m is None
                    assert is_simple(alg)
                checks += 1
                cases += 1
        assert cases >= 20
        return f"{cases} algebras, {checks} checks against partition enumeration"

    _timed(10, "congruence machinery matches partition enumeration", 30, body)
