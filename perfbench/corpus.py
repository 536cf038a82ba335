"""Seeded corpora for the benchmark workloads.

Instance ``i`` of workload ``w`` under seed ``s`` is drawn from its own
``random.Random(f"{w}/{s}/{i}")``, so a corpus can be extended a chunk at a
time and the same seed always gives the same instances in the same order.
The sat-mix path, which sets most of an instance's cost, cycles with the
index instead of being drawn, so every prefix of a corpus has the same mix
and a run that stops early still measures that mix.

Every function takes the ``cd3csp`` package it draws with as ``pkg``: the
harness generates with one imported copy of the package and solves with
others, so that generating cannot warm anything a timed solve reuses.
"""

from __future__ import annotations

import os
import random


def planted_instance(pkg, alg, rng, nvars, arities, extra_seeds, max_tuples):
    """Single-sorted instance with a planted solution.

    Each constraint closes the planted tuple plus ``extra_seeds`` random
    tuples under the operations, so it is invariant and the instance is
    satisfiable.  Random seeds are dropped, last first, while the closure
    holds more than ``max_tuples`` tuples: invariance checking is cubic in
    a relation's size and one full relation would dominate a whole run.
    """
    planted = [rng.randrange(alg.size) for _ in range(nvars)]
    constraints = []
    for arity in arities:
        scope = tuple(sorted(rng.sample(range(nvars), arity)))
        seeds = [tuple(planted[v] for v in scope)]
        seeds += [
            tuple(rng.randrange(alg.size) for _ in scope) for _ in range(extra_seeds)
        ]
        rel = pkg.generated_subpower((alg,) * arity, seeds)
        while len(rel) > max_tuples:
            seeds.pop()
            rel = pkg.generated_subpower((alg,) * arity, seeds)
        constraints.append(pkg.Constraint(scope, rel))
    return pkg.Instance(pkg.Signature((alg,) * nvars), tuple(constraints))


def _algebra_with_ideal(pkg, rng, size):
    """Generated algebra redrawn until it has a proper ideal, so that every
    instance over it takes ideal steps; a drawn algebra has one about three
    times in four."""
    while True:
        cfg = pkg.GeneratorConfig(seed=rng.randrange(2**31), domain_size=size)
        alg = pkg.gen_cd3_algebra(cfg)
        if pkg.some_proper_ideal(alg) is not None:
            return alg


def _ideal_k3(pkg, rng, size, nvars, max_tuples):
    """Algebra with a proper ideal; arity <= 3, so k=3."""
    alg = _algebra_with_ideal(pkg, rng, size)
    arities = [rng.randint(2, 3) for _ in range(nvars - 1)]
    return planted_instance(pkg, alg, rng, nvars, arities, extra_seeds=2, max_tuples=max_tuples)


def _quotient_sq4(pkg, rng):
    """Product of two switch algebras: no proper ideal, not simple."""
    alg = pkg.product_algebra(pkg.switch_algebra(2), pkg.switch_algebra(2))
    return planted_instance(pkg, alg, rng, 5, [3] * 3, extra_seeds=2, max_tuples=8)


def _wide_k4(pkg, rng):
    """Size-2 algebra with an arity-5 constraint, so k=4 in global mode.

    The algebra has a proper ideal, so the ideal step runs and filters the
    arity-5 constraint with reduce_constraint_RJ.
    """
    alg = _algebra_with_ideal(pkg, rng, 2)
    arities = [5, 4, rng.randint(2, 3)]
    return planted_instance(pkg, alg, rng, 5, arities, extra_seeds=2, max_tuples=8)


# sat-mix cycles through these paths by instance index.  Solve times vary
# tenfold between instances of one path, so a median over one seed's
# corpus is steady only over many hundreds of instances: the paths are
# the smallest that still take their steps (more variables than k, so the
# pipeline runs past the first k_minimalize), which puts the median solve
# at 8-17 ms per path on the machine the benchmark was tuned on.  Size-3
# and wide relations are capped at 9 and 8 tuples: uncapped, a size-3
# instance took from 8 ms to 0.35 s, and those few dear instances set the
# whole mix's decided_per_s; at 6 variables and 16 tuples the wide path's
# mean solve was 38 ms, at 5 and 8 it is 13 ms.
SAT_MIX = (
    ("ideal-k3/2", lambda pkg, rng: _ideal_k3(pkg, rng, 2, 5, max_tuples=8)),
    ("quotient-sq4", _quotient_sq4),
    ("wide-k4", _wide_k4),
    ("ideal-k3/3", lambda pkg, rng: _ideal_k3(pkg, rng, 3, 4, max_tuples=9)),
)


def _sat_mix(pkg, rng, i, oracle):
    return SAT_MIX[i % len(SAT_MIX)][1](pkg, rng)


# unsat-prop redraws an instance with a relation of more than this many
# tuples.  validate_invariance is cubic in a relation's size: the few
# draws with a full 27-tuple relation took 0.15-0.25 s against a median of
# 15 ms, and set the workload's decided_per_s on their own.
UNSAT_MAX_TUPLES = 9


def _unsat_prop(pkg, rng, i, oracle):
    """Redraws satisfiable draws, and draws with a relation over
    UNSAT_MAX_TUPLES tuples.

    A satisfiable draw runs the whole pipeline and costs as much as fifty
    unsatisfiable ones, so it would bury the early exit this workload is
    for.  The verdict comes from the exhaustive oracle, not the solver.
    """
    while True:
        alg = pkg.gen_cd3_algebra(pkg.GeneratorConfig(seed=rng.randrange(2**31), domain_size=3))
        cfg = pkg.GeneratorConfig(
            seed=rng.randrange(2**31),
            domain_size=3,
            num_vars=10,
            num_constraints=10,
            max_arity=3,
            subpower_seeds=2,
        )
        inst = pkg.gen_instance(alg, cfg)
        if max(len(c.rel) for c in inst.constraints) > UNSAT_MAX_TUPLES:
            continue
        if not oracle(inst):
            return inst


# Why each workload exists, and which layers it stresses or bypasses, is
# recorded in meta.json next to this file.
WORKLOADS = {"sat-mix": _sat_mix, "unsat-prop": _unsat_prop}


def path_of(workload: str, i: int) -> str:
    """Which generator drew instance i: a sat-mix path, or the workload."""
    if workload == "sat-mix":
        return SAT_MIX[i % len(SAT_MIX)][0]
    return workload


def draw(pkg, workload: str, seed: int, start: int, count: int, oracle):
    """Instances start .. start+count-1 of a workload's corpus.

    ``oracle(inst)`` says whether an instance is satisfiable; the caller
    passes it in so that it can keep oracle time out of set-up time.
    """
    make = WORKLOADS[workload]
    return [
        make(pkg, random.Random(f"{workload}/{seed}/{i}"), i, oracle)
        for i in range(start, start + count)
    ]


def write(pkg, instances, directory, first_index):
    """Write each instance with fileio; return the file paths."""
    paths = []
    for offset, inst in enumerate(instances):
        path = os.path.join(directory, f"inst-{first_index + offset:05d}.json")
        pkg.write_instance(path, inst)
        paths.append(path)
    return paths
