"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately reimplement definitions from scratch (full
argument-tuple loops, set-partition enumeration, exhaustive search) so the
library is always checked against a second route.
"""

import itertools

import pytest

from cd3csp import (
    Constraint,
    Instance,
    Relation,
    Signature,
    generated_subpower,
    majority_algebra,
    product_algebra,
    switch_algebra,
)


@pytest.fixture
def maj2():
    return majority_algebra(2)


@pytest.fixture
def dd2():
    return switch_algebra(2)


@pytest.fixture
def dd2sq():
    d = switch_algebra(2)
    return product_algebra(d, d)


def all_partitions(n):
    """Every set partition of {0..n-1} as a list of blocks."""
    if n == 0:
        yield []
        return
    for part in all_partitions(n - 1):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [n - 1]] + part[i + 1 :]
        yield part + [[n - 1]]


def labels_of(part, n):
    """Canonical first-occurrence block labels of a partition."""
    lab = [None] * n
    for b in part:
        for x in b:
            lab[x] = min(b)
    remap, out = {}, []
    for v in lab:
        if v not in remap:
            remap[v] = len(remap)
        out.append(remap[v])
    return tuple(out)


def brute_compatible(alg, lab):
    """Full compatibility check: related argument tuples give related results."""
    for name in alg.op_names():
        op = alg.op(name)
        for args in itertools.product(alg.universe, repeat=op.arity):
            for args2 in itertools.product(alg.universe, repeat=op.arity):
                if all(lab[a] == lab[b] for a, b in zip(args, args2)):
                    if lab[op.apply(*args)] != lab[op.apply(*args2)]:
                        return False
    return True


def brute_congruences(alg):
    """All congruence labelings of an algebra by partition enumeration."""
    out = set()
    for part in all_partitions(alg.size):
        lab = labels_of(part, alg.size)
        if brute_compatible(alg, lab):
            out.add(lab)
    return out


def brute_invariant(rel, algs):
    """Direct reimplementation of closure under coordinatewise operations."""
    tset = set(rel.tuples)
    names = algs[0].op_names()
    for name in names:
        tables = [a.op(name) for a in algs]
        m = tables[0].arity
        for rows in itertools.product(rel.tuples, repeat=m):
            image = tuple(
                tables[c].apply(*(rows[i][c] for i in range(m)))
                for c in range(rel.arity)
            )
            if image not in tset:
                return False
    return True


def brute_solutions(inst):
    """All satisfying assignments by raw product enumeration."""
    sols = []
    for assign in itertools.product(*(range(a.size) for a in inst.sig.domains)):
        ok = True
        for c in inst.constraints:
            if tuple(assign[v] for v in c.scope) not in set(c.rel.tuples):
                ok = False
                break
        if ok:
            sols.append(assign)
    return sols


def brute_least_closed(alg, gens, extra_closed):
    """Least superset of gens closed under the ops and extra_closed(u, x)."""
    universe = list(alg.universe)
    best = None
    for r in range(alg.size + 1):
        for sub in itertools.combinations(universe, r):
            s = frozenset(sub)
            if not gens <= s:
                continue
            closed = True
            for name in alg.op_names():
                op = alg.op(name)
                for args in itertools.product(sorted(s), repeat=op.arity):
                    if op.apply(*args) not in s:
                        closed = False
                        break
                if not closed:
                    break
            if closed:
                for u in universe:
                    for x in sorted(s):
                        if extra_closed(u, x) not in s:
                            closed = False
                            break
                    if not closed:
                        break
            if closed and (best is None or len(s) < len(best)):
                best = s
    return best


def mk_instance(alg, constraints):
    """Single-sorted instance helper; constraints as (scope, tuples) pairs."""
    nvars = max(max(s) for s, _ in constraints) + 1
    cons = tuple(
        Constraint(
            tuple(scope),
            Relation(tuple(alg.size for _ in scope), tuple(map(tuple, tuples))),
        )
        for scope, tuples in constraints
    )
    return Instance(Signature((alg,) * nvars), cons)


def planted_instance(rng, alg, nvars, arities, extra):
    """Instance whose constraints each close a planted tuple and ``extra``
    random tuples under the operations."""
    planted = [rng.randrange(alg.size) for _ in range(nvars)]
    constraints = []
    for arity in arities:
        scope = tuple(sorted(rng.sample(range(nvars), arity)))
        seeds = [tuple(planted[v] for v in scope)]
        seeds += [tuple(rng.randrange(alg.size) for _ in scope) for _ in range(extra)]
        constraints.append(Constraint(scope, generated_subpower((alg,) * arity, seeds)))
    return Instance(Signature((alg,) * nvars), tuple(constraints))


EQ2 = ((0, 0), (1, 1))
NEQ2 = ((0, 1), (1, 0))
FULL2 = ((0, 0), (0, 1), (1, 0), (1, 1))
