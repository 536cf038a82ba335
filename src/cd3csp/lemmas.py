"""Executable property suites for the structural facts the solver relies on.

Each suite generates a stream of seeded random (or exhaustively enumerated)
objects and checks one structural guarantee against an independent
reformulation, raising LemmaViolation on the first counterexample.  The
suites back both the ``lemma-suite`` CLI subcommand and the acceptance
tests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .algebra import (
    is_simple,
    maximal_proper_congruence,
    product_algebra,
    quotient,
    switch_algebra,
)
from .consistency import (
    _positions,
    effective_instance,
    is_k_minimal,
    k_minimalize,
    make_subdirect,
)
from .errors import LemmaViolation
from .generators import GeneratorConfig, gen_cd3_algebra, gen_instance
from .jonsson import (
    build_lambda_J,
    classify_binary,
    distance_profile,
    is_jonsson_trivial,
    jonsson_ideal,
    mult,
    reduce_constraint_RJ,
    some_proper_ideal,
)
from .relation import (
    Relation,
    generated_subpower,
    is_invariant,
    is_subdirect,
    project,
    satisfies,
)
from .solver import (
    almost_trivial_decomposition,
    brute_force_solve,
    pullback,
    quotient_reduce,
    reduce_to_ideal,
)


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one property suite run."""

    name: str
    cases: int
    checks: int
    detail: str = ""

    def line(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {self.cases} cases, {self.checks} checks{extra}"


def _fail(name, message):
    raise LemmaViolation(f"{name}: {message}")


def _rand_algebra(rng, sizes=(2, 3)):
    size = sizes[rng.randrange(len(sizes))]
    return gen_cd3_algebra(GeneratorConfig(seed=rng.randrange(2**32), domain_size=size))


def _pool_simple_trivial(seed, seed_count, sizes=(2, 3), cap=6):
    """Distinct simple Jonsson-trivial algebras found by scanning generator seeds.

    Scans at least ``seed_count`` seeds per size and keeps scanning (up to a
    hard limit) until every requested size is represented.
    """
    pool = []
    found_sizes = set()
    offset = 0
    while offset < seed_count or (found_sizes != set(sizes) and offset < 50 * seed_count):
        for size in sizes:
            alg = gen_cd3_algebra(GeneratorConfig(seed=seed + offset, domain_size=size))
            if is_simple(alg) and is_jonsson_trivial(alg) and alg not in pool:
                pool.append(alg)
                found_sizes.add(size)
        offset += 1
    return pool[:cap], offset


def _random_subdirect_subpower(rng, algs, extra=2):
    """A random invariant subset of the product that is onto every coordinate."""

    seeds = [tuple(rng.randrange(a.size) for a in algs) for _ in range(extra)]
    for c, a in enumerate(algs):
        present = {t[c] for t in seeds}
        for v in range(a.size):
            if v not in present:
                t = [rng.randrange(x.size) for x in algs]
                t[c] = v
                seeds.append(tuple(t))
    return generated_subpower(algs, seeds)


def suite_ideal(trials=100, seed=0) -> SuiteReport:
    """Least-closed-superset characterisation of ideals, plus quotient stability."""

    rng = random.Random(seed)
    checks = 0
    for _ in range(trials):
        alg = _rand_algebra(rng, sizes=(2, 3, 4))
        n = alg.size
        gens = frozenset(rng.sample(range(n), rng.randint(0, n)))
        got = jonsson_ideal(alg, gens)

        universe = list(range(n))
        arities = [(name, alg.op(name).arity) for name in alg.op_names()]

        def closed(subset):
            for name, m in arities:
                for args in itertools.product(subset, repeat=m):
                    if alg.apply(name, *args) not in subset:
                        return False
            for u in universe:
                for x in subset:
                    if mult(alg, u, x) not in subset:
                        return False
            return True

        family = [
            frozenset(s)
            for r in range(n + 1)
            for s in itertools.combinations(universe, r)
            if gens <= frozenset(s) and closed(frozenset(s))
        ]
        least = frozenset(universe)
        for s in family:
            least &= s
        if frozenset(got) not in family:
            _fail("ideal", f"computed ideal {sorted(got)} is not closed over {alg!r}")
        if frozenset(got) != least:
            _fail("ideal", f"computed ideal {sorted(got)} differs from least {sorted(least)}")
        checks += 2

        if gens and not is_simple(alg):
            theta = maximal_proper_congruence(alg)
            if theta is not None:
                qalg, proj = quotient(alg, theta)
                image = frozenset(proj[x] for x in got)
                if jonsson_ideal(qalg, image) != image:
                    _fail("ideal", "ideal image is not an ideal of the quotient")
                checks += 1
        if is_jonsson_trivial(alg) and gens:
            if frozenset(got) != frozenset(universe):
                _fail("ideal", "trivial algebra has a proper ideal with nonempty generators")
            checks += 1
    return SuiteReport("ideal", trials, checks)


def suite_distance(trials=200, seed=0, max_attempts_factor=50) -> SuiteReport:
    """Distance contraction for the derived multiplication on connected relations."""

    rng = random.Random(seed)
    done = 0
    checks = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts > max_attempts_factor * trials:
            _fail("distance", "could not generate enough connected subdirect relations")
        a = _rand_algebra(rng)
        b = _rand_algebra(rng)
        rel = _random_subdirect_subpower(rng, (a, b), extra=rng.randint(1, 3))
        prof = distance_profile(rel)
        if not prof.connected:
            continue
        # layers must stay reflexive, symmetric and invariant
        for layer in prof.layers:
            for x in range(a.size):
                if (x, x) not in layer:
                    _fail("distance", "layer is not reflexive")
            for (x, y) in layer:
                if (y, x) not in layer:
                    _fail("distance", "layer is not symmetric")
            lrel = Relation((a.size, a.size), tuple(layer))
            if not is_invariant(lrel, (a, a)):
                _fail("distance", "layer is not invariant under the left algebra")
            checks += 1
        for x in range(a.size):
            for y in range(a.size):
                for z in range(a.size):
                    lhs = prof.distance(mult(a, x, y), z)
                    bound = max((prof.distance(x, y) + 1) // 2, prof.distance(y, z))
                    if lhs > bound:
                        _fail(
                            "distance",
                            f"d({x}*{y},{z})={lhs} exceeds max(ceil(d({x},{y})/2),d({y},{z}))={bound}",
                        )
                    checks += 1
        done += 1
    return SuiteReport("distance", done, checks, f"{attempts} candidates drawn")


def _enumerate_binary_invariant(a, b):
    """All invariant subsets of a.size x b.size by exhaustive subset scan."""

    cells = list(itertools.product(range(a.size), range(b.size)))
    out = []
    for mask in range(1, 1 << len(cells)):
        subset = tuple(cells[i] for i in range(len(cells)) if mask >> i & 1)
        rel = Relation((a.size, b.size), subset)
        if is_invariant(rel, (a, b)):
            out.append(rel)
    return out


def suite_connected_simple(trials=20, seed=0) -> SuiteReport:
    """Dichotomy for subdirect relations over a simple Jonsson-trivial left factor.

    Exhaustive over every subdirect invariant binary relation between pool
    members: each must be the full product or the graph of an onto
    homomorphism from the right factor to the left one.
    """

    pool, scanned = _pool_simple_trivial(seed, max(trials, 20))
    if not pool:
        _fail("connected-simple", "no simple Jonsson-trivial algebras found in the seed scan")
    cases = 0
    checks = 0
    kinds = {"full": 0, "hom_graph": 0}
    for a in pool:
        for b in pool:
            for rel in _enumerate_binary_invariant(a, b):
                if not is_subdirect(rel, (a, b)):
                    continue
                cases += 1
                cls = classify_binary(rel, a, b)
                kinds[cls.kind] += 1
                if cls.kind == "full":
                    if len(rel) != a.size * b.size:
                        _fail("connected-simple", "full classification on a non-full relation")
                else:
                    seen = {}
                    for (x, y) in rel.tuples:
                        if y in seen and seen[y] != x:
                            _fail("connected-simple", "graph classification on a non-functional relation")
                        seen[y] = x
                    if len(seen) != b.size or set(seen.values()) != set(range(a.size)):
                        _fail("connected-simple", "graph classification is not an onto map on all of B")
                    if cls.hom is None or tuple(seen[y] for y in range(b.size)) != cls.hom:
                        _fail("connected-simple", "reported homomorphism disagrees with the relation")
                checks += 1
    if kinds["full"] == 0 or kinds["hom_graph"] == 0:
        _fail("connected-simple", f"degenerate coverage: {kinds}")
    detail = f"pool={len(pool)} from {scanned} seeds, kinds={kinds}"
    return SuiteReport("connected-simple", cases, checks, detail)


def suite_almost_trivial(trials=30, seed=0) -> SuiteReport:
    """Decomposability of subdirect subpowers of simple Jonsson-trivial factors.

    Two-factor subpowers are enumerated exhaustively; wider ones (three or
    four factors) are drawn as random generated subpowers.
    """

    rng = random.Random(seed)
    pool, _ = _pool_simple_trivial(seed, 20)
    if not pool:
        _fail("almost-trivial", "no simple Jonsson-trivial algebras found in the seed scan")
    cases = 0
    checks = 0
    pair_combos = list(itertools.product(pool[:4], repeat=2))
    for a, b in pair_combos:
        for rel in _enumerate_binary_invariant(a, b):
            if not is_subdirect(rel, (a, b)):
                continue
            deco = almost_trivial_decomposition(rel)
            cases += 1
            checks += 1 + len(deco.classes)
    small = next((x for x in pool if x.size == 2), None)
    wide = 0
    while wide < trials:
        m = rng.randint(3, 4)
        algs = tuple(pool[rng.randrange(len(pool))] for _ in range(m))
        if m == 4 and small is not None and all(x.size == 3 for x in algs):
            # keep the largest products off the hot path
            algs = algs[:3] + (small,)
        rel = _random_subdirect_subpower(rng, algs, extra=rng.randint(1, 3))
        deco = almost_trivial_decomposition(rel)
        total = frozenset(range(m))
        if frozenset().union(*deco.classes) != total:
            _fail("almost-trivial", "classes do not partition the coordinates")
        cases += 1
        checks += 1 + len(deco.classes)
        wide += 1
    return SuiteReport("almost-trivial", cases, checks, f"{wide} wide subpowers")


def _minimal_subdirect_system(rng, alg, k=3, vars_range=(4, 6), cons_range=(3, 5)):
    """Draw a random instance and return its nonempty k-minimal subdirect form."""

    cfg = GeneratorConfig(
        seed=rng.randrange(2**32),
        domain_size=alg.size,
        num_vars=rng.randint(*vars_range),
        num_constraints=rng.randint(*cons_range),
        max_arity=3,
        subpower_seeds=rng.randint(2, 4),
    )
    inst = gen_instance(alg, cfg)
    mi = k_minimalize(inst, k)
    if mi.empty_flag:
        return None
    mi, _ = make_subdirect(mi)
    return mi


def suite_gamma_j(trials=100, seed=0) -> SuiteReport:
    """Consistency of the ideal-restricted entry family on subdirect systems."""

    rng = random.Random(seed)
    done = 0
    checks = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts > 200 * trials:
            _fail("gamma-j", "could not generate enough systems with a proper ideal")
        alg = _rand_algebra(rng)
        if some_proper_ideal(alg) is None:
            continue
        mi = _minimal_subdirect_system(rng, alg)
        if mi is None or mi.system.nvars < 4:
            continue
        doms = mi.base.domains
        coords = [i for i in range(len(doms)) if some_proper_ideal(doms[i]) is not None]
        if not coords:
            continue
        coord = coords[rng.randrange(len(coords))]
        ideal = some_proper_ideal(doms[coord])
        red = build_lambda_J(mi.system, coord, ideal, doms[coord])
        level = red.level
        nvars = mi.system.nvars
        for subset in itertools.combinations(range(nvars), level):
            entry = red.lamj[subset]
            if entry.is_empty:
                _fail("gamma-j", f"empty restricted entry at {subset}")
            if coord in subset:
                pos = subset.index(coord)
                col = {t[pos] for t in entry.tuples}
                if col != set(ideal):
                    _fail("gamma-j", f"entry at {subset} does not project onto the ideal")
            checks += 1
        for s1, s2 in itertools.combinations(itertools.combinations(range(nvars), level), 2):
            shared = sorted(set(s1) & set(s2))
            if not shared:
                continue
            p1 = project(red.lamj[s1], _positions(s1, shared))
            p2 = project(red.lamj[s2], _positions(s2, shared))
            if p1.tuples != p2.tuples:
                _fail("gamma-j", f"restricted entries at {s1} and {s2} disagree on {shared}")
            checks += 1
        done += 1
    return SuiteReport("gamma-j", done, checks, f"{attempts} candidates drawn")


def suite_rj(trials=50, seed=0) -> SuiteReport:
    """Constraint reduction at k equal to the squared domain bound."""

    rng = random.Random(seed)
    done = 0
    checks = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts > 400 * trials:
            _fail("rj", "could not generate enough reducible instances")
        alg = gen_cd3_algebra(GeneratorConfig(seed=rng.randrange(2**32), domain_size=2))
        if some_proper_ideal(alg) is None:
            continue
        nvars = rng.randint(5, 6)
        cfg = GeneratorConfig(
            seed=rng.randrange(2**32),
            domain_size=2,
            num_vars=nvars,
            num_constraints=rng.randint(2, 4),
            max_arity=min(5, nvars),
            subpower_seeds=rng.randint(2, 5),
        )
        inst = gen_instance(alg, cfg)
        if not any(len(c.scope) > 4 for c in inst.constraints):
            continue
        mi = k_minimalize(inst, 4)
        if mi.empty_flag:
            continue
        mi, _ = make_subdirect(mi)
        doms = mi.base.domains
        coords = [i for i in range(len(doms)) if some_proper_ideal(doms[i]) is not None]
        if not coords:
            continue
        coord = coords[0]
        ideal = some_proper_ideal(doms[coord])
        red = build_lambda_J(mi.system, coord, ideal, doms[coord])
        for con in mi.base.constraints:
            algs = tuple(doms[v] for v in con.scope)
            out = reduce_constraint_RJ(con.rel, con.scope, red, algs)
            if out.is_empty:
                _fail("rj", f"reduced constraint on {con.scope} is empty")
            if not is_invariant(out, algs):
                _fail("rj", f"reduced constraint on {con.scope} lost invariance")
            for subset in itertools.combinations(range(len(con.scope)), red.level):
                key = tuple(con.scope[i] for i in subset)
                if project(out, subset).tuples != red.lamj[key].tuples:
                    _fail("rj", f"reduced constraint on {con.scope} misses entry {key}")
                checks += 1
            for t in out.tuples:
                if t not in con.rel:
                    _fail("rj", "reduction invented a tuple")
            checks += 2
        # the restricted system is built without propagating; check it
        # independently of the pipeline
        restricted, _ = reduce_to_ideal(mi, coord, ideal)
        if not is_k_minimal(effective_instance(restricted), 4):
            _fail("rj", "ideal-restricted system is not k-minimal")
        checks += 1
        done += 1
    return SuiteReport("rj", done, checks, f"{attempts} candidates drawn")


def suite_pullback(trials=25, seed=0) -> SuiteReport:
    """Round trip through the quotient reduction and its pullback."""

    rng = random.Random(seed)
    base = switch_algebra(2)
    alg = product_algebra(base, base)
    done = 0
    checks = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts > 400 * trials:
            _fail("pullback", "could not generate enough quotient-reducible instances")
        cfg = GeneratorConfig(
            seed=rng.randrange(2**32),
            domain_size=alg.size,
            num_vars=rng.randint(4, 5),
            num_constraints=rng.randint(3, 5),
            max_arity=3,
            subpower_seeds=rng.randint(2, 4),
        )
        inst = gen_instance(alg, cfg)
        mi = k_minimalize(inst, 3)
        if mi.empty_flag:
            continue
        mi, _ = make_subdirect(mi)
        doms = mi.base.domains
        coords = [i for i in range(len(doms)) if doms[i].size > 1 and not is_simple(doms[i])]
        if not coords:
            continue
        coord = coords[0]
        plan, q_mi = quotient_reduce(mi, coord)
        q_out = brute_force_solve(effective_instance(q_mi))
        if q_out.solution is None:
            continue
        before = doms[coord].size
        mi2, maps = pullback(mi, plan, q_out.solution)
        if mi2.empty_flag:
            _fail("pullback", "pulled-back system is empty")
        doms2 = mi2.base.domains
        new_coord_size = len(set(maps[coord]))
        if new_coord_size >= before:
            _fail("pullback", "coordinate domain did not shrink")
        eff = effective_instance(mi2)
        if not is_k_minimal(eff, 3):
            _fail("pullback", "pulled-back system is not k-minimal")
        # every surviving assignment must solve the original instance
        source = effective_instance(mi)
        sizes = [d.size for d in doms2]
        survivors = 0
        for assign in itertools.product(*(range(s) for s in sizes)):
            if not satisfies(eff, assign):
                continue
            lifted = tuple(maps[v][assign[v]] for v in range(len(sizes)))
            if not satisfies(source, lifted):
                _fail("pullback", "pulled-back solution does not solve the source system")
            survivors += 1
        if survivors == 0:
            _fail("pullback", "nonempty pulled-back system has no solutions at this size")
        checks += 3 + survivors
        done += 1
    return SuiteReport("pullback", done, checks, f"{attempts} candidates drawn")


SUITES = {
    "ideal": suite_ideal,
    "distance": suite_distance,
    "connected-simple": suite_connected_simple,
    "almost-trivial": suite_almost_trivial,
    "gamma-j": suite_gamma_j,
    "rj": suite_rj,
    "pullback": suite_pullback,
}


def run_suite(name, trials=None, seed=0) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    if trials is None:
        return fn(seed=seed)
    return fn(trials=trials, seed=seed)
