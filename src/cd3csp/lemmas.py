"""Executable property suites for the structural facts the solver relies on.

Each suite generates a stream of seeded random (or exhaustively enumerated)
objects and checks one structural guarantee against an independent
reformulation, raising LemmaViolation on the first counterexample.  A
suite is a draw plus a check on one shared harness: _draw_loop draws until
it has the cases, and the subdirect draw, the (coordinate, ideal) list and
the binary enumeration are shared pieces.  The suites back both the
``lemma-suite`` CLI subcommand and the acceptance tests.
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
    _positions,
    generated_subpower,
    is_invariant,
    is_subdirect,
    project,
    satisfies,
)
from .solver import (
    almost_trivial_decomposition,
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


def _draw_loop(name, trials, budget, exhausted, draw, check) -> SuiteReport:
    """Check ``trials`` drawn cases: draw() gives a case or None to skip the
    candidate, check(case) raises on a counterexample and returns its number
    of checks.  Fails with ``exhausted`` after ``budget * trials`` candidates."""

    done = checks = attempts = 0
    while done < trials:
        attempts += 1
        if attempts > budget * trials:
            _fail(name, exhausted)
        case = draw()
        if case is not None:
            checks += check(case)
            done += 1
    return SuiteReport(name, done, checks, f"{attempts} candidates drawn")


def _rand_algebra(rng, sizes=(2, 3)):
    size = sizes[rng.randrange(len(sizes))]
    return gen_cd3_algebra(GeneratorConfig(seed=rng.randrange(2**32), domain_size=size))


def _pool_simple_trivial(seed, seed_count):
    """Up to six distinct simple Jonsson-trivial algebras of sizes 2 and 3,
    found by scanning generator seeds.

    Scans at least ``seed_count`` seeds per size and keeps scanning (up to a
    hard limit) until both sizes are represented.
    """
    sizes = (2, 3)
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
    return pool[:6], offset


def _random_subdirect_subpower(rng, algs):
    """A random invariant subset of the product that is onto every coordinate,
    generated by one to three random tuples plus one per missing value."""

    seeds = [tuple(rng.randrange(a.size) for a in algs) for _ in range(rng.randint(1, 3))]
    for c, a in enumerate(algs):
        present = {t[c] for t in seeds}
        for v in range(a.size):
            if v not in present:
                t = [rng.randrange(x.size) for x in algs]
                t[c] = v
                seeds.append(tuple(t))
    return generated_subpower(algs, seeds)


def _subdirect_binary_invariant(a, b):
    """Every subdirect invariant subset of a.size x b.size, by exhaustive
    subset scan."""

    cells = list(itertools.product(range(a.size), range(b.size)))
    for mask in range(1, 1 << len(cells)):
        subset = tuple(cells[i] for i in range(len(cells)) if mask >> i & 1)
        rel = Relation((a.size, b.size), subset)
        if is_invariant(rel, (a, b)) and is_subdirect(rel, (a, b)):
            yield rel


def _subdirect_system(inst, k):
    """The k-minimal subdirect form of inst, or None when propagation empties it."""

    mi = k_minimalize(inst, k)
    return None if mi.empty_flag else make_subdirect(mi)[0]


def _ideal_coords(mi):
    """(coordinate, ideal) for every domain with a proper ideal, in order."""

    ideals = [(i, some_proper_ideal(d)) for i, d in enumerate(mi.base.domains)]
    return [(i, ideal) for i, ideal in ideals if ideal is not None]


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


def suite_distance(trials=200, seed=0) -> SuiteReport:
    """Distance contraction for the derived multiplication on connected relations."""

    rng = random.Random(seed)

    def draw():
        a = _rand_algebra(rng)
        b = _rand_algebra(rng)
        prof = distance_profile(_random_subdirect_subpower(rng, (a, b)))
        return (a, prof) if prof.connected else None

    def check(case):
        a, prof = case
        checks = 0
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
        for x, y, z in itertools.product(range(a.size), repeat=3):
            lhs = prof.distance(mult(a, x, y), z)
            bound = max((prof.distance(x, y) + 1) // 2, prof.distance(y, z))
            if lhs > bound:
                _fail(
                    "distance",
                    f"d({x}*{y},{z})={lhs} exceeds max(ceil(d({x},{y})/2),d({y},{z}))={bound}",
                )
            checks += 1
        return checks

    exhausted = "could not generate enough connected subdirect relations"
    return _draw_loop("distance", trials, 50, exhausted, draw, check)


def suite_connected_simple(trials=20, seed=0) -> SuiteReport:
    """Dichotomy for subdirect relations over a simple Jonsson-trivial left factor.

    Exhaustive over every subdirect invariant binary relation between pool
    members: each must be the full product or the graph of an onto
    homomorphism from the right factor to the left one.  The pool comes
    from scanning ``trials`` generator seeds per size, and more until both
    sizes appear.
    """

    pool, scanned = _pool_simple_trivial(seed, trials)
    if not pool:
        _fail("connected-simple", "no simple Jonsson-trivial algebras found in the seed scan")
    cases = 0
    kinds = {"full": 0, "hom_graph": 0}
    for a, b in itertools.product(pool, repeat=2):
        for rel in _subdirect_binary_invariant(a, b):
            cases += 1
            shape = classify_binary(rel, a, b)
            if shape == "full":
                kinds["full"] += 1
                if len(rel) != a.size * b.size:
                    _fail("connected-simple", "full classification on a non-full relation")
                continue
            kinds["hom_graph"] += 1
            seen = {}
            for (x, y) in rel.tuples:
                if y in seen and seen[y] != x:
                    _fail("connected-simple", "graph classification on a non-functional relation")
                seen[y] = x
            if len(seen) != b.size or set(seen.values()) != set(range(a.size)):
                _fail("connected-simple", "graph classification is not an onto map on all of B")
            if tuple(seen[y] for y in range(b.size)) != shape:
                _fail("connected-simple", "reported homomorphism disagrees with the relation")
    if kinds["full"] == 0 or kinds["hom_graph"] == 0:
        _fail("connected-simple", f"degenerate coverage: {kinds}")
    detail = f"pool={len(pool)} from {scanned} seeds, kinds={kinds}"
    return SuiteReport("connected-simple", cases, cases, detail)


def suite_almost_trivial(trials=30, seed=0) -> SuiteReport:
    """Decomposability of subdirect subpowers of simple Jonsson-trivial factors.

    Two-factor subpowers are enumerated exhaustively; wider ones (three or
    four factors) are drawn as random generated subpowers.
    """

    rng = random.Random(seed)
    pool, _ = _pool_simple_trivial(seed, 20)
    if not pool:
        _fail("almost-trivial", "no simple Jonsson-trivial algebras found in the seed scan")

    def check(rel):
        deco = almost_trivial_decomposition(rel)
        if frozenset().union(*deco.classes) != frozenset(range(rel.arity)):
            _fail("almost-trivial", "classes do not partition the coordinates")
        return 1 + len(deco.classes)

    pairs = [
        rel
        for a, b in itertools.product(pool[:4], repeat=2)
        for rel in _subdirect_binary_invariant(a, b)
    ]
    checks = sum(check(rel) for rel in pairs)
    small = next((x for x in pool if x.size == 2), None)
    wide = 0
    while wide < trials:
        m = rng.randint(3, 4)
        algs = tuple(pool[rng.randrange(len(pool))] for _ in range(m))
        if m == 4 and small is not None and all(x.size == 3 for x in algs):
            # keep the largest products off the hot path
            algs = algs[:3] + (small,)
        checks += check(_random_subdirect_subpower(rng, algs))
        wide += 1
    return SuiteReport("almost-trivial", len(pairs) + wide, checks, f"{wide} wide subpowers")


def suite_gamma_j(trials=100, seed=0) -> SuiteReport:
    """Consistency of the ideal-restricted entry family on subdirect systems."""

    rng = random.Random(seed)

    def draw():
        alg = _rand_algebra(rng)
        if some_proper_ideal(alg) is None:
            return None
        cfg = GeneratorConfig(
            seed=rng.randrange(2**32),
            domain_size=alg.size,
            num_vars=rng.randint(4, 6),
            num_constraints=rng.randint(3, 5),
            max_arity=3,
            subpower_seeds=rng.randint(2, 4),
        )
        mi = _subdirect_system(gen_instance(alg, cfg), 3)
        if mi is None or mi.system.nvars < 4 or not (ideals := _ideal_coords(mi)):
            return None
        return (mi, *ideals[rng.randrange(len(ideals))])

    def check(case):
        mi, coord, ideal = case
        red = build_lambda_J(mi.system, coord, ideal, mi.base.domains[coord])
        level_sets = list(itertools.combinations(range(mi.system.nvars), red.level))
        for subset in level_sets:
            entry = red.lamj[subset]
            if entry.is_empty:
                _fail("gamma-j", f"empty restricted entry at {subset}")
            if coord in subset:
                pos = subset.index(coord)
                if {t[pos] for t in entry.tuples} != set(ideal):
                    _fail("gamma-j", f"entry at {subset} does not project onto the ideal")
        checks = len(level_sets)
        for s1, s2 in itertools.combinations(level_sets, 2):
            shared = sorted(set(s1) & set(s2))
            if not shared:
                continue
            p1 = project(red.lamj[s1], _positions(s1, shared))
            p2 = project(red.lamj[s2], _positions(s2, shared))
            if p1.tuples != p2.tuples:
                _fail("gamma-j", f"restricted entries at {s1} and {s2} disagree on {shared}")
            checks += 1
        return checks

    exhausted = "could not generate enough systems with a proper ideal"
    return _draw_loop("gamma-j", trials, 200, exhausted, draw, check)


def suite_rj(trials=50, seed=0) -> SuiteReport:
    """Constraint reduction at k equal to the squared domain bound."""

    rng = random.Random(seed)

    def draw():
        alg = gen_cd3_algebra(GeneratorConfig(seed=rng.randrange(2**32), domain_size=2))
        if some_proper_ideal(alg) is None:
            return None
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
            return None
        mi = _subdirect_system(inst, 4)
        if mi is None or not (ideals := _ideal_coords(mi)):
            return None
        return (mi, *ideals[0])

    def check(case):
        mi, coord, ideal = case
        doms = mi.base.domains
        red = build_lambda_J(mi.system, coord, ideal, doms[coord])
        checks = 0
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
        return checks + 1

    return _draw_loop("rj", trials, 400, "could not generate enough reducible instances", draw, check)


def suite_pullback(trials=25, seed=0) -> SuiteReport:
    """Every congruence class of a quotient split pulls back: each class of
    the split coordinate gives a k-minimal system whose every solution
    lifts to the source."""

    rng = random.Random(seed)
    base = switch_algebra(2)
    alg = product_algebra(base, base)

    def draw():
        cfg = GeneratorConfig(
            seed=rng.randrange(2**32),
            domain_size=alg.size,
            num_vars=rng.randint(4, 5),
            num_constraints=rng.randint(3, 5),
            max_arity=3,
            subpower_seeds=rng.randint(2, 4),
        )
        mi = _subdirect_system(gen_instance(alg, cfg), 3)
        if mi is None:
            return None
        doms = mi.base.domains
        coords = [i for i in range(len(doms)) if doms[i].size > 1 and not is_simple(doms[i])]
        return None if not coords else (mi, quotient_reduce(mi, coords[0]))

    def check(case):
        mi, plan = case
        source = effective_instance(mi)
        checks = 0
        for label in sorted(set(plan.maps[plan.coord])):
            mi2, maps = pullback(mi, plan, label)
            if len(maps[plan.coord]) >= mi.base.domains[plan.coord].size:
                _fail("pullback", f"class {label}: coordinate domain did not shrink")
            eff = effective_instance(mi2)
            if not is_k_minimal(eff, 3):
                _fail("pullback", f"class {label}: pulled-back system is not k-minimal")
            # every surviving assignment must solve the source system
            sizes = [d.size for d in mi2.base.domains]
            survivors = 0
            for assign in itertools.product(*(range(s) for s in sizes)):
                if not satisfies(eff, assign):
                    continue
                lifted = tuple(maps[v][assign[v]] for v in range(len(sizes)))
                if not satisfies(source, lifted):
                    _fail("pullback", f"class {label}: survivor does not solve the source system")
                survivors += 1
            if survivors == 0:
                _fail("pullback", f"class {label}: nonempty pulled-back system has no solutions")
            checks += 2 + survivors
        return checks

    exhausted = "could not generate enough quotient-reducible instances"
    return _draw_loop("pullback", trials, 400, exhausted, draw, check)


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
