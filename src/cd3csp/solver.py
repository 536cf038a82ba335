"""Decision pipeline for instances over algebras with a two-step chain.

The solver validates and propagates the input to a k-minimal fixpoint
once, then shrinks domains until the system is directly readable: restrict
a domain toward a proper ideal whenever one exists, otherwise split a
non-simple domain through a maximal congruence and restrict the split
coordinates to one congruence class.  Each step builds its smaller
k-system directly from the one before, checked, with no propagation and
no nested solve.  Once every domain is simple (or one-element) with no
proper ideal, the pairwise entries decompose into bijection graphs and
full products, and a lexicographically least assignment is assembled
classwise.  Every shape the theory guarantees is asserted, and a failed
assertion raises LemmaViolation out of solve, which has no exhaustive
fallback: brute_force_solve is only an independent oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (
    _UnionFind,
    check_cd3,
    is_simple,
    maximal_proper_congruence,
    quotient,
)
from .consistency import (
    MinimalizedInstance,
    _from_level,
    k_minimalize,
    make_subdirect,
)
from .errors import LemmaViolation, NotCd3
from .jonsson import (
    _binary_shape,
    _check_agreement,
    _check_projects_back,
    build_lambda_J,
    classify_binary,
    is_jonsson_trivial,
    reduce_constraint_RJ,
    some_proper_ideal,
)
from .relation import (
    Constraint,
    Instance,
    Relation,
    project,
    satisfies,
    scope_algebras,
    validate_invariance,
)


@dataclass(frozen=True)
class SolveOutcome:
    """A witness (solution) or, for UNSAT, the scope that emptied.

    fallback is always False: solve has no exhaustive fallback.  The field
    stays because the benchmark harness (perfbench/run.py) reads it.
    """

    solution: tuple[int, ...] | None
    certificate: tuple[int, ...] | None = None
    fallback: bool = False

    @property
    def sat(self) -> bool:
        return self.solution is not None


@dataclass(frozen=True)
class QuotientPlan:
    """How one non-simple coordinate splits the instance.

    maps has a key for the split coordinate and for every coordinate tied
    to it by a functional pairwise entry, and sends that coordinate's
    elements onto the split coordinate's quotient labels.  Every solution
    gives all plan coordinates one label; pullback pins one.
    """

    coord: int
    maps: dict


@dataclass(frozen=True)
class AlmostTrivialDecomposition:
    """Coordinate classes and the bijections tying each class together."""

    classes: tuple[tuple[int, ...], ...]
    bijections: dict


def brute_force_solve(inst: Instance) -> SolveOutcome:
    """Exhaustive search in lexicographic order; independent of the pipeline."""
    n = inst.nvars
    sizes = inst.sig.sizes
    by_last: dict[int, list] = {}
    for c in inst.constraints:
        by_last.setdefault(max(c.scope), []).append(c)

    assignment = [0] * n

    def extend(v):
        if v == n:
            return True
        for val in range(sizes[v]):
            assignment[v] = val
            ok = all(
                tuple(assignment[u] for u in c.scope) in c.rel
                for c in by_last.get(v, ())
            )
            if ok and extend(v + 1):
                return True
        return False

    if extend(0):
        return SolveOutcome(tuple(assignment))
    return SolveOutcome(None)


def _decompose(sizes, pair) -> AlmostTrivialDecomposition:
    """Split coordinates into classes glued by bijections, others free.

    pair(i, j) is the binary relation on coordinates i < j.  A pair is a
    bijection graph when _binary_shape reads a total onto map between
    domains of equal size; the map is inverted to run from i to j.
    Raises LemmaViolation when a pair is neither a bijection graph nor
    full, or when two coordinates of one class are not glued by a
    bijection.  Two coordinates of different classes are always free:
    every pair that is not full is a bijection and gets unioned, so every
    pair across two classes is full.
    """
    m = len(sizes)
    shapes = {}
    uf = _UnionFind(m)
    for i, j in itertools.combinations(range(m), 2):
        rel = pair(i, j)
        back = _binary_shape(rel)
        if back == "full":
            shapes[(i, j)] = "full"
        elif back is not None and rel.sizes[0] == rel.sizes[1]:
            shapes[(i, j)] = tuple(back.index(a) for a in range(len(back)))
            uf.union(i, j)
        else:
            raise LemmaViolation(
                f"pair ({i},{j}) is neither a bijection graph nor full"
            )
    groups: dict[int, list] = {}
    for i in range(m):
        groups.setdefault(uf.find(i), []).append(i)
    classes = tuple(tuple(g) for g in sorted(groups.values()))

    for cls in classes:
        for i, j in itertools.combinations(cls, 2):
            if shapes[(i, j)] == "full":
                raise LemmaViolation(
                    f"coordinates ({i},{j}) fall in one class but are not glued by a bijection"
                )

    bijections = {}
    for cls in classes:
        anchor = cls[0]
        bijections[(anchor, anchor)] = tuple(range(sizes[anchor]))
        for j in cls[1:]:
            bijections[(anchor, j)] = shapes[(anchor, j)]
    return AlmostTrivialDecomposition(classes, bijections)


def almost_trivial_decomposition(rel: Relation) -> AlmostTrivialDecomposition:
    """Split coordinates into classes glued by bijections, others free.

    Verifies that the relation is exactly the product of its classwise
    diagonal blocks; any mismatch raises LemmaViolation.
    """
    if rel.is_empty:
        raise LemmaViolation("cannot decompose an empty relation")
    deco = _decompose(rel.sizes, lambda i, j: project(rel, (i, j)))

    expected = set()
    choices = [range(rel.sizes[cls[0]]) for cls in deco.classes]
    for combo in itertools.product(*choices):
        t = [None] * rel.arity
        for cls, aval in zip(deco.classes, combo):
            for j in cls:
                t[j] = deco.bijections[(cls[0], j)][aval]
        expected.add(tuple(t))
    if expected != set(rel.tuples):
        raise LemmaViolation("relation is not the product of its classwise blocks")
    return deco


def base_case_solve(mi: MinimalizedInstance) -> tuple[int, ...]:
    """Assemble the least assignment of an ideal-free, simple-domain system.

    Decomposes the pairwise entries, anchors every bijection class at value
    0 and reads the other class members off the bijections, then checks
    the result against every wide constraint and stored entry (the level
    entries cover the smaller ones).  Raises LemmaViolation when the
    entries do not decompose or the assembled assignment misses a relation.
    """
    doms = mi.base.sig.domains
    n = len(doms)
    for i, a in enumerate(doms):
        if a.size >= 2 and not (is_simple(a) and is_jonsson_trivial(a)):
            raise ValueError(f"domain {i} is not simple with trivial ideal structure")
    if mi.empty_flag:
        raise ValueError("cannot assemble from an emptied system")
    if n == 1:
        return (mi.system.entry((0,)).tuples[0][0],)

    deco = _decompose(mi.base.sig.sizes, lambda i, j: mi.system.entry((i, j)))
    assignment = [None] * n
    for cls in deco.classes:
        for j in cls:
            assignment[j] = deco.bijections[(cls[0], j)][0]

    sol = tuple(assignment)
    wide = ((c.scope, c.rel) for c in mi.base.constraints)
    for scope, rel in itertools.chain(wide, mi.system.entries.items()):
        if tuple(sol[v] for v in scope) not in rel:
            raise LemmaViolation(f"assembled assignment violates the relation on {scope}")
    return sol


def _compose_maps(outer, inner):
    return [tuple(o[x] for x in i) for o, i in zip(outer, inner)]


def reduce_to_ideal(mi: MinimalizedInstance, coord: int, ideal):
    """Shrink one domain onto a proper ideal.

    Returns (instance, maps), the coordinate's domain landing on the
    ideal: build_lambda_J raises unless every level set through the
    coordinate projects onto exactly the ideal, and make_subdirect reads
    the coordinate's values off one of those sets.  build_lambda_J's level
    entries, checked to agree, and the wide constraints filtered by
    reduce_constraint_RJ, checked to project back onto them, make a
    k-minimal system with no propagation.  The filter needs k at least the
    squared largest domain size, else ValueError.
    """
    doms = mi.base.sig.domains
    red = build_lambda_J(mi.system, coord, ideal, doms[coord])
    wide = []
    for c in mi.base.constraints:
        algs = scope_algebras(mi.base, c.scope)
        wide.append(Constraint(c.scope, reduce_constraint_RJ(c.rel, c.scope, red, algs)))
    return make_subdirect(_from_level(mi, red.lamj, wide))


def quotient_reduce(mi: MinimalizedInstance, coord: int) -> QuotientPlan:
    """Plan a split through a maximal congruence on one non-simple domain.

    Classifies every pairwise entry against the quotient: coordinates tied
    by a functional shape join the split (their kernel is pulled in), the
    rest stay untouched.  Raises ValueError when some domain still has a
    proper ideal or this one has no proper congruence, and LemmaViolation
    when the quotient is not simple and ideal-free.
    """
    doms = mi.base.sig.domains
    for i, a in enumerate(doms):
        if not is_jonsson_trivial(a):
            raise ValueError(f"domain {i} still has a proper ideal; reduce it first")

    theta1 = maximal_proper_congruence(doms[coord])
    if theta1 is None:
        raise ValueError(f"domain {coord} has no proper congruence")
    qalg, proj = quotient(doms[coord], theta1)
    if not is_simple(qalg):
        raise LemmaViolation("quotient by a maximal congruence failed to be simple")
    if not is_jonsson_trivial(qalg):
        raise LemmaViolation("quotient lost ideal-freeness")

    maps = {coord: tuple(proj)}
    for i in range(len(doms)):
        if i == coord:
            continue
        pair = tuple(sorted((coord, i)))
        entry = mi.system.entry(pair)
        cpos = pair.index(coord)
        ipos = 1 - cpos
        lifted = Relation(
            (qalg.size, doms[i].size),
            tuple((proj[t[cpos]], t[ipos]) for t in entry.tuples),
        )
        shape = classify_binary(lifted, qalg, doms[i])
        if shape != "full":
            maps[i] = shape

    return QuotientPlan(coord, maps)


def pullback(mi: MinimalizedInstance, plan: QuotientPlan, label: int):
    """Restrict the split coordinates to one congruence class.

    Each plan variable keeps the elements its plan map sends to label;
    the other coordinates keep their full domains.  The system is built
    directly from the filtered level entries and wide constraints, checked
    to agree on shared variables and to project back onto each other, so
    it is k-minimal.  On a k-minimal subdirect system they do, whichever
    class is pinned:
    - each tuple of a relation gives all plan variables one label, since
      the plan maps are onto homomorphisms and, with k >= 3, the pair
      entries of two plan variables agree through coord;
    - for variables S outside the plan, the relation between the label
      and the values on S is subdirect and invariant with a simple left
      factor A/theta.  Were it not full, its kernel would be a maximal,
      so meet-irreducible, congruence of the entry on S; the variety is
      congruence distributive, so that kernel would lie above one
      coordinate's projection kernel (Jonsson's lemma), and
      classify_binary would have put that coordinate in the plan.  So
      every class meets every tuple on S, and the filtered relations
      agree.
    The pipeline takes label 0, the class of element 0.  A class that
    keeps the whole split domain raises LemmaViolation, so every pullback
    shrinks a domain.
    """
    doms = mi.base.sig.domains
    allowed = [
        frozenset(a for a in d.universe if i not in plan.maps or plan.maps[i][a] == label)
        for i, d in enumerate(doms)
    ]
    for i, block in enumerate(allowed):
        if not block:
            raise ValueError(f"label {label} selects an empty class at {i}")
    if len(allowed[plan.coord]) >= doms[plan.coord].size:
        raise LemmaViolation("pullback did not shrink the split coordinate")

    def filter_rel(rel: Relation, scope) -> Relation:
        kept = tuple(
            t for t in rel.tuples if all(x in allowed[v] for v, x in zip(scope, t))
        )
        if not kept:
            raise LemmaViolation(f"pullback emptied the relation on {scope}")
        return Relation(rel.sizes, kept)

    lamj = {I: filter_rel(mi.system.entry(I), I) for I in mi.system.level_sets()}
    _check_agreement(lamj)
    wide = [Constraint(c.scope, filter_rel(c.rel, c.scope)) for c in mi.base.constraints]
    for c in wide:
        _check_projects_back(c.rel, c.scope, lamj)
    return make_subdirect(_from_level(mi, lamj, wide))


def choose_k(inst: Instance) -> int:
    """The instance's own k when it sets one, else 3 for arity at most 3
    and the squared largest domain size (at least 3) above that."""
    if inst.k is not None:
        return inst.k
    arity = max((len(c.scope) for c in inst.constraints), default=1)
    if arity <= 3:
        return 3
    biggest = max(a.size for a in inst.sig.domains)
    return max(3, biggest * biggest)


def _reduce_step(mi: MinimalizedInstance):
    """Shrink one domain: onto a proper ideal if any domain has one, else
    to one congruence class of a non-simple domain.

    Returns (system, maps), or None when every domain is simple (or
    one-element) with no proper ideal.
    """
    doms = mi.base.sig.domains
    for i, a in enumerate(doms):
        ideal = some_proper_ideal(a)
        if ideal is not None:
            return reduce_to_ideal(mi, i, ideal)
    for i, a in enumerate(doms):
        if a.size >= 2 and not is_simple(a):
            return pullback(mi, quotient_reduce(mi, i), 0)
    return None


def _reduce(mi: MinimalizedInstance):
    """Apply reduction steps until none applies.

    Returns (last system, maps), where maps[i] sends the last system's
    elements of variable i back to mi's.  Every step shrinks a domain, so
    the loop ends: reduce_to_ideal lands on a proper ideal, and pullback
    raises unless the split coordinate shrinks.
    """
    total = [tuple(range(a.size)) for a in mi.base.sig.domains]
    while True:
        stepped = _reduce_step(mi)
        if stepped is None:
            return mi, total
        mi, step = stepped
        total = _compose_maps(total, step)


def solve(inst: Instance, k: int | None = None) -> SolveOutcome:
    """Decide an instance and produce a witness or an emptiness certificate.

    k defaults to choose_k: the instance's own k, else 3 for arity at most
    3 and the squared maximum domain size otherwise.  The reduction regime is derived, not chosen:
    constraints wider than k are filtered tuplewise, which is sound only
    when k is at least the squared maximum domain size, so an instance
    whose arity exceeds a smaller k is refused with ValueError.  Any
    guarantee that fails on the way raises LemmaViolation.
    """
    n = inst.nvars
    if n == 0:
        raise ValueError("instance has no variables")
    # each algebra once, by identity: hashing its tables costs more than
    # the check, and the instance keeps its algebras alive meanwhile
    checked = set()
    for i, a in enumerate(inst.sig.domains):
        if id(a) in checked:
            continue
        checked.add(id(a))
        report = check_cd3(a)
        if not report.ok:
            raise NotCd3(f"domain {i} fails the chain identities: {report.failures}")
    validate_invariance(inst)

    if k is None:
        k = choose_k(inst)
    if k < 3:
        raise ValueError("the pipeline needs k at least 3")
    arity = max((len(c.scope) for c in inst.constraints), default=1)
    biggest = max(a.size for a in inst.sig.domains)
    if arity > k and k < biggest * biggest:
        raise ValueError(
            f"arity {arity} exceeds k={k}; wide constraints need k >= {biggest * biggest}"
        )

    mi = k_minimalize(inst, k)
    if mi.empty_flag:
        return SolveOutcome(None, certificate=mi.certificate)
    mi, total = make_subdirect(mi)

    if n <= k:
        # at the fixpoint the top entry is exactly the solution set, and a
        # nonempty k_minimalize result has no empty entry
        local_sol = mi.system.entry(tuple(range(n))).tuples[0]
    else:
        mi, step = _reduce(mi)
        total = _compose_maps(total, step)
        local_sol = base_case_solve(mi)
    sol = tuple(total[i][x] for i, x in enumerate(local_sol))
    if not satisfies(inst, sol):
        raise LemmaViolation("assembled solution fails an original constraint")
    return SolveOutcome(sol)
