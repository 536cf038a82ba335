"""Ideal structure induced by the designated ternary pair.

The derived multiplication x*y = j1(x,y,y) (= j2(x,y,y)) turns each
algebra into a groupoid; an ideal is a subuniverse closed under u*x for
every universe element u.  Ideals drive the first reduction of the solver:
entry systems restricted toward an ideal stay nonempty and compatible, and
when k is at least the squared largest domain size, whole constraint
relations can be filtered tuplewise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import Algebra, is_simple, subuniverse_closure
from .consistency import KSystem, _positions
from .errors import (
    Cd3Violation,
    InvarianceViolation,
    LemmaViolation,
    NotAnIdeal,
    NotSubdirect,
)
from .relation import Relation, is_invariant, is_subdirect


def mult(alg: Algebra, x: int, y: int) -> int:
    """Derived binary product; the two designated ops must agree on it.

    Both tables are read directly at the row-major index (x*n + y)*n + y
    of the cell (x, y, y), after a range check of x and y.
    """
    n = alg.size
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"arguments ({x},{y}) out of range 0..{n - 1}")
    i = (x * n + y) * n + y
    a = alg.j1.table[i]
    b = alg.j2.table[i]
    if a != b:
        raise Cd3Violation(
            f"designated pair disagrees on ({x},{y}): {alg.jonsson[0]}={a}, {alg.jonsson[1]}={b}"
        )
    return a


def jonsson_ideal(alg: Algebra, gens) -> frozenset[int]:
    """Least subuniverse containing gens closed under u*x for all u."""
    current = set(subuniverse_closure(alg, gens))
    changed = bool(current)
    while changed:
        changed = False
        for x in sorted(current):
            for u in alg.universe:
                v = mult(alg, u, x)
                if v not in current:
                    current.add(v)
                    changed = True
        if changed:
            grown = subuniverse_closure(alg, current)
            if grown != current:
                current = set(grown)
    return frozenset(current)


def is_jonsson_trivial(alg: Algebra) -> bool:
    """Every single element generates the whole algebra as an ideal, read
    off some_proper_ideal."""
    return some_proper_ideal(alg) is None


def some_proper_ideal(alg: Algebra) -> frozenset[int] | None:
    """Smallest proper singleton-generated ideal (least generator on ties)."""
    full = frozenset(alg.universe)
    best = None
    for b in alg.universe:
        j = jonsson_ideal(alg, {b})
        if j != full and (best is None or len(j) < len(best)):
            best = j
    return best


@dataclass(frozen=True)
class DistanceProfile:
    """Reachability layers of a binary relation, measured on the left domain.

    layers[k] holds the pairs of left-domain elements at distance <= k;
    layers[0] is the diagonal and layers[1] relates elements sharing a
    right neighbour.  dist maps each related pair to its least layer.
    """

    left_size: int
    layers: tuple[frozenset, ...]
    dist: dict

    @property
    def connected(self) -> bool:
        return len(self.dist) == self.left_size**2

    @property
    def diameter(self) -> int:
        return max(self.dist.values(), default=0)

    def distance(self, a: int, c: int) -> int | None:
        return self.dist.get((a, c))


def distance_profile(rel: Relation) -> DistanceProfile:
    """Layered distances between left-domain elements of a binary relation."""
    if rel.arity != 2:
        raise ValueError("distance profile needs a binary relation")
    n = rel.sizes[0]
    diagonal = frozenset((a, a) for a in range(n))
    by_right: dict[int, set] = {}
    for a, b in rel.tuples:
        by_right.setdefault(b, set()).add(a)
    step = set()
    for group in by_right.values():
        for a in group:
            for c in group:
                step.add((a, c))
    step = frozenset(step)
    layers = [diagonal, step]
    while True:
        prev = layers[-1]
        nxt = set(prev)
        for a, e in prev:
            for e2, c in step:
                if e == e2:
                    nxt.add((a, c))
        nxt = frozenset(nxt)
        if nxt == prev:
            break
        layers.append(nxt)
    dist = {}
    for k, layer in enumerate(layers):
        for p in layer:
            if p not in dist:
                dist[p] = k
    return DistanceProfile(n, tuple(layers), dist)


def _binary_shape(rel: Relation) -> str | tuple[int, ...] | None:
    """Read the shape of a binary relation: "full" for the whole product,
    the map sending each right element to its one left partner when that
    map is total and onto the left domain, or None for anything else."""
    na, nb = rel.sizes
    if len(rel) == na * nb:
        return "full"
    if len(rel) != nb:
        return None
    back = [None] * nb
    for a, b in rel.tuples:
        if back[b] is not None:
            return None
        back[b] = a
    return tuple(back) if len(set(back)) == na else None


def classify_binary(rel: Relation, alg_a: Algebra, alg_b: Algebra) -> str | tuple[int, ...]:
    """Shape of a subdirect invariant relation under a simple ideal-free left factor.

    Either "full" for the full product, or the onto homomorphism from the
    right factor to the left one whose graph the relation is, as read by
    _binary_shape (a subdirect graph is onto).  The graph of a total map is
    closed under an operation exactly when the map commutes with it, so the
    invariance check already makes the map a homomorphism.  Any other shape
    raises LemmaViolation.
    """
    if rel.arity != 2 or rel.sizes != (alg_a.size, alg_b.size):
        raise ValueError("relation shape does not match the two algebras")
    if not is_simple(alg_a):
        raise ValueError("left factor must be simple")
    if not is_jonsson_trivial(alg_a):
        raise ValueError("left factor must have no proper ideal")
    if not is_subdirect(rel, (alg_a, alg_b)):
        raise NotSubdirect("classification needs a subdirect relation")
    if not is_invariant(rel, (alg_a, alg_b)):
        raise InvarianceViolation("classification needs an invariant relation")

    shape = _binary_shape(rel)
    if shape is None:
        raise LemmaViolation(
            "relation is neither full nor functional: a right element has two left matches"
        )
    return shape


@dataclass(frozen=True)
class IdealReduction:
    """Ideal-restricted entry relations on all level-size variable sets."""

    lamj: dict

    @property
    def level(self) -> int:
        return len(next(iter(self.lamj)))


def build_lambda_J(
    system: KSystem,
    coord: int,
    ideal,
    algebra: Algebra,
) -> IdealReduction:
    """Restrict every level-size entry toward an ideal at one coordinate.

    Sets containing the coordinate are filtered directly; the others keep
    the tuples whose one-variable-removed projections extend into the
    already-filtered sets through the coordinate.  The construction is
    guaranteed to leave every entry nonempty, projecting exactly onto the
    ideal at the coordinate, with all pairwise projections compatible;
    failures raise LemmaViolation.
    """
    ideal = frozenset(ideal)
    if not ideal or not ideal < frozenset(algebra.universe):
        raise NotAnIdeal(f"{set(ideal)} is not a proper nonempty subset")
    if jonsson_ideal(algebra, ideal) != ideal:
        raise NotAnIdeal(f"{set(ideal)} is not closed as an ideal")
    level = system.level
    if level < 2:
        raise ValueError("entry system must have level at least 2")
    if not (0 <= coord < system.nvars):
        raise ValueError(f"coordinate {coord} out of range")
    for I in itertools.combinations(range(system.nvars), level):
        if I not in system.entries:
            raise ValueError(f"entry system is missing the set {I}")

    level_sets = system.level_sets()
    # lamj on a set through the coordinate, projected onto the other
    # variables: one set per (level-1)-subset not holding the coordinate
    lamj, allowed = {}, {}
    for I in level_sets:
        if coord in I:
            c = I.index(coord)
            entry = system.entry(I)
            kept = tuple(t for t in entry.tuples if t[c] in ideal)
            lamj[I] = Relation(entry.sizes, kept)
            allowed[I[:c] + I[c + 1 :]] = {t[:c] + t[c + 1 :] for t in kept}
    for I in (s for s in level_sets if coord not in s):
        entry = system.entry(I)
        conditions = [
            (pos, allowed[tuple(I[p] for p in pos)])
            for pos in itertools.combinations(range(len(I)), len(I) - 1)
        ]
        kept = tuple(
            t
            for t in entry.tuples
            if all(tuple(t[p] for p in pos) in allowed for pos, allowed in conditions)
        )
        lamj[I] = Relation(entry.sizes, kept)

    for I in level_sets:
        if lamj[I].is_empty:
            raise LemmaViolation(f"ideal restriction emptied the entry on {I}")
        if coord in I:
            c = I.index(coord)
            seen = {t[c] for t in lamj[I].tuples}
            if seen != ideal:
                raise LemmaViolation(
                    f"entry on {I} projects onto {seen} at the coordinate, expected {set(ideal)}"
                )
    _check_agreement(lamj)
    return IdealReduction(lamj)


def _check_agreement(lamj: dict) -> None:
    """Raise LemmaViolation, naming two disagreeing sets, unless every two
    sets of lamj agree on the variables they share.

    lamj holds a relation for every variable set of one size.  It is
    enough to compare the projections onto subsets one variable smaller
    than the sets: two sets sharing variables S are joined by a chain of
    sets that all contain S, each sharing all but one variable with the
    next, and agreement on those shared variables carries over to S along
    the chain.
    """
    seen: dict = {}
    for I, rel in lamj.items():
        for pos in itertools.combinations(range(len(I)), len(I) - 1):
            S = tuple(I[p] for p in pos)
            proj = frozenset(tuple(t[p] for p in pos) for t in rel.tuples)
            first, first_proj = seen.setdefault(S, (I, proj))
            if proj != first_proj:
                raise LemmaViolation(
                    f"restricted entries on {first} and {I} disagree on {S}"
                )


def _check_projects_back(rel: Relation, scope, lamj: dict) -> None:
    """Raise LemmaViolation unless rel, a relation on scope, projects
    exactly onto lamj's relation on every set of lamj's size in scope."""
    for I in itertools.combinations(scope, len(next(iter(lamj)))):
        pos = _positions(scope, I)
        if {tuple(t[p] for p in pos) for t in rel.tuples} != set(lamj[I].tuples):
            raise LemmaViolation(
                f"filtered constraint on {scope} does not project back onto a restricted entry"
            )


def reduce_constraint_RJ(
    rel: Relation, scope, reduction: IdealReduction, algs
) -> Relation:
    """Keep the tuples whose level-size projections all lie in the
    restricted entries.  Valid when the level is at least the squared
    largest domain size of the whole system, as `solve` requires of an
    instance with constraints wider than k; below it the filter is refused
    with ValueError.  The restricted entries cover every variable, so their
    sizes give the system's domains.  The result must project back onto
    the restricted entries and be preserved by algs, the algebras of the
    scope, else LemmaViolation."""
    biggest = max(
        itertools.chain(rel.sizes, *(lam.sizes for lam in reduction.lamj.values()))
    )
    if reduction.level < biggest * biggest:
        raise ValueError(
            f"tuplewise constraint filtering needs level >= {biggest * biggest}, got {reduction.level}"
        )
    scope = tuple(scope)
    if len(scope) != rel.arity:
        raise ValueError("scope length must match relation arity")
    checks = [
        (_positions(scope, I), reduction.lamj[I])
        for I in itertools.combinations(scope, reduction.level)
    ]
    kept = tuple(
        t
        for t in rel.tuples
        if all(tuple(t[p] for p in pos) in lam for pos, lam in checks)
    )
    out = Relation(rel.sizes, kept)
    if out.is_empty:
        raise LemmaViolation(f"constraint on {scope} emptied under the ideal filter")
    _check_projects_back(out, scope, reduction.lamj)
    if not is_invariant(out, algs):
        raise LemmaViolation(
            f"filtered constraint on {scope} is not preserved by the domain operations"
        )
    return out
