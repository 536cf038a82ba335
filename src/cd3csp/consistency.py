"""Propagation to a k-minimal fixpoint.

A k-minimal instance satisfies two conditions: every set of at most k
variables is covered by some constraint scope, and any two constraints
agree on projections onto shared variable sets of size at most k.  The
engine keeps an entry relation for every nonempty variable set of size at
most min(k, n) and runs a FIFO worklist over (constraint, subset) pairs
until nothing shrinks, building each entry when the worklist first
reaches it.  At the fixpoint each entry equals the projection of every
constraint covering it.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from .algebra import restrict
from .errors import EmptyDomain
from .relation import (
    Constraint,
    Instance,
    Relation,
    Signature,
    project,
)


@dataclass(frozen=True)
class KSystem:
    """Entry relations on the sets of at most level = min(k, nvars)
    variables: every level set is stored, smaller ones only in
    k_minimalize's result; every system past it (make_subdirect's and
    each reduction step's) stores exactly its level sets.  entry()
    derives a smaller one not stored as the projection of a level entry
    holding it; in a k-minimal system every such projection agrees.  The
    system of an emptied MinimalizedInstance is partial: it stores only
    the entries its propagation reached, and entry() must not be asked
    for others."""

    k: int
    nvars: int
    entries: dict

    @property
    def level(self) -> int:
        return min(self.k, self.nvars)

    def entry(self, subset) -> Relation:
        I = tuple(subset)
        # an unsorted set fails here, repeated or out-of-range variables at J
        if I in self.entries or not 0 < len(I) < self.level or list(I) != sorted(I):
            return self.entries[I]
        fill = (v for v in range(self.nvars) if v not in I)
        J = tuple(sorted(I + tuple(itertools.islice(fill, self.level - len(I)))))
        return project(self.entries[J], _positions(J, I))

    def level_sets(self):
        return tuple(s for s in self.entries if len(s) == self.level)


@dataclass(frozen=True)
class MinimalizedInstance:
    """A k-system plus the constraints wider than its level.

    base holds only the constraints whose scopes have more than
    system.level variables.  At a nonempty fixpoint every narrower
    constraint equals the entry on its scope, so the entries and base
    together carry the whole instance (see effective_instance).  An
    emptied one (certificate set) carries the scope that ran out of
    tuples; its system holds only the entries propagation reached.
    """

    base: Instance
    system: KSystem
    certificate: tuple[int, ...] | None = None

    @property
    def empty_flag(self) -> bool:
        return self.certificate is not None


def _positions(scope, subset):
    return tuple(scope.index(v) for v in subset)


def _intersect(a: Relation, b: Relation) -> Relation:
    if a.sizes != b.sizes:
        raise ValueError("cannot intersect relations of different shapes")
    return Relation(a.sizes, tuple(t for t in a.tuples if t in b))


def _merge_by_scope(pairs) -> dict:
    """Intersect the relations of (scope, relation) pairs sharing a scope."""
    merged: dict[tuple, Relation] = {}
    for scope, rel in pairs:
        merged[scope] = _intersect(merged[scope], rel) if scope in merged else rel
    return merged


class _Memo(dict):
    """A dict that computes a missing value once, as fn(key)."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Seeds(dict):
    """The seed of the entry on each variable set I, computed once.

    A seed depends only on the merged constraints and the seeds of
    smaller sets, never on the current entries.  base_cover[I] lists the
    (scope, positions of I) of the merged constraints holding I.
    """

    def __init__(self, sizes, merged, base_cover):
        super().__init__()
        self.sizes, self.merged, self.base_cover = sizes, merged, base_cover

    def __missing__(self, I):
        covers = self.base_cover.get(I)
        if covers:
            # the intersection of the covering constraints' projections
            acc = None
            for s, pos in covers:
                p = {tuple(t[q] for q in pos) for t in self.merged[s].tuples}
                acc = p if acc is None else acc & p
            tuples = tuple(sorted(acc))
        elif len(I) == 1:
            tuples = tuple((x,) for x in range(self.sizes[I[0]]))
        else:
            # no covering constraint: the product of the unary seeds,
            # filtered by the seeds on proper subsets
            values = [[x for (x,) in self[(v,)].tuples] for v in I]
            checks = [
                (itemgetter(*pos), self[tuple(I[q] for q in pos)])
                for r in range(2, len(I))
                for pos in itertools.combinations(range(len(I)), r)
            ]
            tuples = tuple(
                t
                for t in itertools.product(*values)
                if all(get(t) in E for get, E in checks)
            )
        rel = self[I] = Relation._trusted(tuple(self.sizes[v] for v in I), tuples)
        return rel


def _subsets(n, level):
    """The nonempty sets of at most level of n variables, by (size, lex)."""
    return (I for r in range(1, level + 1) for I in itertools.combinations(range(n), r))


def k_minimalize(inst: Instance, k: int) -> MinimalizedInstance:
    """Propagate to the k-minimal fixpoint.

    Constraints sharing a scope are merged by intersection first.  The
    result's base keeps only the merged constraints wider than the level:
    each narrower one was filtered against its own entry to the fixpoint
    and equals it.  A nonempty result stores an entry on every set of at
    most level variables, and none of them is empty: as soon as any
    relation runs out of tuples the result is emptied.  Its certificate is
    the scope that emptied, and its system holds only the entries the
    worklist reached, each as it stood at that pop; nothing may read other
    entries of an emptied system.

    The worklist is FIFO over (relation, subset) items.  The initial queue
    lists every relation's subsets, base scopes first and then the entries
    by (size, lex); it is walked by a cursor, and an entry, its seed and
    the relations covering it are built when the worklist first reaches
    them.  A seed depends only on the merged constraints and the seeds of
    smaller sets, so the pop order and every relation are those of a
    propagation that seeds all entries first.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = inst.nvars
    if n == 0:
        raise ValueError("instance has no variables")
    level = min(k, n)
    sizes = inst.sig.sizes

    merged = _merge_by_scope((c.scope, c.rel) for c in inst.constraints)
    base_scopes = sorted(merged, key=lambda s: (len(s), s))

    def positions(cid):
        # the entries a relation projects onto, by (size, lex), with their
        # positions in its scope; an entry does not project onto itself
        s = cid[1]
        top = len(s) - 1 if cid[0] == "e" else min(level, len(s))
        return {
            tuple(s[q] for q in pos): pos
            for r in range(1, top + 1)
            for pos in itertools.combinations(range(len(s)), r)
        }

    subs = _Memo(positions)
    base_cover: dict = {}
    for s in base_scopes:
        for I, pos in subs[("b", s)].items():
            base_cover.setdefault(I, []).append((s, pos))

    # no memo's function refers to its own memo, so nothing built here
    # outlives the call in a reference cycle
    seeds = _Seeds(sizes, merged, base_cover)

    # A relation is keyed ("b", scope) for a merged constraint, ("e", I)
    # for the entry on I; an entry starts from its seed when first read.
    rels = _Memo(lambda cid: seeds[cid[1]])
    rels.update((("b", s), merged[s]) for s in base_scopes)

    def finish(empty_scope):
        base = Instance(
            inst.sig,
            tuple(
                Constraint(s, rels[("b", s)]) for s in base_scopes if len(s) > level
            ),
            k,
        )
        if empty_scope is None:
            reached = _subsets(n, level)
        else:
            reached = sorted(
                (cid[1] for cid in rels if cid[0] == "e"), key=lambda I: (len(I), I)
            )
        system = KSystem(k, n, {I: rels[("e", I)] for I in reached})
        return MinimalizedInstance(base, system, empty_scope)

    for s in base_scopes:
        if merged[s].is_empty:
            return finish(s)

    def covering(I):
        # the relations whose scope holds I, in initial-queue order
        rest = [v for v in range(n) if v not in I]
        return [("b", s) for s, _ in base_cover.get(I, ())] + [
            ("e", tuple(sorted(I + extra)))
            for r in range(level - len(I) + 1)
            for extra in itertools.combinations(rest, r)
        ]

    cover = _Memo(covering)

    # The cursor is at relation `cur` (as a (kind, size, scope) rank) and
    # has handed out its subsets up to `last`; every item beyond it is
    # still pending, so pushing one must not queue it twice.
    cur = last = None

    def initial():
        nonlocal cur, last
        cids = itertools.chain(
            (("b", s) for s in base_scopes), (("e", I) for I in _subsets(n, level))
        )
        for cid in cids:
            cur = (cid[0], len(cid[1]), cid[1])
            for I in subs[cid]:
                last = (len(I), I)
                yield cid, I
        cur = ("z",)  # past every relation

    queue, queued = deque(), set()

    def requeued():
        while queue:
            item = queue.popleft()
            queued.discard(item)
            yield item

    def push(item):
        if item in queued:
            return
        cid, J = item
        rank = (cid[0], len(cid[1]), cid[1])
        if rank > cur or (rank == cur and (len(J), J) > last):
            return
        queued.add(item)
        queue.append(item)

    for cid, I in itertools.chain(initial(), requeued()):
        R = rels[cid]
        ekey = ("e", I)
        E = rels[ekey]
        pos = subs[cid][I]
        # one pass: every kept tuple's projection is in E, so the
        # projection set is a subset of E and shrank iff it is smaller
        keep, proj_set = [], set()
        for t in R.tuples:
            key = tuple(t[p] for p in pos)
            if key in E:
                keep.append(t)
                proj_set.add(key)
        changed_r = len(keep) < len(R.tuples)
        if changed_r:
            rels[cid] = Relation._trusted(R.sizes, tuple(keep))
            if not keep:
                return finish(cid[1])
        changed_e = len(proj_set) < len(E)
        if changed_e:
            rels[ekey] = Relation._trusted(
                E.sizes, tuple(t for t in E.tuples if t in proj_set)
            )
            if not proj_set:
                return finish(I)

        if changed_r:
            for J in subs[cid]:
                if J != I:
                    push((cid, J))
        if changed_e:
            for other in cover[I]:
                if other not in (cid, ekey):
                    push((other, I))
            for J in subs[ekey]:
                push((ekey, J))
    return finish(None)


def make_subdirect(mi: MinimalizedInstance):
    """Restrict every domain to its unary entry.

    Returns (instance, maps) where maps[i] sends new element indices of
    variable i back to the elements they came from, restrict's
    order-preserving injection.  The level entries and wide constraints
    are relabelled through the inverse maps; a relation whose variables
    all keep their domains is reused.  Relabelling per variable commutes
    with projection, so the system stays k-minimal and derives its lower
    entries.  A domain whose unary entry is all of it keeps its algebra
    and an identity map.  The result stores exactly the level entries,
    also when no domain shrinks.
    """
    if mi.empty_flag:
        raise EmptyDomain("cannot make an emptied system subdirect")
    doms = mi.base.sig.domains
    n = len(doms)
    values = []
    for i in range(n):
        vals = tuple(t[0] for t in mi.system.entry((i,)).tuples)
        if not vals:
            raise EmptyDomain(f"variable {i} has no remaining values")
        values.append(vals)

    new_doms, maps, index = list(doms), values, [None] * n
    for i in range(n):
        if len(values[i]) < doms[i].size:
            new_doms[i], maps[i] = restrict(doms[i], values[i])
            index[i] = {old: new for new, old in enumerate(maps[i])}

    def remap(rel: Relation, scope) -> Relation:
        if all(index[v] is None for v in scope):
            return rel
        fs = [range(s) if index[v] is None else index[v] for s, v in zip(rel.sizes, scope)]
        mapped = tuple(tuple(f[x] for f, x in zip(fs, t)) for t in rel.tuples)
        return Relation(tuple(new_doms[v].size for v in scope), mapped)

    base = Instance(
        Signature(tuple(new_doms)),
        tuple(Constraint(c.scope, remap(c.rel, c.scope)) for c in mi.base.constraints),
        mi.base.k,
    )
    entries = {I: remap(mi.system.entries[I], I) for I in mi.system.level_sets()}
    return MinimalizedInstance(base, KSystem(mi.system.k, mi.system.nvars, entries)), maps


def _from_level(mi: MinimalizedInstance, level_entries: dict, wide) -> MinimalizedInstance:
    """mi's system with these level entries and wide constraints, stored
    as given with no smaller entry; k-minimal if the level entries agree
    and each wide one projects back onto them."""
    base = Instance(mi.base.sig, tuple(wide), mi.base.k)
    system = KSystem(mi.system.k, mi.system.nvars, dict(level_entries))
    return MinimalizedInstance(base, system)


def effective_instance(mi: MinimalizedInstance) -> Instance:
    """The whole instance: every stored entry plus the constraints wider
    than the level.

    A narrower constraint equals its entry and an unstored entry is a
    projection of a stored one, so nothing is lost; the scopes are disjoint.
    """
    pairs = [*mi.system.entries.items(), *((c.scope, c.rel) for c in mi.base.constraints)]
    pairs.sort(key=lambda p: (len(p[0]), p[0]))
    return Instance(
        mi.base.sig, tuple(Constraint(s, rel) for s, rel in pairs), mi.base.k
    )


def is_k_minimal(inst: Instance, k: int) -> bool:
    """Check the two defining conditions directly."""
    n = inst.nvars
    level = min(k, n)
    scopes = [c.scope for c in inst.constraints]
    scope_sets = [set(s) for s in scopes]
    for r in range(1, level + 1):
        for I in itertools.combinations(range(n), r):
            if not any(set(I) <= s for s in scope_sets):
                return False
    for a in range(len(scopes)):
        for b in range(a + 1, len(scopes)):
            shared = tuple(sorted(scope_sets[a] & scope_sets[b]))
            if not shared:
                continue
            if len(shared) <= k:
                checks = [shared]
            else:
                checks = list(itertools.combinations(shared, k))
            for I in checks:
                pa = project(inst.constraints[a].rel, _positions(scopes[a], I))
                pb = project(inst.constraints[b].rel, _positions(scopes[b], I))
                if pa != pb:
                    return False
    return True
