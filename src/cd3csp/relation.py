"""Relations over products of finite domains, constraints and instances.

A Relation stores its tuples sorted lexicographically with duplicates
removed, so equality is structural.  Scopes are strictly increasing tuples
of variable indices; raw scopes with repeats or out-of-order variables are
normalized by constraint_from_raw.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .algebra import Algebra
from .errors import InvarianceViolation


@dataclass(frozen=True)
class Relation:
    sizes: tuple[int, ...]
    tuples: tuple[tuple[int, ...], ...]
    _set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("relations need at least one coordinate")
        canon = sorted(set(self.tuples))
        for t in canon:
            if len(t) != len(self.sizes):
                raise ValueError(f"tuple {t} has wrong arity")
            for v, s in zip(t, self.sizes):
                if not (0 <= v < s):
                    raise ValueError(f"tuple {t} out of domain range {self.sizes}")
        object.__setattr__(self, "tuples", tuple(canon))
        object.__setattr__(self, "_set", frozenset(canon))

    @classmethod
    def _trusted(cls, sizes, tuples) -> "Relation":
        """A relation from tuples already sorted, unique and in range for
        sizes, built without the checks of the public constructor."""
        rel = object.__new__(cls)
        object.__setattr__(rel, "sizes", sizes)
        object.__setattr__(rel, "tuples", tuples)
        object.__setattr__(rel, "_set", frozenset(tuples))
        return rel

    def __repr__(self):
        return f"Relation(sizes={self.sizes}, tuples={len(self.tuples)})"

    def __contains__(self, t) -> bool:
        return t in self._set

    def __len__(self) -> int:
        return len(self.tuples)

    @property
    def arity(self) -> int:
        return len(self.sizes)

    @property
    def is_empty(self) -> bool:
        return not self.tuples

    @staticmethod
    def full(sizes) -> "Relation":
        sizes = tuple(sizes)
        return Relation(sizes, tuple(itertools.product(*(range(s) for s in sizes))))

    @staticmethod
    def empty(sizes) -> "Relation":
        return Relation(tuple(sizes), ())


def project(rel: Relation, positions) -> Relation:
    """Project onto a strictly increasing list of coordinate positions."""
    positions = tuple(positions)
    if not positions:
        raise ValueError("cannot project onto no coordinates")
    if any(not (0 <= p < rel.arity) for p in positions):
        raise ValueError(f"positions {positions} out of range for arity {rel.arity}")
    if any(a >= b for a, b in zip(positions, positions[1:])):
        raise ValueError(f"positions must be strictly increasing, got {positions}")
    sizes = tuple(rel.sizes[p] for p in positions)
    return Relation(sizes, tuple(tuple(t[p] for p in positions) for t in rel.tuples))


def _op_tables(algs):
    """(arity, per-coordinate tables) for each operation the algebras share.

    Raises ValueError unless every coordinate algebra has the same
    operation names, each with one arity across all coordinates.
    """
    names = algs[0].op_names() if algs else ()
    for a in algs[1:]:
        if a.op_names() != names:
            raise ValueError("coordinate algebras must share operation names")
    ops = []
    for name in names:
        tables = tuple(a.op(name) for a in algs)
        arities = {t.arity for t in tables}
        if len(arities) != 1:
            raise ValueError(
                f"operation {name!r} has differing arities {sorted(arities)} across coordinates"
            )
        ops.append((tables[0].arity, tuple(t.table for t in tables)))
    return ops


def _images(tables, sizes, pools):
    """Images of the argument lists in pools[0] x pools[1] x ..., one chunk
    per row of pools[0].

    A chunk is an iterator of image tuples in itertools.product order.  It
    is computed column by column: per coordinate, one list of table indices
    built from the other pools' columns, then one lookup pass, and the
    coordinate columns are zipped into tuples.  Every row value must lie in
    range for its coordinate's table, so that index arithmetic never wraps
    into a wrong cell.
    """
    first, rest = pools[0], pools[1:]
    if not all(rest):
        return
    rest_cols = [tuple(zip(*pool)) for pool in rest]
    coords = tuple(zip(range(len(sizes)), sizes, tables))
    for row in first:
        cols = []
        for c, s, table in coords:
            idx = [row[c]]
            for pool_cols in rest_cols:
                col = pool_cols[c]
                idx = [i * s + x for i in idx for x in col]
            cols.append([table[i] for i in idx])
        yield zip(*cols)


def is_invariant(rel: Relation, algs) -> bool:
    """Whether every stored operation, applied coordinatewise, maps the
    relation into itself.  One algebra per coordinate, same op names, each
    operation with one arity across the coordinates.

    Every argument list is checked: an m-ary operation costs |rel|^m
    images.  Tuples of a Relation lie in range by construction and the
    coordinate algebras must match its sizes, so the tables are indexed
    directly.
    """
    algs = tuple(algs)
    if len(algs) != rel.arity:
        raise ValueError("one algebra per coordinate required")
    ops = _op_tables(algs)
    for a, s in zip(algs, rel.sizes):
        if a.size != s:
            raise ValueError("coordinate algebra size does not match relation")
    for m, tables in ops:
        for chunk in _images(tables, rel.sizes, [rel.tuples] * m):
            if not rel._set.issuperset(chunk):
                return False
    return True


def is_subdirect(rel: Relation, algs) -> bool:
    """Every coordinate projection covers its full domain."""
    algs = tuple(algs)
    if len(algs) != rel.arity:
        raise ValueError("one algebra per coordinate required")
    for c, a in enumerate(algs):
        seen = {t[c] for t in rel.tuples}
        if len(seen) != a.size:
            return False
    return True


def generated_subpower(algs, seeds) -> Relation:
    """Close a set of tuples under the coordinatewise operations.

    Semi-naive rounds: with `new` the tuples added in the previous round
    and `old` the ones before, an m-ary operation is applied at each
    position p to old rows before p, new rows at p and all rows after p.
    Every argument list holding a new row is tried exactly once, at its
    first new position, and no argument list is tried in two rounds, so
    the whole closure costs at most |result|^m images per m-ary operation.
    Seeds are range-checked, so the tables are indexed directly.
    """
    algs = tuple(algs)
    sizes = tuple(a.size for a in algs)
    width = len(algs)
    ops = _op_tables(algs)
    current = set()
    for t in seeds:
        t = tuple(t)
        if len(t) != width:
            raise ValueError(f"seed tuple {t} has wrong arity")
        for v, s in zip(t, sizes):
            if not (0 <= v < s):
                raise ValueError(f"seed tuple {t} out of domain range")
        current.add(t)
    old, new = [], list(current)
    while new:
        every = old + new
        images = set()
        for m, tables in ops:
            for p in range(m):
                pools = [old] * p + [new] + [every] * (m - 1 - p)
                for chunk in _images(tables, sizes, pools):
                    images.update(chunk)
        old = every
        new = list(images - current)
        current.update(new)
    return Relation(sizes, tuple(current))


@dataclass(frozen=True)
class Signature:
    """Per-variable domain algebras of an instance."""

    domains: tuple[Algebra, ...]

    def __post_init__(self):
        if not isinstance(self.domains, tuple):
            object.__setattr__(self, "domains", tuple(self.domains))
        names = self.domains[0].op_names() if self.domains else ()
        for a in self.domains[1:]:
            if a.op_names() != names:
                raise ValueError("domains must share operation names")

    @property
    def nvars(self) -> int:
        return len(self.domains)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.domains)


@dataclass(frozen=True)
class Constraint:
    scope: tuple[int, ...]
    rel: Relation

    def __post_init__(self):
        if not isinstance(self.scope, tuple):
            object.__setattr__(self, "scope", tuple(self.scope))
        if len(self.scope) != self.rel.arity:
            raise ValueError("scope length must match relation arity")
        if any(a >= b for a, b in zip(self.scope, self.scope[1:])):
            raise ValueError(f"scope must be strictly increasing, got {self.scope}")


def constraint_from_raw(scope, rel: Relation) -> Constraint:
    """Normalize a raw scope: fuse repeated variables, sort the rest."""
    scope = tuple(scope)
    if len(scope) != rel.arity:
        raise ValueError("scope length must match relation arity")
    out_scope = tuple(sorted(set(scope)))
    first_pos = {}
    for i, v in enumerate(scope):
        first_pos.setdefault(v, i)
    for i, v in enumerate(scope):
        if rel.sizes[i] != rel.sizes[first_pos[v]]:
            raise ValueError(f"repeated variable {v} with differing domain sizes")
    kept = []
    for t in rel.tuples:
        if all(t[i] == t[first_pos[v]] for i, v in enumerate(scope)):
            kept.append(tuple(t[first_pos[v]] for v in out_scope))
    sizes = tuple(rel.sizes[first_pos[v]] for v in out_scope)
    return Constraint(out_scope, Relation(sizes, tuple(kept)))


@dataclass(frozen=True)
class Instance:
    """A constraint satisfaction instance over per-variable finite algebras."""

    sig: Signature
    constraints: tuple[Constraint, ...]
    k: int | None = None

    def __post_init__(self):
        if not isinstance(self.constraints, tuple):
            object.__setattr__(self, "constraints", tuple(self.constraints))
        n = self.sig.nvars
        for c in self.constraints:
            if any(not (0 <= v < n) for v in c.scope):
                raise ValueError(f"scope {c.scope} out of range for {n} variables")
            expected = tuple(self.sig.domains[v].size for v in c.scope)
            if c.rel.sizes != expected:
                raise ValueError(
                    f"relation sizes {c.rel.sizes} do not match domains {expected} on {c.scope}"
                )

    @property
    def domains(self) -> tuple[Algebra, ...]:
        return self.sig.domains

    @property
    def nvars(self) -> int:
        return self.sig.nvars


def scope_algebras(inst: Instance, scope) -> tuple[Algebra, ...]:
    return tuple(inst.sig.domains[v] for v in scope)


def validate_invariance(inst: Instance) -> None:
    """Raise unless every constraint relation is preserved by its domains."""
    for c in inst.constraints:
        if not is_invariant(c.rel, scope_algebras(inst, c.scope)):
            raise InvarianceViolation(
                f"constraint on scope {c.scope} is not preserved by the domain operations"
            )


def satisfies(inst: Instance, assignment) -> bool:
    assignment = tuple(assignment)
    if len(assignment) != inst.nvars:
        return False
    for v, a in zip(assignment, inst.sig.domains):
        if not (0 <= v < a.size):
            return False
    for c in inst.constraints:
        if tuple(assignment[v] for v in c.scope) not in c.rel:
            return False
    return True
