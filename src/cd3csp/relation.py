"""Relations over products of finite domains, constraints and instances.

A Relation stores its tuples sorted lexicographically with duplicates
removed, so equality is structural.  Scopes are strictly increasing tuples
of variable indices; raw scopes with repeats or out-of-order variables are
normalized by constraint_from_raw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter

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


def _product_blocks(rel: Relation):
    """The finest partition of a nonempty relation's coordinates into blocks
    B with rel equal to the product of its projections onto the blocks, as
    (sorted coordinates, |projection|) pairs.

    rel is contained in the product of its projections onto I and J for any
    split {I, J} of its coordinates, so it equals that product exactly when
    |pi_I rel| * |pi_J rel| = |rel|.  Only projection sizes are compared.
    The partitions a nonempty rel factors over are closed under meet, so a
    finest one exists.  Coordinates are added one at a time: the finest
    blocks of the first c + 1 coordinates are some of the finest blocks of
    the first c, kept apart, plus one block holding c and the others merged.
    The new coordinate's block starts with every earlier coordinate and
    drops an earlier block when the sizes multiply out, which keeps exactly
    the blocks that split off.  Arity n costs O(n^2) projections.
    """

    def size(coords):
        return len(set(map(itemgetter(*coords), rel.tuples)))

    blocks = []
    for c in range(rel.arity):
        joined = list(range(c + 1))
        joined_size = size(joined) if c + 1 < rel.arity else len(rel)
        kept = []
        for block, block_size in blocks:
            rest = [i for i in joined if i not in block]
            rest_size = size(rest)
            if rest_size * block_size == joined_size:
                kept.append((block, block_size))
                joined, joined_size = rest, rest_size
        blocks = kept + [(joined, joined_size)]
    return blocks


def is_invariant(rel: Relation, algs) -> bool:
    """Whether every stored operation, applied coordinatewise, maps the
    relation into itself.  One algebra per coordinate, same op names, each
    operation with one arity across the coordinates.

    A product of subuniverses is a subuniverse, and a projection of one is
    one, so a relation that is the product of its projections onto blocks
    of coordinates is invariant exactly when each projection is.  The
    relation is split into its finest such blocks (_product_blocks) and
    each block's projection is checked on every argument list: an m-ary
    operation costs the sum over blocks B of |pi_B rel|^m images, in place
    of |rel|^m.  Two kinds of block need no check: one that is the full
    product of its domains, which every operation preserves, and one with a
    single tuple, which every operation fixes because Algebra requires
    idempotent operations.  Tuples of a Relation lie in range by
    construction and the coordinate algebras must match its sizes, so the
    tables are indexed directly.
    """
    algs = tuple(algs)
    if len(algs) != rel.arity:
        raise ValueError("one algebra per coordinate required")
    ops = _op_tables(algs)
    for a, s in zip(algs, rel.sizes):
        if a.size != s:
            raise ValueError("coordinate algebra size does not match relation")
    if rel.is_empty:
        return True
    for block, block_size in _product_blocks(rel):
        sizes = tuple(rel.sizes[i] for i in block)
        if block_size == 1 or block_size == math.prod(sizes):
            continue
        rows = {tuple(t[i] for i in block) for t in rel.tuples}
        for m, tables in ops:
            block_tables = tuple(tables[i] for i in block)
            for chunk in _images(block_tables, sizes, [rows] * m):
                if not rows.issuperset(chunk):
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
    """Raise unless every constraint relation is preserved by its domains.

    Each distinct (relation, scope algebras) pair is checked once per call:
    a constraint repeating a pair already found invariant is skipped, and
    the first constraint whose pair is not invariant is the one reported.
    Algebras are told apart by identity, since hashing their tables would
    cost more than most checks; the instance keeps them alive for the call.
    """
    checked = set()
    for c in inst.constraints:
        algs = scope_algebras(inst, c.scope)
        key = (c.rel, tuple(map(id, algs)))
        if key in checked:
            continue
        if not is_invariant(c.rel, algs):
            raise InvarianceViolation(
                f"constraint on scope {c.scope} is not preserved by the domain operations"
            )
        checked.add(key)


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
