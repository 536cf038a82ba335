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


def _is_closed(ops, sizes, rows) -> bool:
    """Whether every (arity m, per-coordinate tables) operation in ops,
    applied coordinatewise, maps rows^m into rows, a set of tuples in
    range for sizes."""
    for m, tables in ops:
        for chunk in _images(tables, sizes, [rows] * m):
            if not rows.issuperset(chunk):
                return False
    return True


def _first_not_invariant(checks):
    """Index of the first (relation, coordinate algebras) pair in checks
    whose relation some operation, applied coordinatewise, maps outside
    itself; None when every relation is invariant.

    Each pair must give one algebra per coordinate, algebras with the same
    operation names and each operation with one arity across them, and
    algebra sizes equal to the relation's; else ValueError is raised when
    that pair is reached, before it is checked.  Pairs are checked in
    order, and the work is shared between them:

    - the per-coordinate operation tables (_op_tables) are built once per
      distinct tuple of algebras;
    - a pair repeating an earlier (relation, algebras) pair is skipped;
    - a relation is split into its finest product blocks
      (_product_blocks), and a block's projection is imaged at most once
      per call for each distinct (block algebras, rows).

    A product of subuniverses is a subuniverse, and a projection of one is
    one, so a relation that is the product of its projections onto blocks
    of coordinates is invariant exactly when each projection is.  Each
    block's projection is checked on every argument list: an m-ary
    operation costs the sum over blocks B of |pi_B rel|^m images, in place
    of |rel|^m.  Two kinds of block need no check: one that is the full
    product of its domains, which every operation preserves, and one with
    a single tuple, which every operation fixes because Algebra requires
    idempotent operations.  A block's verdict depends only on its rows and
    on its coordinates' tables, which its coordinates' algebras fix, so a
    block already imaged with the same algebras and rows is not imaged
    again.  Algebras are told apart by identity, since hashing their
    tables would cost more than most checks; that is sound while the
    caller keeps every algebra of checks alive for the call, so that no
    identity is reused.  Tuples of a Relation lie in range by construction
    and the coordinate algebras must match its sizes, so the tables are
    indexed directly.
    """
    tables_of = {}
    # (algebra identities, row set) of every block and relation found invariant
    invariant = set()
    for index, (rel, algs) in enumerate(checks):
        if len(algs) != rel.arity:
            raise ValueError("one algebra per coordinate required")
        ids = tuple(map(id, algs))
        built = tables_of.get(ids)
        if built is None:
            built = tables_of[ids] = (_op_tables(algs), tuple(a.size for a in algs))
        ops, sizes = built
        if sizes != rel.sizes:
            raise ValueError("coordinate algebra size does not match relation")
        key = (ids, rel._set)
        if rel.is_empty or key in invariant:
            continue
        for block, block_size in _product_blocks(rel):
            block_sizes = tuple(sizes[i] for i in block)
            if block_size == 1 or block_size == math.prod(block_sizes):
                continue
            if len(block) == rel.arity:
                rows, block_key = rel._set, key
            else:
                rows = frozenset(tuple(t[i] for i in block) for t in rel.tuples)
                block_key = (tuple(ids[i] for i in block), rows)
                if block_key in invariant:
                    continue
            block_ops = [(m, tuple(tables[i] for i in block)) for m, tables in ops]
            if not _is_closed(block_ops, block_sizes, rows):
                return index
            invariant.add(block_key)
        invariant.add(key)
    return None


def is_invariant(rel: Relation, algs) -> bool:
    """Whether every stored operation, applied coordinatewise, maps the
    relation into itself.  One algebra per coordinate, same op names, each
    operation with one arity across the coordinates, sizes matching the
    relation's; else ValueError, also on an empty or full relation.

    The one-pair case of validate_invariance's checker
    (_first_not_invariant): the relation is checked factor by factor over
    its finest product blocks, and full or single-tuple blocks need no
    images.
    """
    return _first_not_invariant([(rel, tuple(algs))]) is None


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

    One pass of _first_not_invariant over the constraints, so each distinct
    scope-algebra tuple builds its tables once, a repeated (relation, scope
    algebras) pair is skipped, and each distinct (block algebras, rows)
    block is imaged once per call.  Validation stays exact: a ValueError
    for mismatched operation names, arities or sizes is raised at the
    first constraint that has them, and InvarianceViolation names the
    first constraint whose relation is not invariant.  The instance keeps
    its domain algebras alive for the call, so their identities can key
    the shared work.
    """
    constraints = inst.constraints
    bad = _first_not_invariant(
        (c.rel, scope_algebras(inst, c.scope)) for c in constraints
    )
    if bad is not None:
        raise InvarianceViolation(
            f"constraint on scope {constraints[bad].scope} is not preserved by the domain operations"
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
