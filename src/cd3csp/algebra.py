"""Finite idempotent algebras with a designated two-step Jonsson pair.

Elements of an algebra of size n are the integers 0..n-1.  Operations are
stored as dense row-major tables.  Every algebra designates two ternary
operations (j1, j2) that are expected to satisfy the chain identities

    j1(x,y,x) = x    j2(x,y,x) = x
    j1(x,x,y) = x    j2(x,x,y) = y
    j1(x,y,y) = j2(x,y,y)

checked by check_cd3.  The outer projections of the chain are implicit and
never stored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    Cd3Violation,
    EmptyDomain,
    EmptySubuniverse,
    NotACongruence,
    NotASubuniverse,
)


@dataclass(frozen=True)
class OperationTable:
    """A total finitary operation on {0..size-1}, row-major table."""

    arity: int
    size: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("operation arity must be at least 1")
        if self.size < 1:
            raise ValueError("operation needs a nonempty universe")
        expected = self.size**self.arity
        if len(self.table) != expected:
            raise ValueError(
                f"table has {len(self.table)} cells, expected {expected}"
            )
        for v in self.table:
            if not (0 <= v < self.size):
                raise ValueError(f"table value {v} out of range 0..{self.size - 1}")

    def __repr__(self):
        return f"OperationTable(arity={self.arity}, size={self.size})"

    def apply(self, *args: int) -> int:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        idx = 0
        for a in args:
            if not (0 <= a < self.size):
                raise ValueError(f"argument {a} out of range 0..{self.size - 1}")
            idx = idx * self.size + a
        return self.table[idx]

    @staticmethod
    def from_function(size: int, arity: int, fn) -> "OperationTable":
        cells = tuple(
            fn(*args) for args in itertools.product(range(size), repeat=arity)
        )
        return OperationTable(arity, size, cells)


def is_idempotent(op: OperationTable) -> bool:
    return all(op.apply(*([x] * op.arity)) == x for x in range(op.size))


@dataclass(frozen=True)
class Algebra:
    """A finite idempotent algebra with named operations.

    jonsson names the designated ternary pair; all ops are required to be
    idempotent at construction time.
    """

    size: int
    ops: tuple[tuple[str, OperationTable], ...]
    jonsson: tuple[str, str]

    def __post_init__(self):
        if self.size < 1:
            raise EmptyDomain("algebra universe is empty")
        if not isinstance(self.ops, tuple):
            object.__setattr__(self, "ops", tuple(self.ops))
        seen = set()
        for name, op in self.ops:
            if name in seen:
                raise ValueError(f"duplicate operation name {name!r}")
            seen.add(name)
            if op.size != self.size:
                raise ValueError(
                    f"operation {name!r} is over {op.size} elements, algebra has {self.size}"
                )
            if not is_idempotent(op):
                raise ValueError(f"operation {name!r} is not idempotent")
        for name in self.jonsson:
            if name not in seen:
                raise ValueError(f"designated operation {name!r} missing from ops")
            if self.op(name).arity != 3:
                raise ValueError(f"designated operation {name!r} must be ternary")

    def __repr__(self):
        names = ", ".join(name for name, _ in self.ops)
        return f"Algebra(size={self.size}, ops=[{names}], jonsson={self.jonsson})"

    @property
    def universe(self) -> range:
        return range(self.size)

    def op_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ops)

    def op(self, name: str) -> OperationTable:
        for n, t in self.ops:
            if n == name:
                return t
        raise KeyError(name)

    @property
    def j1(self) -> OperationTable:
        return self.op(self.jonsson[0])

    @property
    def j2(self) -> OperationTable:
        return self.op(self.jonsson[1])

    def apply(self, name: str, *args: int) -> int:
        return self.op(name).apply(*args)


@dataclass(frozen=True)
class Cd3Report:
    """Outcome of the chain-identity check; one witness per failed identity."""

    failures: tuple[tuple[str, tuple[int, int, int]], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def check_cd3(alg: Algebra) -> Cd3Report:
    """Verify the five chain identities, reporting the first bad cell of each.

    Cells are scanned with x outer and y inner, and the tables are read
    directly at the row-major index (x*n + y)*n + z of cell (x, y, z).
    """
    n1, n2 = alg.jonsson
    p, q = alg.op(n1).table, alg.op(n2).table
    n = alg.size
    pairs = [(x, y) for x in range(n) for y in range(n)]
    # each identity with a lazy scan of the cells that break it
    identities = (
        (f"{n1}(x,y,x)=x", ((x, y, x) for x, y in pairs if p[(x * n + y) * n + x] != x)),
        (f"{n2}(x,y,x)=x", ((x, y, x) for x, y in pairs if q[(x * n + y) * n + x] != x)),
        (f"{n1}(x,x,y)=x", ((x, x, y) for x, y in pairs if p[(x * n + x) * n + y] != x)),
        (f"{n2}(x,x,y)=y", ((x, x, y) for x, y in pairs if q[(x * n + x) * n + y] != y)),
        (
            f"{n1}(x,y,y)={n2}(x,y,y)",
            ((x, y, y) for x, y in pairs if p[(x * n + y) * n + y] != q[(x * n + y) * n + y]),
        ),
    )
    failures = []
    for label, bad_cells in identities:
        witness = next(bad_cells, None)
        if witness is not None:
            failures.append((label, witness))
    return Cd3Report(tuple(failures))


def require_cd3(alg: Algebra) -> None:
    report = check_cd3(alg)
    if not report.ok:
        raise Cd3Violation(f"chain identities fail: {report.failures}")


def subuniverse_closure(alg: Algebra, seed) -> frozenset[int]:
    """Least subuniverse containing seed; empty seed closes to the empty set.

    Each round applies every operation to all argument lists over the
    elements found so far, reading its table directly at the row-major
    indices ((x1*n + x2)*n + ...)*n + xm; the seed elements must be ints
    (bools are not) in range, so every index lies in range.  A set that
    holds the whole universe is closed, so the closure stops as soon as
    it does.
    """
    n = alg.size
    current = set()
    for x in seed:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"seed element {x!r} is not an int")
        if not (0 <= x < n):
            raise ValueError(f"seed element {x} out of range")
        current.add(x)
    grew = bool(current)
    while grew and len(current) < n:
        grew = False
        for _, op in alg.ops:
            elems = list(current)
            idx = elems
            for _ in range(op.arity - 1):
                idx = [i * n + x for i in idx for x in elems]
            table = op.table
            new = {table[i] for i in idx} - current
            if new:
                current |= new
                grew = True
                if len(current) == n:
                    break
    return frozenset(current)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


@dataclass(frozen=True)
class Congruence:
    """A partition of {0..size-1}, stored as a block label per element.

    Labels are canonical: block labels appear in first-occurrence order.
    """

    size: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        if len(self.blocks) != self.size:
            raise ValueError("one block label per element required")
        relabel = {}
        canon = []
        for b in self.blocks:
            if b not in relabel:
                relabel[b] = len(relabel)
            canon.append(relabel[b])
        object.__setattr__(self, "blocks", tuple(canon))

    @staticmethod
    def zero(size: int) -> "Congruence":
        return Congruence(size, tuple(range(size)))

    @staticmethod
    def one(size: int) -> "Congruence":
        return Congruence(size, (0,) * size)

    @staticmethod
    def from_pairs(size: int, pairs) -> "Congruence":
        uf = _UnionFind(size)
        for a, b in pairs:
            uf.union(a, b)
        return Congruence(size, tuple(uf.find(x) for x in range(size)))

    @property
    def num_blocks(self) -> int:
        return max(self.blocks) + 1 if self.blocks else 0

    @property
    def is_zero(self) -> bool:
        return self.num_blocks == self.size

    @property
    def is_one(self) -> bool:
        return self.num_blocks <= 1

    def related(self, a: int, b: int) -> bool:
        return self.blocks[a] == self.blocks[b]

    def classes(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.num_blocks)]
        for x, b in enumerate(self.blocks):
            out[b].append(x)
        return tuple(tuple(c) for c in out)

    def refines(self, other: "Congruence") -> bool:
        pairs = itertools.combinations(range(self.size), 2)
        return all(other.related(a, b) for a, b in pairs if self.related(a, b))


def _unary_translations(alg: Algebra) -> list[tuple[int, ...]]:
    """The distinct maps x -> f(c1,..,x,..,cm) from basic ops with constants.

    In a row-major table, the cells that differ only in one argument form a
    slice whose step is that argument's stride."""
    n = alg.size
    maps = set()
    for _, op in alg.ops:
        for pos in range(op.arity):
            stride = n ** (op.arity - 1 - pos)
            maps.update(
                tuple(op.table[i : i + n * stride : stride])
                for i in range(len(op.table))
                if i // stride % n == 0
            )
    return list(maps)


def _congruence_closure(translations, start: Congruence, seed_pairs) -> Congruence:
    """Least congruence containing a congruence start and the seed pairs,
    given the algebra's unary translations.

    An equivalence closed under all one-variable translations of basic ops
    is invariant under the ops themselves (change one argument at a time).
    start must be closed already: its blocks seed the union-find, each
    element pointing at the first element of its block, and only the seed
    pairs and the pairs they force are propagated.  When one pair merges
    two closed classes, every other pair crossing between them follows
    from that pair and pairs inside the classes, whose images are related
    already.
    """
    firsts = [c[0] for c in start.classes()]
    uf = _UnionFind(start.size)
    uf.parent = [firsts[b] for b in start.blocks]
    work = []
    for a, b in seed_pairs:
        if uf.union(a, b):
            work.append((a, b))
    while work:
        a, b = work.pop()
        for tr in translations:
            x, y = tr[a], tr[b]
            if uf.union(x, y):
                work.append((x, y))
    return Congruence(start.size, tuple(uf.find(x) for x in range(start.size)))


def principal_congruence(alg: Algebra, a: int, b: int) -> Congruence:
    """Least congruence collapsing a with b."""
    if not (0 <= a < alg.size and 0 <= b < alg.size):
        raise ValueError("elements out of range")
    zero = Congruence.zero(alg.size)
    return _congruence_closure(_unary_translations(alg), zero, [(a, b)])


def is_congruence(alg: Algebra, theta: Congruence) -> bool:
    """Whether theta is closed under the unary translations, which for an
    equivalence is the same as being compatible with the operations: theta
    must be the closure, from zero, of its own pairs that link each element
    to the first element of its block."""
    if theta.size != alg.size:
        return False
    pairs = [(c[0], x) for c in theta.classes() for x in c[1:]]
    zero = Congruence.zero(alg.size)
    return _congruence_closure(_unary_translations(alg), zero, pairs) == theta


def maximal_proper_congruence(alg: Algebra) -> Congruence | None:
    """A maximal congruence strictly below the full relation, or None.

    Starting from the zero congruence theta, scans the pairs in
    lexicographic order; for each pair theta does not relate, extends theta
    by that one pair and keeps the result when it is proper.  Returns None
    exactly when theta is still zero: no congruence lies strictly between
    zero and the full relation (simple algebras and one-element algebras).
    """
    translations = _unary_translations(alg)
    theta = Congruence.zero(alg.size)
    for a, b in itertools.combinations(alg.universe, 2):
        if theta.related(a, b):
            continue
        cand = _congruence_closure(translations, theta, [(a, b)])
        if not cand.is_one:
            theta = cand
    return None if theta.is_zero else theta


def is_simple(alg: Algebra) -> bool:
    """Size >= 2 with no congruence besides the two trivial ones, read off
    maximal_proper_congruence."""
    return alg.size >= 2 and maximal_proper_congruence(alg) is None


def quotient(alg: Algebra, theta: Congruence) -> tuple[Algebra, tuple[int, ...]]:
    """Quotient algebra and the element -> block projection map."""
    if not is_congruence(alg, theta):
        raise NotACongruence(f"{theta} is not a congruence of {alg}")
    proj = theta.blocks
    classes = theta.classes()
    reps = tuple(c[0] for c in classes)
    q = len(classes)
    new_ops = []
    for name, op in alg.ops:
        cells = tuple(
            proj[op.apply(*(reps[a] for a in args))]
            for args in itertools.product(range(q), repeat=op.arity)
        )
        new_ops.append((name, OperationTable(op.arity, q, cells)))
    return Algebra(q, tuple(new_ops), alg.jonsson), proj


def restrict(alg: Algebra, sub) -> tuple[Algebra, tuple[int, ...]]:
    """Restrict to a subuniverse; returns (subalgebra, new-index -> element)."""
    elems = tuple(sorted(set(sub)))
    if not elems:
        raise EmptySubuniverse("cannot restrict to the empty set")
    for x in elems:
        if not (0 <= x < alg.size):
            raise ValueError(f"element {x} out of range")
    index = {x: i for i, x in enumerate(elems)}
    new_ops = []
    for name, op in alg.ops:
        cells = []
        for args in itertools.product(elems, repeat=op.arity):
            v = op.apply(*args)
            if v not in index:
                raise NotASubuniverse(
                    f"{name}{args} = {v} escapes the set {set(elems)}"
                )
            cells.append(index[v])
        new_ops.append((name, OperationTable(op.arity, len(elems), tuple(cells))))
    return Algebra(len(elems), tuple(new_ops), alg.jonsson), elems


def product_algebra(a: Algebra, b: Algebra) -> Algebra:
    """Direct product; element (x, y) is encoded as x * b.size + y."""
    if a.op_names() != b.op_names() or a.jonsson != b.jonsson:
        raise ValueError("factors must share operation names")
    size = a.size * b.size
    new_ops = []
    for name, op_a in a.ops:
        op_b = b.op(name)
        if op_a.arity != op_b.arity:
            raise ValueError(f"operation {name!r} has mismatched arities")
        m = op_a.arity
        cells = []
        for args in itertools.product(range(size), repeat=m):
            xs = tuple(v // b.size for v in args)
            ys = tuple(v % b.size for v in args)
            cells.append(op_a.apply(*xs) * b.size + op_b.apply(*ys))
        new_ops.append((name, OperationTable(m, size, tuple(cells))))
    return Algebra(size, tuple(new_ops), a.jonsson)


def majority_algebra(size: int = 2) -> Algebra:
    """j1 = dual discriminator (a majority operation), j2 = third projection."""
    j1 = OperationTable.from_function(size, 3, lambda x, y, z: x if x == y else z)
    j2 = OperationTable.from_function(size, 3, lambda x, y, z: z)
    return Algebra(size, (("j1", j1), ("j2", j2)), ("j1", "j2"))


def switch_algebra(size: int = 2) -> Algebra:
    """j1 = first projection, j2 = switch: x when y = z, else z."""
    j1 = OperationTable.from_function(size, 3, lambda x, y, z: x)
    j2 = OperationTable.from_function(size, 3, lambda x, y, z: x if y == z else z)
    return Algebra(size, (("j1", j1), ("j2", j2)), ("j1", "j2"))
