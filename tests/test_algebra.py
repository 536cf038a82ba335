"""Algebra layer: tables, identities, congruences, quotients, products."""

import itertools
import random

import pytest

from cd3csp import (
    Algebra,
    Cd3Report,
    Congruence,
    EmptyDomain,
    GeneratorConfig,
    NotACongruence,
    NotASubuniverse,
    OperationTable,
    check_cd3,
    gen_cd3_algebra,
    is_congruence,
    is_idempotent,
    is_simple,
    majority_algebra,
    maximal_proper_congruence,
    principal_congruence,
    product_algebra,
    quotient,
    require_cd3,
    restrict,
    subuniverse_closure,
    switch_algebra,
)
from cd3csp.algebra import _congruence_closure, _unary_translations
from cd3csp.errors import Cd3Violation

from tests.conftest import brute_compatible, brute_congruences, labels_of, all_partitions


def rand_algebras(count, sizes=(2, 3, 4), start=0):
    rng = random.Random(start)
    for _ in range(count):
        size = sizes[rng.randrange(len(sizes))]
        yield gen_cd3_algebra(GeneratorConfig(seed=rng.randrange(2**32), domain_size=size))


class TestOperationTable:
    def test_apply_matches_row_major_layout(self):
        op = OperationTable.from_function(3, 2, lambda x, y: (x + y) % 3)
        for x in range(3):
            for y in range(3):
                assert op.apply(x, y) == (x + y) % 3
                assert op.table[x * 3 + y] == (x + y) % 3

    def test_bad_table_length(self):
        with pytest.raises(ValueError):
            OperationTable(2, 2, (0, 1, 1))

    def test_out_of_range_value(self):
        with pytest.raises(ValueError):
            OperationTable(1, 2, (0, 5))

    def test_apply_argument_validation(self):
        op = OperationTable.from_function(2, 1, lambda x: x)
        with pytest.raises(ValueError):
            op.apply(0, 1)
        with pytest.raises(ValueError):
            op.apply(7)

    def test_idempotence_predicate(self):
        proj = OperationTable.from_function(2, 3, lambda x, y, z: x)
        const = OperationTable.from_function(2, 3, lambda x, y, z: 0)
        assert is_idempotent(proj)
        assert not is_idempotent(const)


class TestAlgebraConstruction:
    def test_requires_idempotent_ops(self):
        const = OperationTable.from_function(2, 3, lambda x, y, z: 0)
        proj = OperationTable.from_function(2, 3, lambda x, y, z: x)
        with pytest.raises(ValueError, match="not idempotent"):
            Algebra(2, (("j1", const), ("j2", proj)), ("j1", "j2"))

    def test_requires_designated_pair(self):
        proj = OperationTable.from_function(2, 3, lambda x, y, z: x)
        with pytest.raises(ValueError, match="missing"):
            Algebra(2, (("f", proj),), ("f", "g"))

    def test_rejects_duplicate_names(self):
        proj = OperationTable.from_function(2, 3, lambda x, y, z: x)
        with pytest.raises(ValueError, match="duplicate"):
            Algebra(2, (("j1", proj), ("j1", proj)), ("j1", "j1"))

    def test_rejects_empty_universe(self):
        with pytest.raises(EmptyDomain):
            Algebra(0, (), ("j1", "j2"))

    def test_rejects_nonternary_designated(self):
        una = OperationTable.from_function(2, 1, lambda x: x)
        proj = OperationTable.from_function(2, 3, lambda x, y, z: x)
        with pytest.raises(ValueError, match="ternary"):
            Algebra(2, (("j1", una), ("j2", proj)), ("j1", "j2"))


class TestChainIdentities:
    def test_builtin_algebras_pass(self):
        assert check_cd3(majority_algebra(2)).ok
        assert check_cd3(switch_algebra(2)).ok
        assert check_cd3(majority_algebra(3)).ok
        assert check_cd3(switch_algebra(3)).ok

    def test_projection_pair_fails_with_witness(self):
        # first and third projections satisfy everything except the shared cell
        p1 = OperationTable.from_function(2, 3, lambda x, y, z: x)
        p3 = OperationTable.from_function(2, 3, lambda x, y, z: z)
        alg = Algebra(2, (("j1", p1), ("j2", p3)), ("j1", "j2"))
        report = check_cd3(alg)
        assert not report.ok
        assert report.failures == ((("j1(x,y,y)=j2(x,y,y)"), (0, 1, 1)),)
        with pytest.raises(Cd3Violation):
            require_cd3(alg)

    def test_broken_cell_is_pinpointed(self):
        m = majority_algebra(2)
        table = list(m.j1.table)
        # j1(0,1,0) sits at row-major cell (0*2+1)*2+0; forcing it to 1 breaks x,y,x
        table[2] = 1
        bad = Algebra(
            2,
            (("j1", OperationTable(3, 2, tuple(table))), ("j2", m.j2)),
            ("j1", "j2"),
        )
        report = check_cd3(bad)
        labels = [f for f, _ in report.failures]
        assert "j1(x,y,x)=x" in labels
        witness = dict(report.failures)["j1(x,y,x)=x"]
        assert witness == (0, 1, 0)

    def test_report_pins_labels_order_and_first_witness(self):
        # majority on three elements with cells broken so that every
        # identity fails, some at two cells: the witness is the first bad
        # cell with x outer and y inner
        m = majority_algebra(3)
        p, q = list(m.j1.table), list(m.j2.table)

        def at(x, y, z):
            return (x * 3 + y) * 3 + z

        p[at(1, 2, 1)] = p[at(2, 0, 2)] = 0
        q[at(2, 1, 2)] = 1
        p[at(0, 0, 2)] = 2
        p[at(1, 1, 0)] = 0
        q[at(2, 2, 1)] = 0
        for cell in ((1, 0, 0), (0, 2, 2)):
            p[at(*cell)] = (q[at(*cell)] + 1) % 3
        alg = Algebra(
            3,
            (("j1", OperationTable(3, 3, tuple(p))), ("j2", OperationTable(3, 3, tuple(q)))),
            ("j1", "j2"),
        )
        assert check_cd3(alg) == Cd3Report(
            failures=(
                ("j1(x,y,x)=x", (1, 2, 1)),
                ("j2(x,y,x)=x", (2, 1, 2)),
                ("j1(x,x,y)=x", (0, 0, 2)),
                ("j2(x,x,y)=y", (2, 2, 1)),
                ("j1(x,y,y)=j2(x,y,y)", (0, 2, 2)),
            ),
        )

    def test_identities_hold_by_brute_force_on_generated(self):
        for alg in rand_algebras(40):
            p, q = alg.j1, alg.j2
            for x in alg.universe:
                for y in alg.universe:
                    assert p.apply(x, y, x) == x
                    assert q.apply(x, y, x) == x
                    assert p.apply(x, x, y) == x
                    assert q.apply(x, x, y) == y
                    assert p.apply(x, y, y) == q.apply(x, y, y)
            assert check_cd3(alg).ok


class TestSubuniverses:
    def test_closure_is_least_closed_superset(self):
        rng = random.Random(3)
        for alg in rand_algebras(25, sizes=(2, 3, 4), start=11):
            gens = frozenset(rng.sample(range(alg.size), rng.randint(0, alg.size)))
            got = subuniverse_closure(alg, gens)
            best = None
            for r in range(alg.size + 1):
                for sub in itertools.combinations(range(alg.size), r):
                    s = frozenset(sub)
                    if not gens <= s:
                        continue
                    closed = all(
                        alg.op(name).apply(*args) in s
                        for name in alg.op_names()
                        for args in itertools.product(sorted(s), repeat=alg.op(name).arity)
                    )
                    if closed and (best is None or len(s) < len(best)):
                        best = s
            assert got == best

    def test_empty_seed_closes_empty(self):
        assert subuniverse_closure(majority_algebra(2), ()) == frozenset()

    def test_out_of_range_seed(self):
        with pytest.raises(ValueError):
            subuniverse_closure(majority_algebra(2), (5,))


@pytest.fixture(scope="module")
def products_with_congruences():
    """Products with nontrivial congruences, each with its brute-force
    congruence labels: the zero, the two kernels and the full relation."""

    def gen(size, seed):
        return gen_cd3_algebra(GeneratorConfig(seed=seed, domain_size=size))

    d, m = switch_algebra(2), majority_algebra(2)
    algs = (
        product_algebra(d, d),
        product_algebra(m, m),
        product_algebra(m, d),
        product_algebra(gen(2, 0), gen(2, 1)),
        product_algebra(gen(3, 0), d),
    )
    return [(alg, brute_congruences(alg)) for alg in algs]


class TestCongruences:
    def test_canonical_labels(self):
        th = Congruence.from_pairs(3, [(2, 0)])
        assert th.blocks == (0, 1, 0)
        assert th.related(0, 2) and not th.related(0, 1)
        assert th.classes() == ((0, 2), (1,))

    def test_zero_one(self):
        z, o = Congruence.zero(3), Congruence.one(3)
        assert z.is_zero and not z.is_one
        assert o.is_one and not o.is_zero
        assert z.num_blocks == 3 and o.num_blocks == 1
        assert z.refines(o)

    def test_is_congruence_matches_brute_compatibility(self):
        rng = random.Random(5)
        checked_good = checked_bad = 0
        for alg in rand_algebras(20, sizes=(3, 4), start=21):
            for part in all_partitions(alg.size):
                lab = labels_of(part, alg.size)
                theta = Congruence(alg.size, lab)
                want = brute_compatible(alg, lab)
                assert is_congruence(alg, theta) == want
                checked_good += want
                checked_bad += not want
        assert checked_good and checked_bad

    def test_is_congruence_on_products(self, products_with_congruences):
        for alg, congs in products_with_congruences:
            assert len(congs) == 4
            for part in all_partitions(alg.size):
                lab = labels_of(part, alg.size)
                assert is_congruence(alg, Congruence(alg.size, lab)) == (lab in congs)

    def test_principal_and_maximal_on_products(self, products_with_congruences):
        for alg, congs in products_with_congruences:
            thetas = [Congruence(alg.size, lab) for lab in congs]
            for a, b in itertools.combinations(alg.universe, 2):
                above = [t for t in thetas if t.related(a, b)]
                got = principal_congruence(alg, a, b)
                assert got in above and all(got.refines(t) for t in above)
            got = maximal_proper_congruence(alg)
            proper = [t for t in thetas if not t.is_zero and not t.is_one]
            assert got in proper
            assert not any(got.refines(t) and t != got for t in proper)

    def test_closure_extends_a_closed_start(self, dd2sq):
        # in a product of simple algebras every congruence is principal, so
        # a maximal-congruence scan that closed each candidate from zero
        # would still find a maximal one; compare the closures directly
        alg = product_algebra(dd2sq, switch_algebra(2))
        translations = _unary_translations(alg)
        zero = Congruence.zero(alg.size)
        for a, b in itertools.combinations(alg.universe, 2):
            start = principal_congruence(alg, a, b)
            links = [(c[0], x) for c in start.classes() for x in c[1:]]
            for pair in itertools.combinations(alg.universe, 2):
                got = _congruence_closure(translations, start, [pair])
                assert got == _congruence_closure(translations, zero, [*links, pair])

    def test_principal_is_least_containing_pair(self, dd2sq):
        # frozen: collapsing (0,0)~(0,1) forces the first-projection kernel
        assert principal_congruence(dd2sq, 0, 1).blocks == (0, 0, 1, 1)
        for alg in rand_algebras(15, sizes=(3, 4), start=31):
            congs = brute_congruences(alg)
            for a in range(alg.size):
                for b in range(a + 1, alg.size):
                    got = principal_congruence(alg, a, b)
                    candidates = [
                        Congruence(alg.size, lab) for lab in congs if lab[a] == lab[b]
                    ]
                    least = [
                        c for c in candidates if all(c.refines(o) for o in candidates)
                    ]
                    assert len(least) == 1
                    assert got == least[0]

    def test_congruence_lattice_of_squares(self, dd2sq):
        assert brute_congruences(dd2sq) == {
            (0, 0, 0, 0),
            (0, 0, 1, 1),
            (0, 1, 0, 1),
            (0, 1, 2, 3),
        }
        m = majority_algebra(2)
        assert brute_congruences(product_algebra(m, m)) == {
            (0, 0, 0, 0),
            (0, 0, 1, 1),
            (0, 1, 0, 1),
            (0, 1, 2, 3),
        }

    def test_maximal_proper_congruence_property(self):
        for alg in rand_algebras(20, sizes=(2, 3, 4), start=41):
            got = maximal_proper_congruence(alg)
            congs = brute_congruences(alg)
            proper = [
                Congruence(alg.size, lab)
                for lab in congs
                if len(set(lab)) not in (1, alg.size)
            ]
            if got is None:
                assert not proper
            else:
                assert not got.is_zero and not got.is_one
                assert is_congruence(alg, got)
                # nothing proper strictly above it
                assert not any(
                    got.refines(other) and other != got for other in proper
                )

    def test_maximal_of_simple_is_none(self, maj2, dd2):
        assert maximal_proper_congruence(maj2) is None
        assert maximal_proper_congruence(dd2) is None

    def test_maximal_of_square_is_projection_kernel(self, dd2sq):
        assert maximal_proper_congruence(dd2sq).blocks == (0, 0, 1, 1)

    def test_maximal_choice_is_pinned(self, dd2sq):
        # which maximal congruence the lexicographic scan keeps, recorded
        # with the implementation that joined principal congruences
        maj2sq = product_algebra(majority_algebra(2), majority_algebra(2))

        def gen(size, seed):
            return gen_cd3_algebra(GeneratorConfig(seed=seed, domain_size=size))

        halves = (0,) * 8 + (1,) * 8
        pinned = (
            (product_algebra(dd2sq, switch_algebra(2)), (0, 0, 0, 0, 1, 1, 1, 1)),
            (product_algebra(maj2sq, dd2sq), halves),
            (product_algebra(dd2sq, maj2sq), halves),
            (product_algebra(gen(2, 0), gen(3, 0)), (0, 0, 0, 1, 1, 1)),
            (product_algebra(gen(3, 1), gen(2, 1)), (0, 0, 1, 1, 2, 2)),
        )
        for alg, blocks in pinned:
            assert maximal_proper_congruence(alg).blocks == blocks
        # every generated algebra of these seeds and sizes is simple
        for size in (3, 4):
            for seed in range(150):
                assert maximal_proper_congruence(gen(size, seed)) is None, (size, seed)


class TestSimplicityQuotientRestrict:
    def test_simplicity(self, maj2, dd2, dd2sq):
        assert is_simple(maj2)
        assert is_simple(dd2)
        assert not is_simple(dd2sq)
        trivial, _ = restrict(maj2, {0})
        assert not is_simple(trivial)

    def test_quotient_of_square_is_size_two(self, dd2sq):
        theta = maximal_proper_congruence(dd2sq)
        qalg, proj = quotient(dd2sq, theta)
        assert qalg.size == 2
        assert proj == (0, 0, 1, 1)
        assert check_cd3(qalg).ok
        assert is_simple(qalg)
        # quotient ops are well defined: recheck against representatives
        for name in dd2sq.op_names():
            op, qop = dd2sq.op(name), qalg.op(name)
            for args in itertools.product(dd2sq.universe, repeat=op.arity):
                assert qop.apply(*(proj[a] for a in args)) == proj[op.apply(*args)]

    def test_quotient_rejects_noncongruence(self, maj2):
        with pytest.raises(NotACongruence):
            quotient(product_algebra(maj2, maj2), Congruence(4, (0, 1, 1, 0)))

    def test_restrict_keeps_tables(self):
        alg = gen_cd3_algebra(GeneratorConfig(seed=1, domain_size=3))
        sub = sorted(subuniverse_closure(alg, {0, 1}))
        small, embed = restrict(alg, sub)
        assert small.size == len(sub)
        assert tuple(embed) == tuple(sub)
        for name in alg.op_names():
            op, sop = alg.op(name), small.op(name)
            for args in itertools.product(range(small.size), repeat=op.arity):
                assert embed[sop.apply(*args)] == op.apply(*(embed[a] for a in args))

    def test_restrict_rejects_nonclosed(self):
        # frozen: seed 0 at size 3 closes {0,2} to the whole universe
        alg = gen_cd3_algebra(GeneratorConfig(seed=0, domain_size=3))
        assert subuniverse_closure(alg, {0, 2}) == frozenset({0, 1, 2})
        with pytest.raises(NotASubuniverse):
            restrict(alg, {0, 2})


class TestProduct:
    def test_product_encoding_and_ops(self, maj2, dd2):
        prod = product_algebra(maj2, dd2)
        assert prod.size == 4
        for name in prod.op_names():
            for args in itertools.product(range(4), repeat=3):
                xs = [divmod(a, 2) for a in args]
                want = (
                    maj2.op(name).apply(*(p for p, _ in xs)) * 2
                    + dd2.op(name).apply(*(q for _, q in xs))
                )
                assert prod.op(name).apply(*args) == want

    def test_product_preserves_identities(self):
        for alg in rand_algebras(10, sizes=(2, 3), start=51):
            other = gen_cd3_algebra(GeneratorConfig(seed=99, domain_size=2))
            assert check_cd3(product_algebra(alg, other)).ok
