"""Relations, projections, invariance, subpower generation, instances."""

import collections
import itertools
import math
import random

import pytest

from cd3csp import (
    Algebra,
    Constraint,
    GeneratorConfig,
    Instance,
    InvarianceViolation,
    OperationTable,
    Relation,
    Signature,
    constraint_from_raw,
    gen_cd3_algebra,
    generated_subpower,
    is_invariant,
    is_subdirect,
    majority_algebra,
    product_algebra,
    project,
    restrict,
    satisfies,
    subuniverse_closure,
    switch_algebra,
    validate_invariance,
)
import cd3csp.relation as relation_mod

from tests.conftest import (
    EQ2,
    FULL2,
    NEQ2,
    brute_closure,
    assert_canonical,
    brute_invariant,
    mk_instance,
    planted_instance,
)


def with_extra_ops(alg, rng):
    """alg plus a unary and a random idempotent binary operation, so that
    operations of arity 1 and 2 go through the coordinatewise kernel."""
    n = alg.size
    unary = OperationTable.from_function(n, 1, lambda x: x)
    binary = OperationTable.from_function(
        n, 2, lambda x, y: x if x == y else rng.randrange(n)
    )
    return Algebra(n, alg.ops + (("u", unary), ("b", binary)), alg.jonsson)


def random_tuples(rng, sizes, expected=16):
    """Each tuple of the product kept with probability 1/2, or less on big
    products so that about `expected` tuples are kept."""
    cells = list(itertools.product(*(range(s) for s in sizes)))
    keep = min(0.5, expected / len(cells))
    return tuple(t for t in cells if rng.random() < keep)


def random_product(rng, bases, max_tuples=20):
    """A relation that is the product of two or three factors, with its
    coordinates shuffled, and its coordinate algebras; None when the
    product would hold more than max_tuples tuples.

    Each factor spans one or two coordinates, each over an algebra drawn
    from bases, all with extra operations or none.  A factor closes two
    random tuples under the operations, so it is invariant, except that
    half the time one factor is random tuples, often not invariant.
    """
    extra = rng.random() < 0.5
    factors = []
    for _ in range(rng.randint(2, 3)):
        algs = tuple(rng.choice(bases) for _ in range(rng.randint(1, 2)))
        if extra:
            algs = tuple(with_extra_ops(a, rng) for a in algs)
        seeds = [tuple(rng.randrange(a.size) for a in algs) for _ in range(2)]
        factors.append((algs, generated_subpower(algs, seeds).tuples))
    if rng.random() < 0.5:
        i = rng.randrange(len(factors))
        algs = factors[i][0]
        tuples = random_tuples(rng, tuple(a.size for a in algs), expected=3)
        factors[i] = (algs, tuples or ((0,) * len(algs),))
    if math.prod(len(rows) for _, rows in factors) > max_tuples:
        return None
    algs = tuple(a for f_algs, _ in factors for a in f_algs)
    # coordinate i of the result is coordinate perm[i] of the factors' concatenation
    perm = list(range(len(algs)))
    rng.shuffle(perm)
    tuples = []
    for rows in itertools.product(*(rows for _, rows in factors)):
        t = tuple(itertools.chain(*rows))
        tuples.append(tuple(t[i] for i in perm))
    return Relation(tuple(algs[i].size for i in perm), tuple(tuples)), tuple(algs[i] for i in perm)


class TestRelation:
    def test_canonical_dedup_and_sort(self):
        r = Relation((2, 2), ((1, 1), (0, 0), (1, 1)))
        assert r.tuples == ((0, 0), (1, 1))
        assert (1, 1) in r and (0, 1) not in r
        assert len(r) == 2 and r.arity == 2 and not r.is_empty

    def test_full_and_empty(self):
        assert Relation.full((2, 2)).tuples == FULL2
        assert Relation.empty((3,)).is_empty

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Relation((2,), ((2,),))

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            Relation((2, 2), ((0,),))

    def test_project(self):
        r = Relation((2, 2, 2), ((0, 1, 0), (1, 1, 1)))
        assert project(r, (0, 2)).tuples == ((0, 0), (1, 1))
        assert project(r, (1,)).tuples == ((1,),)

    def test_projector_returns_tuples(self):
        t = (5, 6, 7)
        assert relation_mod._projector((1,))(t) == (6,)
        assert relation_mod._projector((0, 2))(t) == (5, 7)
        assert relation_mod._projector((2, 0, 1))(t) == (7, 5, 6)

    def test_project_is_canonical(self):
        rng = random.Random(44)
        for _ in range(60):
            sizes = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            cells = list(itertools.product(*map(range, sizes)))
            r = Relation(sizes, tuple(t for t in cells if rng.random() < 0.5))
            r_pos = rng.randint(1, len(sizes))
            positions = sorted(rng.sample(range(len(sizes)), r_pos))
            got = project(r, positions)
            assert_canonical(got)
            assert got == Relation(
                tuple(sizes[p] for p in positions),
                tuple(tuple(t[p] for p in positions) for t in r.tuples),
            )

    def test_project_requires_increasing_positions(self):
        r = Relation.full((2, 2))
        with pytest.raises(ValueError):
            project(r, (1, 0))
        with pytest.raises(ValueError):
            project(r, (0, 0))


class TestInvariance:
    def test_all_binary_boolean_relations_invariant_under_majority(self, maj2):
        cells = list(itertools.product(range(2), repeat=2))
        for mask in range(1, 16):
            tuples = tuple(cells[i] for i in range(4) if mask >> i & 1)
            assert is_invariant(Relation((2, 2), tuples), (maj2, maj2))

    def test_one_in_three_not_invariant_under_majority(self, maj2):
        rel = Relation((2, 2, 2), ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
        assert not is_invariant(rel, (maj2,) * 3)
        assert not brute_invariant(rel, (maj2,) * 3)

    def test_matches_brute_checker_on_random_relations(self, dd2, dd2sq):
        rng = random.Random(23)
        verdicts = collections.Counter()
        for _ in range(150):
            arity = rng.randint(1, 4)
            shape = rng.choice(("generated", "mixed sizes", "extra ops", "product"))
            if shape == "product":
                bases = (dd2, dd2sq) + tuple(
                    gen_cd3_algebra(GeneratorConfig(seed=rng.randrange(2**32), domain_size=size))
                    for size in (2, 3)
                )
                drawn = random_product(rng, bases)
                if drawn is None:
                    continue
                rel, algs = drawn
            else:
                if shape == "mixed sizes":
                    algs = tuple(rng.choice((dd2, dd2sq)) for _ in range(arity))
                else:
                    alg = gen_cd3_algebra(
                        GeneratorConfig(
                            seed=rng.randrange(2**32), domain_size=rng.choice((2, 3))
                        )
                    )
                    if shape == "extra ops":
                        alg = with_extra_ops(alg, rng)
                    algs = (alg,) * arity
                sizes = tuple(a.size for a in algs)
                tuples = random_tuples(rng, sizes)
                if not tuples:
                    continue
                rel = Relation(sizes, tuples)
            got = is_invariant(rel, algs)
            want = brute_invariant(rel, algs)
            assert got == want, (shape, rel.sizes, rel.tuples)
            verdicts[shape, want] += 1
        assert verdicts["product", True] and verdicts["product", False]
        assert sum(n for (shape, want), n in verdicts.items() if shape != "product" and want)
        assert sum(n for (shape, want), n in verdicts.items() if shape != "product" and not want)

    def test_large_products_of_generated_algebras(self):
        # relations of 54, 162 and 54 tuples over a size-9 product algebra,
        # each the product of its one-coordinate projections, so is_invariant
        # checks them factor by factor and generated_subpower stops at its bound
        def gen(seed):
            return gen_cd3_algebra(GeneratorConfig(seed=seed, domain_size=3))

        alg = product_algebra(gen(0), gen(3))
        inst = planted_instance(random.Random(0), alg, 5, (3, 3, 2), 1)
        assert [len(c.rel) for c in inst.constraints] == [54, 162, 54]
        # a two-element set of the domain that is not a subuniverse
        bad = next(
            pair
            for pair in itertools.combinations(range(alg.size), 2)
            if subuniverse_closure(alg, pair) != set(pair)
        )
        assert not brute_invariant(Relation((alg.size,), tuple((v,) for v in bad)), (alg,))
        for c in inst.constraints:
            algs = (alg,) * c.rel.arity
            assert is_invariant(c.rel, algs)
            for p in range(c.rel.arity):
                # the product of the other coordinates' projection with bad
                swapped = {t[:p] + (v,) + t[p + 1 :] for t in c.rel.tuples for v in bad}
                assert not is_invariant(Relation(c.rel.sizes, tuple(swapped)), algs)

    def test_subdirect(self, dd2):
        assert is_subdirect(Relation((2, 2), NEQ2), (dd2, dd2))
        assert not is_subdirect(Relation((2, 2), ((0, 0),)), (dd2, dd2))


class ImageSpy:
    """Stands in for relation._images and records, per call, the lengths
    of its pools and the number of chunks the caller pulled from it."""

    def __init__(self, monkeypatch):
        self.calls = []
        images = relation_mod._images

        def spy(tables, sizes, pools):
            call = [tuple(map(len, pools)), 0]
            self.calls.append(call)
            for chunk in images(tables, sizes, pools):
                call[1] += 1
                yield chunk

        monkeypatch.setattr(relation_mod, "_images", spy)

    def last_round(self, arities):
        """(rows in the first pools, chunks pulled) of the last round of
        generated_subpower's recorded calls, for operations of these
        arities, the first at least binary.

        A round makes one call per operation and position, in order, and
        its first call's pools are new rows then every row; at position p
        the first pool is the new rows when p = 0 and the old rows after.
        The last round may stop early, so its rows are counted from its
        first call, not from the calls made.
        """
        per_round = sum(arities)
        last = self.calls[(len(self.calls) - 1) // per_round * per_round :]
        new, every = last[0][0][:2]
        rows = sum(new + (m - 1) * (every - new) for m in arities)
        return rows, sum(pulled for _, pulled in last)


def bound_exit_draws(rng):
    """(shape, coordinate algebras, seeds) draws, many of whose closures
    fill the product of their coordinate closures before a round ends."""

    def gen(size):
        return gen_cd3_algebra(GeneratorConfig(seed=rng.randrange(2**32), domain_size=size))

    switch = switch_algebra(2)
    switch_sq = product_algebra(switch, switch)
    # a size-3 algebra beside its restriction to a proper two-element subuniverse
    sorts = []
    while len(sorts) < 3:
        alg = gen(3)
        pairs = [
            p for p in itertools.combinations(range(3), 2) if subuniverse_closure(alg, p) == set(p)
        ]
        if pairs:
            sorts.append((alg, restrict(alg, rng.choice(pairs))[0]))
    draws = []
    for _ in range(12):
        base = rng.choice((switch_sq, product_algebra(gen(2), gen(2))))
        algs = (base,) * rng.randint(1, 2)
        draws.append(("product", algs))
        algs = list(rng.choice(sorts)) + [rng.choice(sorts)[0]] * rng.randint(0, 1)
        rng.shuffle(algs)
        draws.append(("sorts", tuple(algs)))
        base = gen(2)
        algs = tuple(rng.choice((base, switch)) for _ in range(rng.randint(2, 4)))
        draws.append(("wide", algs))
    out = []
    for shape, algs in draws:
        seeds = [tuple(rng.randrange(a.size) for a in algs) for _ in range(rng.randint(2, 4))]
        out.append((shape, algs, seeds))
    # graphs of bijections, whose closures need not be coordinate products
    for alg in (switch, switch_sq, gen(3), gen(3)):
        for _ in range(3):
            perm = list(range(alg.size))
            rng.shuffle(perm)
            seeds = [(x, perm[x]) for x in rng.sample(range(alg.size), rng.randint(2, alg.size))]
            out.append(("graph", (alg, alg), seeds))
    return out


class TestGeneratedSubpower:
    def test_matches_naive_fixpoint(self):
        rng = random.Random(31)
        for _ in range(40):
            width = rng.randint(1, 3)
            algs = tuple(
                gen_cd3_algebra(
                    GeneratorConfig(seed=rng.randrange(2**32), domain_size=rng.choice((2, 3)))
                )
                for _ in range(width)
            )
            if rng.random() < 0.5:
                algs = tuple(with_extra_ops(a, rng) for a in algs)
            seeds = [
                tuple(rng.randrange(a.size) for a in algs)
                for _ in range(rng.randint(1, 3))
            ]
            got = generated_subpower(algs, seeds)
            assert set(got.tuples) == brute_closure(algs, seeds)
            assert is_invariant(got, algs)

    def test_bound_exit_matches_brute_closure(self, monkeypatch):
        # each draw is compared with the brute closure; the spy tells which
        # draws filled the product of their coordinate closures mid-round
        spy = ImageSpy(monkeypatch)
        mid_round, not_product = collections.Counter(), collections.Counter()
        for shape, algs, seeds in bound_exit_draws(random.Random(47)):
            spy.calls.clear()
            got = set(generated_subpower(algs, seeds).tuples)
            assert got == brute_closure(algs, seeds), (shape, seeds)
            if len(got) < math.prod(len({t[i] for t in got}) for i in range(len(algs))):
                not_product[shape] += 1
            elif spy.calls:
                rows, pulled = spy.last_round([algs[0].op(n).arity for n in algs[0].op_names()])
                mid_round[shape] += pulled < rows
        for shape in ("product", "sorts", "wide", "graph"):
            assert mid_round[shape], shape
        assert not_product["graph"]

    def test_bound_exit_requests_fewer_images(self, monkeypatch):
        spy = ImageSpy(monkeypatch)
        switch = switch_algebra(2)
        switch_sq = product_algebra(switch, switch)
        alg = gen_cd3_algebra(GeneratorConfig(seed=0, domain_size=3))
        # seeds that already are the product of their coordinate closures
        for algs, seeds in (
            ((switch, switch), FULL2),
            ((switch_sq, switch), [(x, 1) for x in range(4)]),
            ((alg, alg, alg), [(x, 2, 1) for x in range(3)]),
        ):
            assert set(generated_subpower(algs, seeds).tuples) == set(seeds)
            assert spy.calls == []
        # fills the 9-tuple product in the second round, after its first chunk
        seeds = [(1, 0), (1, 2), (2, 0)]
        got = generated_subpower((alg, alg), seeds)
        assert len(got) == 9 and set(got.tuples) == brute_closure((alg, alg), seeds)
        rows, pulled = spy.last_round([alg.op(n).arity for n in alg.op_names()])
        assert pulled < rows

    def test_operation_arity_must_agree_across_coordinates(self, dd2):
        unary = Algebra(
            2,
            dd2.ops + (("f", OperationTable.from_function(2, 1, lambda x: x)),),
            dd2.jonsson,
        )
        binary = Algebra(
            2,
            dd2.ops + (("f", OperationTable.from_function(2, 2, lambda x, y: x)),),
            dd2.jonsson,
        )
        for algs in ((unary, binary), (binary, unary)):
            with pytest.raises(ValueError, match="arities"):
                generated_subpower(algs, [(0, 1)])
            with pytest.raises(ValueError, match="arities"):
                is_invariant(Relation((2, 2), ((0, 1),)), algs)
            with pytest.raises(ValueError, match="arities"):
                is_invariant(Relation.empty((2, 2)), algs)
            with pytest.raises(ValueError, match="arities"):
                is_invariant(Relation.full((2, 2)), algs)

    def test_seed_validation(self, dd2):
        with pytest.raises(ValueError):
            generated_subpower((dd2, dd2), [(0,)])
        with pytest.raises(ValueError):
            generated_subpower((dd2, dd2), [(0, 2)])
        # values that are not ints, bools included, are rejected up front
        for bad in (1.0, True, "1", None):
            with pytest.raises(ValueError, match="not an int"):
                generated_subpower((dd2,), [(bad,)])
            with pytest.raises(ValueError, match="not an int"):
                generated_subpower((dd2, dd2), [(0, 1), (0, bad)])
            with pytest.raises(ValueError, match="not an int"):
                subuniverse_closure(dd2, [0, bad])

    def test_empty_seed_list(self, dd2):
        assert generated_subpower((dd2, dd2), []).is_empty


def naive_images(ops, pools):
    """One list of images per row of pools[0], in itertools.product order
    over the later pools, each cell read through OperationTable.apply; no
    chunk at all when a later pool is empty.  ops holds one table per
    coordinate."""
    if not all(pools[1:]):
        return []
    return [
        [
            tuple(op.apply(*(args[c] for args in (row, *rest))) for c, op in enumerate(ops))
            for rest in itertools.product(*pools[1:])
        ]
        for row in pools[0]
    ]


def kernel_chunks(ops, pools):
    sizes = tuple(op.size for op in ops)
    return [list(chunk) for chunk in relation_mod._images([op.table for op in ops], sizes, pools)]


def random_rows(rng, sizes, count):
    return [tuple(rng.randrange(s) for s in sizes) for _ in range(count)]


class TestImages:
    """relation._images against naive_images, chunk by chunk: the chunk
    order decides where generated_subpower stops on its bound."""

    def test_random_tables_of_every_arity_over_mixed_sizes(self):
        rng = random.Random(41)
        for _ in range(60):
            m = rng.randint(1, 4)
            sizes = tuple(rng.choice((1, 2, 3, 4)) for _ in range(rng.randint(1, 3)))
            ops = [
                OperationTable(m, s, tuple(rng.randrange(s) for _ in range(s**m)))
                for s in sizes
            ]
            # unequal pools, each row value repeated across rows
            pools = [random_rows(rng, sizes, rng.randint(1, 5)) for _ in range(m)]
            assert kernel_chunks(ops, pools) == naive_images(ops, pools)

    def test_product_and_restricted_coordinates(self):
        rng = random.Random(42)
        a3 = gen_cd3_algebra(GeneratorConfig(seed=4, domain_size=3))
        prod = product_algebra(a3, switch_algebra(2))
        sub, _ = restrict(prod, (0, 2, 4))
        algs = (prod, sub, a3)
        sizes = tuple(a.size for a in algs)
        for name in prod.op_names():
            ops = [a.op(name) for a in algs]
            m = ops[0].arity
            for _ in range(10):
                pools = [random_rows(rng, sizes, rng.randint(1, 7)) for _ in range(m)]
                assert kernel_chunks(ops, pools) == naive_images(ops, pools)

    def test_empty_pools(self):
        rng = random.Random(43)
        ops = [
            OperationTable(3, s, tuple(rng.randrange(s) for _ in range(s**3))) for s in (2, 3)
        ]
        rows = random_rows(rng, (2, 3), 4)
        for pools in ([[], rows, rows], [rows, rows, []], [rows, [], rows]):
            assert kernel_chunks(ops, pools) == naive_images(ops, pools) == []


class TestConstraintNormalization:
    def test_scope_must_increase(self):
        with pytest.raises(ValueError):
            Constraint((1, 0), Relation.full((2, 2)))
        with pytest.raises(ValueError):
            Constraint((0, 0), Relation.full((2, 2)))

    def test_raw_sorting_permutes_columns(self):
        rel = Relation((2, 3), ((0, 2), (1, 0)))
        c = constraint_from_raw((2, 0), rel)
        assert c.scope == (0, 2)
        assert c.rel.sizes == (3, 2)
        assert c.rel.tuples == ((0, 1), (2, 0))

    def test_raw_repeated_variable_fuses_to_diagonal(self):
        rel = Relation((2, 2), ((0, 0), (0, 1), (1, 1)))
        c = constraint_from_raw((1, 1), rel)
        assert c.scope == (1,)
        assert c.rel.tuples == ((0,), (1,))

    def test_raw_repeated_variable_size_mismatch(self):
        rel = Relation((2, 3), ((0, 0),))
        with pytest.raises(ValueError):
            constraint_from_raw((1, 1), rel)


class TestInstance:
    def test_scope_range_validation(self, maj2):
        with pytest.raises(ValueError):
            Instance(
                Signature((maj2,)),
                (Constraint((0, 1), Relation.full((2, 2))),),
            )

    def test_relation_size_validation(self, maj2):
        with pytest.raises(ValueError):
            Instance(
                Signature((maj2, maj2)),
                (Constraint((0, 1), Relation.full((2, 3))),),
            )

    def test_signature_requires_shared_op_names(self, maj2):
        from cd3csp import Algebra, OperationTable

        other = Algebra(
            2,
            (
                ("f", OperationTable.from_function(2, 3, lambda x, y, z: x)),
                ("g", OperationTable.from_function(2, 3, lambda x, y, z: x if y == z else z)),
            ),
            ("f", "g"),
        )
        with pytest.raises(ValueError, match="operation names"):
            Signature((maj2, other))

    def test_satisfies(self, maj2):
        inst = mk_instance(maj2, [((0, 1), EQ2), ((1, 2), NEQ2)])
        assert satisfies(inst, (0, 0, 1))
        assert not satisfies(inst, (0, 1, 0))
        assert not satisfies(inst, (0, 0))
        assert not satisfies(inst, (0, 0, 5))

    def test_validate_invariance(self, maj2):
        good = mk_instance(maj2, [((0, 1), EQ2)])
        validate_invariance(good)
        bad = mk_instance(maj2, [((0, 1, 2), ((0, 0, 1), (0, 1, 0), (1, 0, 0)))])
        with pytest.raises(InvarianceViolation):
            validate_invariance(bad)

    def test_validate_invariance_checks_each_pair_once(self, maj2, dd2, monkeypatch):
        split, imaged = [], []
        product_blocks, is_closed = relation_mod._product_blocks, relation_mod._is_closed

        def spy_split(rel):
            split.append(rel)
            return product_blocks(rel)

        def spy_image(ops, sizes, rows):
            imaged.append((ops, rows))
            return is_closed(ops, sizes, rows)

        monkeypatch.setattr(relation_mod, "_product_blocks", spy_split)
        monkeypatch.setattr(relation_mod, "_is_closed", spy_image)
        inst = Instance(
            Signature((maj2, maj2, maj2, dd2)),
            tuple(
                Constraint(scope, Relation((2, 2), tuples))
                for scope, tuples in (
                    ((0, 1), EQ2),
                    ((1, 2), EQ2),
                    ((0, 3), FULL2),
                    ((1, 2), FULL2),
                    ((2, 3), FULL2),
                )
            ),
        )
        validate_invariance(inst)
        # the repeated pairs on scopes (1, 2) and (2, 3) are not split again
        assert split == [
            Relation((2, 2), EQ2),
            Relation((2, 2), FULL2),
            Relation((2, 2), FULL2),
        ]
        # the full relations split into full one-coordinate blocks, which
        # need no images; the one (block algebras, rows) left is imaged once
        maj2_ops = [(op.arity, (op.table, op.table)) for _, op in maj2.ops]
        assert imaged == [(maj2_ops, frozenset(EQ2))]

    def test_validate_invariance_images_each_block_once(self, maj2, dd2, monkeypatch):
        imaged = []
        is_closed = relation_mod._is_closed

        def spy_image(ops, sizes, rows):
            imaged.append((ops, rows))
            return is_closed(ops, sizes, rows)

        monkeypatch.setattr(relation_mod, "_is_closed", spy_image)
        eq_then_free = tuple((a, a, b) for a in range(2) for b in range(2))
        eq_then_zero = ((0, 0, 0), (1, 1, 0))
        inst = Instance(
            Signature((maj2, maj2, maj2, dd2, dd2)),
            (
                Constraint((0, 1), Relation((2, 2), EQ2)),
                Constraint((0, 1, 2), Relation((2, 2, 2), eq_then_free)),
                Constraint((1, 2, 3), Relation((2, 2, 2), eq_then_zero)),
                Constraint((3, 4), Relation((2, 2), EQ2)),
            ),
        )
        validate_invariance(inst)
        # EQ2 over (maj2, maj2) is the whole first relation and a block of
        # the next two; over (dd2, dd2) it is imaged again
        maj2_ops = [(op.arity, (op.table, op.table)) for _, op in maj2.ops]
        dd2_ops = [(op.arity, (op.table, op.table)) for _, op in dd2.ops]
        assert imaged == [(maj2_ops, frozenset(EQ2)), (dd2_ops, frozenset(EQ2))]

    def test_shared_rows_are_imaged_per_algebra(self, maj2, dd2):
        # preserved by majority, not by the switch algebra's operations
        rows = ((0, 0), (0, 1), (1, 0))
        assert brute_invariant(Relation((2, 2), rows), (maj2, maj2))
        assert not brute_invariant(Relation((2, 2), rows), (dd2, dd2))
        # the same rows as a block beside a free third coordinate
        with_free = tuple(t + (c,) for t in rows for c in range(2))
        for tuples in (rows, with_free):
            arity = len(tuples[0])
            inst = Instance(
                Signature((maj2,) * arity + (dd2,) * arity),
                (
                    Constraint(tuple(range(arity)), Relation((2,) * arity, tuples)),
                    Constraint(tuple(range(arity, 2 * arity)), Relation((2,) * arity, tuples)),
                ),
            )
            scope = tuple(range(arity, 2 * arity))
            with pytest.raises(InvarianceViolation) as caught:
                validate_invariance(inst)
            assert str(caught.value).startswith(f"constraint on scope {scope} is not preserved")

    def test_first_failing_constraint_is_named_across_shared_blocks(self, maj2):
        one_in_three = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        # EQ2 on the first two coordinates times the one-in-three relation
        eq_times_oit = tuple((a, a) + t for a in range(2) for t in one_in_three)
        assert not brute_invariant(Relation((2,) * 5, eq_times_oit), (maj2,) * 5)
        inst = mk_instance(
            maj2,
            [
                ((0, 1), EQ2),
                ((0, 1, 2, 3, 4), eq_times_oit),
                ((2, 3, 4), one_in_three),
            ],
        )
        with pytest.raises(
            InvarianceViolation, match=r"scope \(0, 1, 2, 3, 4\) is not preserved"
        ):
            validate_invariance(inst)

    def test_validate_invariance_matches_brute_force(self):
        """Instances over generated algebras, their products and their
        restrictions to subuniverses, with relations reused across scopes:
        validate_invariance raises exactly when a constraint by constraint
        brute_invariant loop finds one not invariant, naming that one."""
        rng = random.Random(19)
        base = [
            gen_cd3_algebra(GeneratorConfig(seed=seed, domain_size=size))
            for seed, size in ((0, 2), (1, 2), (2, 3), (3, 3))
        ]
        pool = base + [product_algebra(base[0], base[1]), product_algebra(base[1], base[2])]
        for alg in list(pool):
            for pair in itertools.combinations(range(alg.size), 2):
                sub = subuniverse_closure(alg, pair)
                if 1 < len(sub) < alg.size:
                    pool.append(restrict(alg, sub)[0])
                    break
        verdicts = collections.Counter()
        for _ in range(60):
            if rng.random() < 0.5:
                # same sizes, so that one relation recurs over other algebras
                size = rng.choice((2, 3))
                algs_here = rng.sample([a for a in pool if a.size == size], 2)
            else:
                algs_here = rng.sample(pool, 2)
            domains = tuple(rng.choice(algs_here) for _ in range(rng.randint(3, 6)))
            rels = {}
            constraints = []
            for _ in range(rng.randint(2, 8)):
                arity = rng.randint(1, 3)
                scope = tuple(sorted(rng.sample(range(len(domains)), arity)))
                algs = tuple(domains[v] for v in scope)
                sizes = tuple(a.size for a in algs)
                if sizes in rels and rng.random() < 0.5:
                    rel = rels[sizes]
                elif rng.random() < 0.5:
                    seeds = [tuple(rng.randrange(s) for s in sizes) for _ in range(2)]
                    rel = generated_subpower(algs, seeds)
                else:
                    rel = Relation(sizes, random_tuples(rng, sizes, expected=6))
                if len(rel) > 30:
                    continue
                rels[sizes] = rel
                constraints.append(Constraint(scope, rel))
            inst = Instance(Signature(domains), tuple(constraints))
            want = next(
                (
                    f"constraint on scope {c.scope} is not preserved by the domain operations"
                    for c in inst.constraints
                    if not brute_invariant(c.rel, tuple(domains[v] for v in c.scope))
                ),
                None,
            )
            try:
                validate_invariance(inst)
                got = None
            except InvarianceViolation as e:
                got = str(e)
            assert got == want, inst
            verdicts[want is None] += 1
        assert verdicts[True] and verdicts[False]

    def test_multi_sorted_domains(self, maj2, dd2):
        # same op names, different tables: legal in one instance
        pair = Relation((2, 2), EQ2)
        inst = Instance(
            Signature((maj2, dd2)), (Constraint((0, 1), pair),)
        )
        assert satisfies(inst, (1, 1))
