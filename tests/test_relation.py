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

from tests.conftest import EQ2, FULL2, NEQ2, brute_invariant, mk_instance, planted_instance


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
        # each the product of its one-coordinate projections; checking every
        # argument list costs |R|^3 images per ternary operation
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


class TestGeneratedSubpower:
    def naive_closure(self, algs, seeds):
        current = set(map(tuple, seeds))
        changed = True
        while changed:
            changed = False
            snapshot = sorted(current)
            for name in algs[0].op_names():
                tables = [a.op(name) for a in algs]
                m = tables[0].arity
                for rows in itertools.product(snapshot, repeat=m):
                    img = tuple(
                        tables[c].apply(*(rows[i][c] for i in range(m)))
                        for c in range(len(algs))
                    )
                    if img not in current:
                        current.add(img)
                        changed = True
        return current

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
            assert set(got.tuples) == self.naive_closure(algs, seeds)
            assert is_invariant(got, algs)

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

    def test_empty_seed_list(self, dd2):
        assert generated_subpower((dd2, dd2), []).is_empty


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
