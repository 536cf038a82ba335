"""Derived multiplication, ideals, distance layers, binary classification,
ideal-restricted entry systems."""

import ast
import itertools
import random
import re

import pytest

from cd3csp import (
    Algebra,
    Constraint,
    GeneratorConfig,
    Instance,
    InvarianceViolation,
    KSystem,
    LemmaViolation,
    NotAnIdeal,
    NotSubdirect,
    OperationTable,
    Relation,
    Signature,
    build_lambda_J,
    classify_binary,
    distance_profile,
    gen_cd3_algebra,
    gen_instance,
    is_jonsson_trivial,
    jonsson_ideal,
    k_minimalize,
    majority_algebra,
    make_subdirect,
    mult,
    project,
    reduce_constraint_RJ,
    some_proper_ideal,
    switch_algebra,
)
from cd3csp.errors import Cd3Violation
from cd3csp.jonsson import _check_agreement

from tests.conftest import (
    EQ2,
    FULL2,
    NEQ2,
    assert_canonical,
    brute_least_closed,
    mk_instance,
)


class TestMult:
    def test_frozen_tables(self, maj2, dd2):
        # dual discriminator collapses to the right argument, switch to the left
        for x in range(2):
            for y in range(2):
                assert mult(maj2, x, y) == y
                assert mult(dd2, x, y) == x

    def test_disagreeing_pair_raises(self):
        p1 = OperationTable.from_function(2, 3, lambda x, y, z: x)
        p3 = OperationTable.from_function(2, 3, lambda x, y, z: z)
        alg = Algebra(2, (("j1", p1), ("j2", p3)), ("j1", "j2"))
        with pytest.raises(Cd3Violation):
            mult(alg, 0, 1)

    def test_idempotent_diagonal(self):
        rng = random.Random(3)
        for _ in range(20):
            alg = gen_cd3_algebra(
                GeneratorConfig(seed=rng.randrange(2**32), domain_size=rng.choice((2, 3, 4)))
            )
            for x in alg.universe:
                assert mult(alg, x, x) == x


class TestIdeals:
    def test_frozen_examples(self, maj2, dd2):
        assert jonsson_ideal(maj2, {0}) == frozenset({0})
        assert jonsson_ideal(maj2, {1}) == frozenset({1})
        assert jonsson_ideal(dd2, {0}) == frozenset({0, 1})
        assert jonsson_ideal(maj2, set()) == frozenset()
        # frozen: seed 1 at size 3 has {0,1} as its smallest proper ideal
        alg = gen_cd3_algebra(GeneratorConfig(seed=1, domain_size=3))
        assert jonsson_ideal(alg, {0}) == frozenset({0, 1})
        assert some_proper_ideal(alg) == frozenset({0, 1})

    def test_matches_least_closed_superset(self):
        rng = random.Random(41)
        for _ in range(30):
            alg = gen_cd3_algebra(
                GeneratorConfig(seed=rng.randrange(2**32), domain_size=rng.choice((2, 3, 4)))
            )
            gens = frozenset(rng.sample(range(alg.size), rng.randint(0, alg.size)))
            got = jonsson_ideal(alg, gens)
            want = brute_least_closed(alg, gens, lambda u, x: mult(alg, u, x))
            assert got == want

    def test_triviality_frozen(self, maj2, dd2, dd2sq):
        assert not is_jonsson_trivial(maj2)
        assert is_jonsson_trivial(dd2)
        assert is_jonsson_trivial(dd2sq)
        assert not is_jonsson_trivial(majority_algebra(3))
        assert is_jonsson_trivial(switch_algebra(3))

    def test_some_proper_ideal_frozen(self, maj2, dd2):
        assert some_proper_ideal(maj2) == frozenset({0})
        assert some_proper_ideal(dd2) is None

    def test_size_two_triviality_boundary(self):
        # a two-element algebra is ideal-free exactly when x*y is the left projection
        seen_trivial = seen_proper = 0
        for seed in range(12):
            alg = gen_cd3_algebra(GeneratorConfig(seed=seed, domain_size=2))
            left_proj = all(mult(alg, x, y) == x for x in range(2) for y in range(2))
            assert is_jonsson_trivial(alg) == left_proj
            seen_trivial += left_proj
            seen_proper += not left_proj
        assert seen_trivial and seen_proper


class TestDistanceProfile:
    def test_frozen_two_step_example(self):
        rel = Relation((3, 2), ((0, 0), (1, 0), (1, 1), (2, 1)))
        prof = distance_profile(rel)
        assert prof.connected
        assert prof.diameter == 2
        assert prof.distance(0, 2) == 2 and prof.distance(2, 0) == 2
        assert prof.distance(0, 1) == 1 and prof.distance(0, 0) == 0

    def test_disconnected(self):
        rel = Relation((2, 2), ((0, 0), (1, 1)))
        prof = distance_profile(rel)
        assert not prof.connected
        assert prof.distance(0, 1) is None
        assert prof.diameter == 0

    def test_full_product_has_diameter_one(self):
        rel = Relation.full((3, 2))
        prof = distance_profile(rel)
        assert prof.connected and prof.diameter == 1

    def test_needs_binary(self):
        with pytest.raises(ValueError):
            distance_profile(Relation.full((2, 2, 2)))

    def test_layers_monotone_and_capped(self):
        rng = random.Random(47)
        for _ in range(30):
            na, nb = rng.randint(2, 4), rng.randint(2, 4)
            tuples = tuple(
                t
                for t in itertools.product(range(na), range(nb))
                if rng.random() < 0.5
            )
            if len({t[0] for t in tuples}) < na:
                continue
            prof = distance_profile(Relation((na, nb), tuples))
            for small, big in zip(prof.layers, prof.layers[1:]):
                assert small <= big


class TestClassifyBinary:
    def test_full(self, dd2):
        assert classify_binary(Relation.full((2, 2)), dd2, dd2) == "full"

    def test_identity_graph(self, dd2):
        assert classify_binary(Relation((2, 2), EQ2), dd2, dd2) == (0, 1)

    def test_swap_graph(self, dd2):
        assert classify_binary(Relation((2, 2), NEQ2), dd2, dd2) == (1, 0)

    def test_projection_hom_from_square(self, dd2, dd2sq):
        # (x, (x,y)) pairs: the first-projection homomorphism from the square
        rel = Relation((2, 4), tuple((a // 2, a) for a in range(4)))
        assert classify_binary(rel, dd2, dd2sq) == (0, 0, 1, 1)

    def test_rejects_graph_of_a_non_homomorphism(self, dd2, dd2sq):
        # a graph is invariant exactly when its map commutes with the ops
        def graph(h):
            return Relation((2, 4), tuple((h[b], b) for b in range(4)))

        with pytest.raises(InvarianceViolation):
            classify_binary(graph((0, 1, 1, 0)), dd2, dd2sq)
        assert classify_binary(graph((0, 0, 1, 1)), dd2, dd2sq) == (0, 0, 1, 1)

    def test_rejects_non_subdirect(self, dd2):
        with pytest.raises(NotSubdirect):
            classify_binary(Relation((2, 2), ((0, 0), (0, 1))), dd2, dd2)

    def test_rejects_left_factor_with_ideal(self, maj2):
        with pytest.raises(ValueError):
            classify_binary(Relation.full((2, 2)), maj2, maj2)

    def test_rejects_shape_mismatch(self, dd2):
        with pytest.raises(ValueError):
            classify_binary(Relation.full((2, 3)), dd2, dd2)


def entry_system(inst, k):
    mi = k_minimalize(inst, k)
    assert not mi.empty_flag
    return mi.system


class TestBuildLambdaJ:
    def test_frozen_worked_example(self, maj2):
        inst = mk_instance(
            maj2,
            [((0, 1), EQ2), ((0, 2), FULL2), ((1, 2), FULL2)],
        )
        red = build_lambda_J(entry_system(inst, 2), 0, frozenset({0}), maj2)
        assert red.level == 2
        assert red.lamj[(0, 1)].tuples == ((0, 0),)
        assert red.lamj[(0, 2)].tuples == ((0, 0), (0, 1))
        assert red.lamj[(1, 2)].tuples == ((0, 0), (0, 1))

    def test_derived_projects_below_level(self, maj2):
        inst = mk_instance(
            maj2,
            [((0, 1), EQ2), ((0, 2), FULL2), ((1, 2), FULL2)],
        )
        red = build_lambda_J(entry_system(inst, 2), 0, frozenset({0}), maj2)
        expected = {0: ((0,),), 1: ((0,),), 2: ((0,), (1,))}
        for I, rel in red.lamj.items():
            for pos, v in enumerate(I):
                assert project(rel, (pos,)).tuples == expected[v]

    def test_pairwise_consistent_but_insoluble_system_raises(self, maj2):
        # two-variable agreement alone cannot support the restriction
        u = Relation.full((2,))
        system = KSystem(
            2,
            3,
            {
                (0,): u,
                (1,): u,
                (2,): u,
                (0, 1): Relation((2, 2), EQ2),
                (1, 2): Relation((2, 2), EQ2),
                (0, 2): Relation((2, 2), NEQ2),
            },
        )
        with pytest.raises(LemmaViolation):
            build_lambda_J(system, 0, frozenset({0}), maj2)

    def test_rejects_non_ideal(self, dd2):
        # {0} is not left-multiplication closed in the switch algebra
        inst = mk_instance(dd2, [((0, 1), FULL2), ((0, 2), FULL2), ((1, 2), FULL2)])
        with pytest.raises(NotAnIdeal):
            build_lambda_J(entry_system(inst, 2), 0, frozenset({0}), dd2)
        with pytest.raises(NotAnIdeal):
            build_lambda_J(entry_system(inst, 2), 0, frozenset(), dd2)

    def test_rejects_full_set_as_ideal(self, maj2):
        inst = mk_instance(maj2, [((0, 1), FULL2), ((0, 2), FULL2), ((1, 2), FULL2)])
        with pytest.raises(NotAnIdeal):
            build_lambda_J(entry_system(inst, 2), 0, frozenset({0, 1}), maj2)

    def test_rejects_level_one(self, maj2):
        inst = mk_instance(maj2, [((0, 1), FULL2)])
        with pytest.raises(ValueError):
            build_lambda_J(entry_system(inst, 1), 0, frozenset({0}), maj2)

    def test_rejects_incomplete_system(self, maj2):
        u = Relation.full((2,))
        system = KSystem(2, 3, {(0,): u, (1,): u, (2,): u, (0, 1): Relation((2, 2), EQ2)})
        with pytest.raises(ValueError):
            build_lambda_J(system, 0, frozenset({0}), maj2)


def all_pairs_agree(lamj):
    """Reference: every two sets agree on their shared variables."""
    for I, K in itertools.combinations(lamj, 2):
        shared = tuple(sorted(set(I) & set(K)))
        if shared and project(lamj[I], [I.index(v) for v in shared]) != project(
            lamj[K], [K.index(v) for v in shared]
        ):
            return False
    return True


class TestCheckAgreement:
    def test_matches_all_pairs_reference(self):
        rng = random.Random(97)
        verdicts = []
        for _ in range(120):
            n = rng.randint(4, 6)
            level = rng.randint(2, min(4, n - 1))
            size = rng.choice((2, 3))
            density = rng.choice((0.01, 0.05, 0.3))
            whole = [
                t for t in itertools.product(range(size), repeat=n) if rng.random() < density
            ] or [(0,) * n]
            lamj = {
                I: Relation((size,) * level, tuple(tuple(t[v] for v in I) for t in whole))
                for I in itertools.combinations(range(n), level)
            }
            if rng.random() < 0.6:
                I = rng.choice(sorted(lamj))
                t = tuple(rng.randrange(size) for _ in I)
                tuples = set(lamj[I].tuples) ^ {t}
                lamj[I] = Relation(lamj[I].sizes, tuple(tuples or {t}))
            want = all_pairs_agree(lamj)
            verdicts.append(want)
            if want:
                _check_agreement(lamj)
                continue
            with pytest.raises(LemmaViolation) as info:
                _check_agreement(lamj)
            # the error names two sets that really disagree on the named variables
            found = re.fullmatch(
                r"restricted entries on (\(.*?\)) and (\(.*?\)) disagree on (\(.*?\))",
                str(info.value),
            )
            I, K, S = (ast.literal_eval(g) for g in found.groups())
            assert set(S) <= set(I) & set(K)
            assert project(lamj[I], [I.index(v) for v in S]) != project(
                lamj[K], [K.index(v) for v in S]
            )
        assert 20 <= verdicts.count(False) <= 100


class TestReduceConstraintRJ:
    def find_reducible(self):
        # size-2 algebra with a proper ideal, instance with one wide constraint
        rng = random.Random(53)
        while True:
            alg = gen_cd3_algebra(
                GeneratorConfig(seed=rng.randrange(2**32), domain_size=2)
            )
            if some_proper_ideal(alg) is None:
                continue
            cfg = GeneratorConfig(
                seed=rng.randrange(2**32),
                domain_size=2,
                num_vars=5,
                num_constraints=3,
                max_arity=5,
                subpower_seeds=4,
            )
            inst = gen_instance(alg, cfg)
            if not any(len(c.scope) == 5 for c in inst.constraints):
                continue
            mi = k_minimalize(inst, 4)
            if mi.empty_flag:
                continue
            mi, _ = make_subdirect(mi)
            doms = mi.base.sig.domains
            ideal = some_proper_ideal(doms[0])
            if ideal is None or doms[0].size < 2:
                continue
            wide = [c for c in mi.base.constraints if len(c.scope) == 5]
            if not wide:
                continue
            return mi, doms, ideal, wide

    def test_filter_matches_manual_rule(self):
        mi, doms, ideal, wide = self.find_reducible()
        red = build_lambda_J(mi.system, 0, ideal, doms[0])
        for con in wide:
            algs = tuple(doms[v] for v in con.scope)
            out = reduce_constraint_RJ(con.rel, con.scope, red, algs)
            manual = tuple(
                t
                for t in con.rel.tuples
                if all(
                    tuple(t[con.scope.index(v)] for v in I) in red.lamj[I]
                    for I in itertools.combinations(con.scope, red.level)
                )
            )
            assert out.tuples == manual
            assert not out.is_empty
            assert_canonical(out)

    def test_local_mode_refuses(self, maj2):
        inst = mk_instance(
            maj2,
            [((0, 1), EQ2), ((0, 2), FULL2), ((1, 2), FULL2)],
        )
        red = build_lambda_J(entry_system(inst, 2), 0, frozenset({0}), maj2)
        with pytest.raises(ValueError):
            reduce_constraint_RJ(Relation.full((2, 2, 2)), (0, 1, 2), red, (maj2,) * 3)

    def test_level_below_squared_size_refuses(self, maj2):
        # level 3 < 2*2: a size-2 reduction cannot filter an arity-4 constraint
        full4 = tuple(itertools.product(range(2), repeat=4))
        inst = mk_instance(maj2, [((0, 1, 2, 3), full4)])
        red = build_lambda_J(entry_system(inst, 3), 0, frozenset({0}), maj2)
        assert red.level == 3
        with pytest.raises(ValueError):
            reduce_constraint_RJ(Relation((2,) * 4, full4), (0, 1, 2, 3), red, (maj2,) * 4)

    def test_level_below_squared_size_of_any_domain_refuses(self, maj2, dd2sq):
        # The regime belongs to the whole system, as in solve: level 4 covers
        # the size-2 domains of the arity-5 constraint, but not the size-4
        # domain of variable 5, which lies outside its scope.
        full5 = Relation.full((2,) * 5)

        def reduction(extra):
            sig = Signature((maj2,) * 5 + (extra,))
            inst = Instance(sig, (Constraint((0, 1, 2, 3, 4), full5),))
            return build_lambda_J(entry_system(inst, 4), 0, frozenset({0}), maj2)

        out = reduce_constraint_RJ(full5, (0, 1, 2, 3, 4), reduction(maj2), (maj2,) * 5)
        assert out.tuples == tuple(t for t in full5.tuples if t[0] == 0)
        with pytest.raises(ValueError):
            reduce_constraint_RJ(full5, (0, 1, 2, 3, 4), reduction(dd2sq), (maj2,) * 5)
