"""k-minimality: propagation, emptiness certificates, subdirect reduction."""

import gc
import itertools
import random

import pytest

from cd3csp import (
    Constraint,
    GeneratorConfig,
    Instance,
    KSystem,
    Relation,
    Signature,
    effective_instance,
    gen_cd3_algebra,
    gen_instance,
    is_k_minimal,
    k_minimalize,
    majority_algebra,
    make_subdirect,
    project,
    satisfies,
    solve,
    switch_algebra,
)

from tests.conftest import EQ2, FULL2, NEQ2, brute_solutions, mk_instance

IMPL = ((0, 0), (0, 1), (1, 1))


def rand_instances(count, start, sizes=(2, 3), vars_range=(3, 6), cons_range=(2, 5)):
    rng = random.Random(start)
    for _ in range(count):
        size = sizes[rng.randrange(len(sizes))]
        alg = gen_cd3_algebra(
            GeneratorConfig(seed=rng.randrange(2**32), domain_size=size)
        )
        cfg = GeneratorConfig(
            seed=rng.randrange(2**32),
            domain_size=size,
            num_vars=rng.randint(*vars_range),
            num_constraints=rng.randint(*cons_range),
            max_arity=3,
            subpower_seeds=rng.randint(1, 4),
        )
        yield gen_instance(alg, cfg)


class TestPropagation:
    def test_unit_clause_propagates_along_implications(self, maj2):
        inst = mk_instance(
            maj2,
            [((0,), ((1,),)), ((0, 1), IMPL), ((1, 2), IMPL)],
        )
        mi = k_minimalize(inst, 3)
        assert not mi.empty_flag
        for v in range(3):
            assert mi.system.entry((v,)).tuples == ((1,),)
        assert mi.system.entry((0, 1, 2)).tuples == ((1, 1, 1),)

    def test_equality_triangle_with_disequality_empties(self, maj2):
        inst = mk_instance(maj2, [((0, 1), EQ2), ((1, 2), EQ2), ((0, 2), NEQ2)])
        mi = k_minimalize(inst, 3)
        assert mi.empty_flag
        assert mi.certificate is not None
        assert brute_solutions(inst) == []

    def test_same_scope_constraints_intersect(self, maj2):
        inst = mk_instance(maj2, [((0, 1), IMPL), ((0, 1), NEQ2)])
        mi = k_minimalize(inst, 2)
        assert mi.system.entry((0, 1)).tuples == ((0, 1),)

    def test_uncovered_variables_get_full_domains(self, maj2):
        inst = Instance(
            Signature((maj2, maj2, maj2)),
            (Constraint((0, 1), Relation((2, 2), EQ2)),),
        )
        mi = k_minimalize(inst, 3)
        assert mi.system.entry((2,)).tuples == ((0,), (1,))
        assert len(mi.system.entry((0, 1, 2))) == 4

    def test_rejects_bad_k(self, maj2):
        inst = mk_instance(maj2, [((0, 1), EQ2)])
        with pytest.raises(ValueError):
            k_minimalize(inst, 0)


class TestFixpointProperties:
    def test_entries_cover_all_small_subsets(self):
        for inst in rand_instances(15, start=7):
            k = 3
            mi = k_minimalize(inst, k)
            if mi.empty_flag:
                continue
            level = min(k, inst.nvars)
            for r in range(1, level + 1):
                for I in itertools.combinations(range(inst.nvars), r):
                    assert not mi.system.entry(I).is_empty

    def test_solution_set_is_preserved(self):
        preserved_sat = preserved_unsat = 0
        for inst in rand_instances(25, start=13, vars_range=(3, 5)):
            mi = k_minimalize(inst, 3)
            original = set(brute_solutions(inst))
            if mi.empty_flag:
                assert original == set()
                preserved_unsat += 1
                continue
            eff = effective_instance(mi)
            assert set(brute_solutions(eff)) == original
            preserved_sat += 1
        assert preserved_sat and preserved_unsat

    def test_fixpoint_is_k_minimal(self):
        for inst in rand_instances(15, start=19, vars_range=(3, 5)):
            mi = k_minimalize(inst, 3)
            if mi.empty_flag:
                continue
            assert is_k_minimal(effective_instance(mi), 3)

    def test_entries_are_projections_of_covering_constraints(self):
        for inst in rand_instances(15, start=23, vars_range=(3, 5)):
            mi = k_minimalize(inst, 3)
            if mi.empty_flag:
                continue
            eff = effective_instance(mi)
            for c in eff.constraints:
                for r in range(1, len(c.scope) + 1):
                    for I in itertools.combinations(c.scope, r):
                        if len(I) > mi.system.level:
                            continue
                        pos = tuple(c.scope.index(v) for v in I)
                        assert project(c.rel, pos) == mi.system.entry(I)

    def test_base_keeps_only_constraints_wider_than_level(self):
        # at k=2 the arity-3 constraints are wide and the others narrow
        narrow = 0
        for inst in rand_instances(15, start=41, vars_range=(3, 5)):
            mi = k_minimalize(inst, 2)
            if mi.empty_flag:
                continue
            level = mi.system.level
            assert {c.scope for c in mi.base.constraints} == {
                c.scope for c in inst.constraints if len(c.scope) > level
            }
            for c in inst.constraints:
                if len(c.scope) <= level:
                    assert set(mi.system.entry(c.scope).tuples) <= set(c.rel.tuples)
                    narrow += 1
        assert narrow

    def test_top_entry_is_solution_set_when_vars_fit(self):
        matched = 0
        for inst in rand_instances(25, start=29, vars_range=(3, 3)):
            mi = k_minimalize(inst, 3)
            sols = set(brute_solutions(inst))
            if mi.empty_flag:
                assert sols == set()
                continue
            top = mi.system.entry((0, 1, 2))
            assert set(top.tuples) == sols
            matched += 1
        assert matched


# solve(inst) and k_minimalize(inst, 3) on gen_instance draws over
# gen_cd3_algebra(seed=300 + i, size 3), 10 variables, 14 constraints with
# seed 700 + i: (certificate, solution, total tuples over the k-system's
# entries), recorded before the k-system set-up was rewritten.  An emptied
# system stores only the entries its worklist reached; its total is that of
# the eagerly seeded propagation's entries on the same sets, so it still
# pins the pop order.
PINNED = (
    (None, (2, 0, 1, 0, 0, 0, 0, 0, 0, 2), 1855),
    ((5,), None, 7),
    ((0, 3), None, 11),
    (None, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 3675),
    ((2,), None, 0),
    ((7,), None, 1),
    (None, (1, 1, 0, 0, 0, 0, 1, 0, 0, 0), 580),
    ((0,), None, 0),
    ((6,), None, 2),
    (None, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 580),
    ((2,), None, 2),
    (None, (0, 1, 0, 1, 0, 0, 0, 1, 1, 1), 1269),
    ((0, 5), None, 9),
    (None, (0, 2, 0, 0, 0, 0, 0, 0, 0, 0), 933),
    (None, (0, 0, 0, 0, 0, 0, 2, 2, 2, 2), 949),
    (None, (2, 2, 2, 2, 2, 2, 0, 2, 2, 2), 806),
    ((8,), None, 7),
    ((7,), None, 3),
    ((3,), None, 3),
    ((3, 8), None, 0),
)

# the sets of at most 3 of 10 variables
ALL_ENTRIES = 10 + 45 + 120


class TestPinnedOutcomes:
    def test_certificates_and_solutions_match_recorded_values(self):
        for i, (certificate, solution, tuples) in enumerate(PINNED):
            alg = gen_cd3_algebra(GeneratorConfig(seed=300 + i, domain_size=3))
            cfg = GeneratorConfig(
                seed=700 + i, domain_size=3, num_vars=10, num_constraints=14
            )
            inst = gen_instance(alg, cfg)
            out = solve(inst)
            assert (out.certificate, out.solution, out.fallback) == (
                certificate,
                solution,
                False,
            ), i
            mi = k_minimalize(inst, 3)
            assert sum(len(r) for r in mi.system.entries.values()) == tuples, i
            stored = len(mi.system.entries)
            assert stored == ALL_ENTRIES if certificate is None else stored < ALL_ENTRIES, i


def _stored(mi):
    return [(I, r.tuples) for I, r in mi.system.entries.items()]


def _products(n, level, keep=lambda I, t: True):
    """Every set of at most level of n two-valued variables, by (size,
    lex), with the tuples of its product that keep accepts."""
    return [
        (I, tuple(t for t in itertools.product(range(2), repeat=r) if keep(I, t)))
        for r in range(1, level + 1)
        for I in itertools.combinations(range(n), r)
    ]


class TestLazySetUp:
    """k_minimalize results on edge cases, recorded from the set-up that
    seeded every entry before propagating.  An emptied result stores only
    the entries its worklist reached, each equal to the recorded one."""

    def test_no_constraints_store_every_entry_full(self, maj2):
        for n in (1, 3):
            sig = Signature((maj2,) * n)
            for k in range(1, 5):
                mi = k_minimalize(Instance(sig, ()), k)
                assert (mi.certificate, mi.base) == (None, Instance(sig, (), k))
                assert _stored(mi) == _products(n, min(k, n)), (n, k)

    def test_partly_covering_constraint_seeds_the_rest_full(self, maj2):
        inst = Instance(
            Signature((maj2,) * 3), (Constraint((0, 1), Relation((2, 2), IMPL)),)
        )

        def impl(I, t):
            return not {0, 1} <= set(I) or (t[0], t[1]) in IMPL

        for k in (2, 3):
            mi = k_minimalize(inst, k)
            assert (mi.certificate, mi.base) == (None, Instance(inst.sig, (), k))
            assert _stored(mi) == _products(3, k, impl), k

    def test_empty_intersection_certifies_before_any_pop(self, maj2):
        full3 = tuple(itertools.product(range(2), repeat=3))
        inst = mk_instance(maj2, [((0, 1), EQ2), ((0, 1), NEQ2), ((0, 1, 2), full3)])
        mi = k_minimalize(inst, 2)
        assert mi.certificate == (0, 1)
        assert mi.base == Instance(inst.sig, (inst.constraints[2],), 2)
        assert _stored(mi) == []

    def test_empty_constraint_certifies_before_any_pop(self, maj2):
        inst = mk_instance(maj2, [((0, 1), ()), ((1, 2), IMPL)])
        mi = k_minimalize(inst, 3)
        assert (mi.certificate, mi.base) == ((0, 1), Instance(inst.sig, (), 3))
        assert _stored(mi) == []

    def test_uncovered_triple_seed_is_filtered_by_pair_seeds(self, maj2):
        # the pair seeds on 0, 1, 2 admit no triple, so the empty seed
        # of (0, 1, 2) empties (0,) at its first pop
        inst = mk_instance(
            maj2, [((0, 1), EQ2), ((1, 2), EQ2), ((0, 2), NEQ2), ((2, 3), IMPL)]
        )
        mi = k_minimalize(inst, 3)
        assert (mi.certificate, mi.base) == ((0,), Instance(inst.sig, (), 3))
        both = ((0,), (1,))
        assert _stored(mi) == [
            ((0,), ()),
            ((1,), both),
            ((2,), both),
            ((3,), both),
            ((0, 1), EQ2),
            ((0, 2), NEQ2),
            ((0, 3), FULL2),
            ((1, 2), EQ2),
            ((1, 3), FULL2),
            ((2, 3), IMPL),
            ((0, 1, 2), ()),
        ]

    def test_early_emptying_builds_only_what_the_worklist_reaches(self, monkeypatch):
        # an eager set-up builds a seed for each of the 175 sets of at
        # most 3 of 10 variables before the first pop
        alg = gen_cd3_algebra(GeneratorConfig(seed=301, domain_size=3))
        cfg = GeneratorConfig(seed=701, domain_size=3, num_vars=10, num_constraints=14)
        inst = gen_instance(alg, cfg)
        built = []
        trusted, checked = Relation._trusted.__func__, Relation.__post_init__

        def spy_trusted(cls, sizes, tuples):
            built.append(sizes)
            return trusted(cls, sizes, tuples)

        def spy_checked(rel):
            built.append(rel.sizes)
            checked(rel)

        monkeypatch.setattr(Relation, "_trusted", classmethod(spy_trusted))
        monkeypatch.setattr(Relation, "__post_init__", spy_checked)
        mi = k_minimalize(inst, 3)
        assert mi.certificate == (5,)
        assert len(mi.system.entries) == 5
        assert len(built) == 8

    def test_leaves_no_reference_cycles(self):
        # a cycle would keep each call's relations until a full collection
        for i in (0, 1):  # a satisfiable and an emptied draw
            alg = gen_cd3_algebra(GeneratorConfig(seed=300 + i, domain_size=3))
            cfg = GeneratorConfig(
                seed=700 + i, domain_size=3, num_vars=10, num_constraints=14
            )
            inst = gen_instance(alg, cfg)
            gc.collect()
            gc.disable()
            try:
                k_minimalize(inst, 3)
                assert gc.collect() == 0, i
            finally:
                gc.enable()


class TestKSystem:
    def test_entry_derives_smaller_sets_and_refuses_others(self):
        eq = Relation((2, 2), EQ2)
        system = KSystem(2, 3, {(0, 1): eq, (0, 2): eq, (1, 2): eq})
        assert system.level_sets() == ((0, 1), (0, 2), (1, 2))
        for v in range(3):
            assert system.entry((v,)) == Relation((2,), ((0,), (1,)))
        assert system.entry([0, 2]) is eq
        for bad in ((), (1, 0), (1, 1), (3,), (-1,), (0, 1, 2)):
            with pytest.raises(KeyError):
                system.entry(bad)


class TestIsKMinimal:
    def test_uncovered_subset_fails(self, maj2):
        inst = Instance(
            Signature((maj2, maj2, maj2)),
            (Constraint((0, 1), Relation((2, 2), EQ2)),),
        )
        assert not is_k_minimal(inst, 3)

    def test_projection_disagreement_fails(self, maj2):
        inst = mk_instance(
            maj2,
            [((0, 1), ((0, 0),)), ((0, 1), ((1, 1),))],
        )
        assert not is_k_minimal(inst, 2)

    def test_minimal_instance_passes(self, maj2):
        inst = mk_instance(maj2, [((0, 1), EQ2)])
        assert is_k_minimal(inst, 2)


class TestMakeSubdirect:
    def test_domains_shrink_to_unary_entries(self, maj2):
        inst = mk_instance(
            maj2,
            [((0,), ((1,),)), ((0, 1), IMPL), ((1, 2), IMPL)],
        )
        mi = k_minimalize(inst, 3)
        shrunk, maps = make_subdirect(mi)
        assert [a.size for a in shrunk.base.sig.domains] == [1, 1, 1]
        assert maps == [(1,), (1,), (1,)]
        assert satisfies(inst, (1, 1, 1))

    def test_identity_when_already_subdirect(self, dd2):
        inst = mk_instance(dd2, [((0, 1), NEQ2)])
        mi = k_minimalize(inst, 2)
        shrunk, maps = make_subdirect(mi)
        assert maps == [(0, 1), (0, 1)]
        assert shrunk.base.sig.domains == mi.base.sig.domains

    def test_relations_over_unshrunk_variables_are_reused(self, maj2):
        # k=2 leaves the arity-3 constraint wide; only variable 0 shrinks
        full3 = tuple(itertools.product(range(2), repeat=3))
        inst = mk_instance(
            maj2, [((0,), ((1,),)), ((0, 1), FULL2), ((1, 2, 3), full3)]
        )
        mi = k_minimalize(inst, 2)
        shrunk, _ = make_subdirect(mi)
        assert [a.size for a in shrunk.base.sig.domains] == [1, 2, 2, 2]
        # smaller sets are not stored, so reuse shows on the level sets
        assert set(shrunk.system.entries) == set(mi.system.level_sets())
        for I in mi.system.level_sets():
            assert (shrunk.system.entries[I] is mi.system.entries[I]) == (0 not in I), I
        (wide,) = mi.base.constraints
        assert shrunk.base.constraints[0].rel is wide.rel

    def test_solutions_map_back(self):
        for inst in rand_instances(15, start=37, vars_range=(3, 4)):
            mi = k_minimalize(inst, 3)
            if mi.empty_flag:
                continue
            shrunk, maps = make_subdirect(mi)
            eff = effective_instance(shrunk)
            original = set(brute_solutions(inst))
            mapped = {
                tuple(maps[v][x] for v, x in enumerate(sol))
                for sol in brute_solutions(eff)
            }
            assert mapped == original
