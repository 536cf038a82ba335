"""Decision pipeline: brute force, decomposition, base case, reductions,
quotient splits, pullback, and the public solve entry point."""

import collections
import dataclasses
import itertools
import random

import pytest

import cd3csp.solver as solver_mod
from cd3csp import (
    Algebra,
    Constraint,
    GeneratorConfig,
    Instance,
    InvarianceViolation,
    LemmaViolation,
    NotCd3,
    OperationTable,
    Relation,
    Signature,
    almost_trivial_decomposition,
    base_case_solve,
    brute_force_solve,
    build_lambda_J,
    choose_k,
    effective_instance,
    gen_cd3_algebra,
    gen_instance,
    generated_subpower,
    is_simple,
    k_minimalize,
    majority_algebra,
    make_subdirect,
    product_algebra,
    project,
    pullback,
    quotient_reduce,
    reduce_constraint_RJ,
    reduce_to_ideal,
    satisfies,
    solve,
    some_proper_ideal,
    switch_algebra,
)
from cd3csp.lemmas import _pool_simple_trivial

from tests.conftest import EQ2, FULL2, NEQ2, brute_solutions, mk_instance, planted_instance

IMPL = ((0, 0), (0, 1), (1, 1))
SWAP = NEQ2


def rand_instance(rng, size=None, vars_range=(4, 6)):
    size = size or rng.choice((2, 3))
    alg = gen_cd3_algebra(GeneratorConfig(seed=rng.randrange(2**32), domain_size=size))
    cfg = GeneratorConfig(
        seed=rng.randrange(2**32),
        domain_size=size,
        num_vars=rng.randint(*vars_range),
        num_constraints=rng.randint(2, 5),
        max_arity=3,
        subpower_seeds=rng.randint(1, 4),
    )
    return gen_instance(alg, cfg)


class TestBruteForce:
    def test_lexicographically_least_witness(self, maj2):
        inst = mk_instance(maj2, [((0, 1), NEQ2)])
        assert brute_force_solve(inst).solution == (0, 1)

    def test_unsat(self, maj2):
        inst = mk_instance(maj2, [((0, 1), EQ2), ((1, 2), EQ2), ((0, 2), NEQ2)])
        out = brute_force_solve(inst)
        assert out.solution is None and not out.sat

    def test_matches_enumeration(self):
        rng = random.Random(61)
        for _ in range(20):
            inst = rand_instance(rng, vars_range=(3, 5))
            out = brute_force_solve(inst)
            sols = brute_solutions(inst)
            assert out.sat == bool(sols)
            if sols:
                assert out.solution == sols[0]


class TestAlmostTrivialDecomposition:
    def test_bijection_class_with_free_factor(self):
        # x0 = x1 via identity, x2 free
        rel = Relation(
            (2, 2, 2), tuple((x, x, y) for x in range(2) for y in range(2))
        )
        deco = almost_trivial_decomposition(rel)
        assert deco.classes == ((0, 1), (2,))
        assert deco.bijections[(0, 1)] == (0, 1)

    def test_swap_chain_single_class(self):
        rel = Relation((2, 2, 2), ((0, 1, 0), (1, 0, 1)))
        deco = almost_trivial_decomposition(rel)
        assert deco.classes == ((0, 1, 2),)
        assert deco.bijections[(0, 1)] == (1, 0)
        assert deco.bijections[(0, 2)] == (0, 1)

    def test_full_product_all_free(self):
        rel = Relation.full((2, 2, 2))
        deco = almost_trivial_decomposition(rel)
        assert deco.classes == ((0,), (1,), (2,))

    def test_or_relation_rejected(self):
        rel = Relation((2, 2), ((0, 1), (1, 0), (1, 1)))
        with pytest.raises(LemmaViolation):
            almost_trivial_decomposition(rel)

    def test_non_product_rejected(self):
        # pairwise full but missing a triple: not a product of blocks
        full3 = set(itertools.product(range(2), repeat=3))
        rel = Relation((2, 2, 2), tuple(sorted(full3 - {(1, 1, 1)})))
        with pytest.raises(LemmaViolation):
            almost_trivial_decomposition(rel)

    def test_empty_rejected(self):
        with pytest.raises(LemmaViolation):
            almost_trivial_decomposition(Relation.empty((2, 2)))

    def test_graph_between_unequal_sizes_rejected(self):
        # the graph of an onto map from four elements to two is no bijection
        rel = Relation((2, 4), tuple((b // 2, b) for b in range(4)))
        with pytest.raises(LemmaViolation):
            almost_trivial_decomposition(rel)


class TestBaseCase:
    def test_swap_chain_assembles_least_anchor(self, dd2):
        inst = mk_instance(
            dd2, [((0, 1), SWAP), ((1, 2), SWAP), ((2, 3), SWAP)]
        )
        mi = k_minimalize(inst, 3)
        assert base_case_solve(mi) == (0, 1, 0, 1)

    def test_rejects_domain_with_ideal(self, maj2):
        inst = mk_instance(maj2, [((0, 1), FULL2), ((1, 2), FULL2), ((2, 3), FULL2)])
        mi = k_minimalize(inst, 3)
        with pytest.raises(ValueError):
            base_case_solve(mi)

    def test_single_variable(self, dd2):
        inst = mk_instance(dd2, [((0,), ((1,),))])
        mi = k_minimalize(inst, 3)
        assert base_case_solve(mi) == (1,)

    def test_matches_decomposition_of_subdirect_subpowers(self):
        # Coordinates of one drawn class carry relabelled copies of one
        # algebra, tied by the relabelling bijections in every seed tuple.
        # The assembled assignment must be the one tuple of the relation
        # that is 0 at every class anchor of its decomposition.
        pool, _ = _pool_simple_trivial(0, 20)
        small = next(a for a in pool if a.size == 2)
        rng = random.Random(103)
        glued = moved = 0
        for _ in range(30):
            labels = [rng.randrange(4) for _ in range(4)]
            bases = {c: rng.choice(pool) for c in sorted(set(labels))}
            if all(a.size == 3 for a in bases.values()) and len(bases) == 4:
                bases[labels[3]] = small
            perms = [rng.sample(range(bases[c].size), bases[c].size) for c in labels]
            algs = tuple(relabelled(bases[c], p) for c, p in zip(labels, perms))
            seeds = []
            for _ in range(3 + rng.randint(1, 3)):
                x = {c: rng.randrange(a.size) for c, a in bases.items()}
                seeds.append(tuple(p[x[c]] for c, p in zip(labels, perms)))
            for c, a in bases.items():  # every value at every coordinate
                for v in range(a.size):
                    x = {d: rng.randrange(b.size) for d, b in bases.items()}
                    x[c] = v
                    seeds.append(tuple(p[x[d]] for d, p in zip(labels, perms)))
            rel = generated_subpower(algs, seeds)
            deco = almost_trivial_decomposition(rel)
            (want,) = [
                t for t in rel.tuples if all(t[cls[0]] == 0 for cls in deco.classes)
            ]
            inst = Instance(Signature(algs), (Constraint((0, 1, 2, 3), rel),))
            assert base_case_solve(k_minimalize(inst, 3)) == want
            glued += len(deco.classes) < 4
            moved += any(want)
        assert glued >= 10 and moved >= 10


def relabelled(alg, perm):
    """The isomorphic copy of alg in which perm[x] plays the part of x."""
    inv = [perm.index(y) for y in range(alg.size)]
    ops = tuple(
        (
            name,
            OperationTable.from_function(
                alg.size,
                alg.op(name).arity,
                lambda *args, op=alg.op(name): perm[op.apply(*(inv[y] for y in args))],
            ),
        )
        for name in alg.op_names()
    )
    return Algebra(alg.size, ops, alg.jonsson)


def reminimalized(mi, constraints):
    """make_subdirect of the k-minimal fixpoint of constraints on mi's domains."""
    refined = k_minimalize(Instance(mi.base.sig, tuple(constraints), mi.base.k), mi.system.k)
    assert not refined.empty_flag
    return make_subdirect(refined)


def assert_same_result(got, want):
    """Same maps, domains and entries; base only the wide constraints."""
    (mi, maps), (ref, ref_maps) = got, want
    assert maps == ref_maps
    assert mi.base.sig == ref.base.sig
    assert mi.system.entries == ref.system.entries
    assert all(len(c.scope) > mi.system.level for c in mi.base.constraints)
    assert mi.base.constraints == ref.base.constraints


class TestReduceToIdeal:
    def test_majority_domains_collapse_to_ideal(self, maj2):
        inst = mk_instance(
            maj2,
            [((0, 1), FULL2), ((0, 2), FULL2), ((1, 2), FULL2), ((2, 3), FULL2), ((1, 3), FULL2), ((0, 3), FULL2)],
        )
        mi = k_minimalize(inst, 3)
        mi, _ = make_subdirect(mi)
        out, maps = reduce_to_ideal(mi, 0, frozenset({0}))
        assert maps[0] == (0,)
        assert out.base.sig.domains[0].size == 1
        # remaining coordinates keep whatever the propagation allows
        assert not out.empty_flag

    def test_wide_constraint_needs_k_at_least_square_of_every_domain(
        self, maj2, dd2sq
    ):
        # k = 4 covers the constraint's size-2 domains; the size-4 domain of
        # variable 5 outside its scope still needs k >= 16, as in solve.
        full5 = Relation.full((2,) * 5)
        for extra, refused in ((maj2, False), (dd2sq, True)):
            sig = Signature((maj2,) * 5 + (extra,))
            inst = Instance(sig, (Constraint((0, 1, 2, 3, 4), full5),))
            mi, _ = make_subdirect(k_minimalize(inst, 4))
            if refused:
                with pytest.raises(ValueError):
                    reduce_to_ideal(mi, 0, frozenset({0}))
            else:
                _, maps = reduce_to_ideal(mi, 0, frozenset({0}))
                assert maps[0] == (0,)

    def test_solutions_survive_restriction(self):
        rng = random.Random(67)
        done = 0
        while done < 10:
            inst = rand_instance(rng, vars_range=(4, 5))
            mi = k_minimalize(inst, 3)
            if mi.empty_flag:
                continue
            mi, total = make_subdirect(mi)
            doms = mi.base.sig.domains
            target = next(
                (i for i, a in enumerate(doms) if some_proper_ideal(a) is not None),
                None,
            )
            if target is None:
                continue
            ideal = some_proper_ideal(doms[target])
            out, maps = reduce_to_ideal(mi, target, ideal)
            # every solution of the reduced system lifts to one of the intermediate system
            eff = effective_instance(out)
            source = effective_instance(mi)
            sizes = [a.size for a in eff.sig.domains]
            found = 0
            for assign in itertools.product(*(range(s) for s in sizes)):
                if satisfies(eff, assign):
                    lifted = tuple(maps[v][x] for v, x in enumerate(assign))
                    assert satisfies(source, lifted)
                    found += 1
            assert found > 0
            done += 1

    def test_matches_ride_along_reference(self):
        # reference: every relation of the system re-minimalized, those
        # below the level as projections of the restricted entries, level
        # sets as the restricted entries, wider ones filtered tuplewise
        rng = random.Random(83)
        done = 0
        while done < 10:
            if done % 2:
                inst, k = rand_instance(rng, vars_range=(4, 5)), 3
            else:
                alg = gen_cd3_algebra(
                    GeneratorConfig(seed=rng.randrange(2**32), domain_size=2)
                )
                inst, k = planted_instance(rng, alg, 6, (5, 4, 3), 2), 4
            mi = k_minimalize(inst, k)
            if mi.empty_flag:
                continue
            mi, _ = make_subdirect(mi)
            doms = mi.base.sig.domains
            coord = next(
                (i for i, a in enumerate(doms) if some_proper_ideal(a) is not None),
                None,
            )
            if coord is None:
                continue
            ideal = some_proper_ideal(doms[coord])
            red = build_lambda_J(mi.system, coord, ideal, doms[coord])
            constraints = []
            for c in effective_instance(mi).constraints:
                if len(c.scope) < red.level:
                    key = min(I for I in red.lamj if set(c.scope) <= set(I))
                    rel = project(red.lamj[key], [key.index(v) for v in c.scope])
                elif len(c.scope) == red.level:
                    rel = red.lamj[c.scope]
                else:
                    algs = tuple(doms[v] for v in c.scope)
                    rel = reduce_constraint_RJ(c.rel, c.scope, red, algs)
                constraints.append(Constraint(c.scope, rel))
            assert_same_result(
                reduce_to_ideal(mi, coord, ideal), reminimalized(mi, constraints)
            )
            done += 1


class TestQuotientReduce:
    def build_square_instance(self, rng, max_arity=3):
        base = switch_algebra(2)
        alg = product_algebra(base, base)
        cfg = GeneratorConfig(
            seed=rng.randrange(2**32),
            domain_size=4,
            num_vars=rng.randint(4, 5),
            num_constraints=rng.randint(3, 5),
            max_arity=max_arity,
            subpower_seeds=rng.randint(2, 4),
        )
        return gen_instance(alg, cfg)

    def find_splittable(self, rng, max_arity=3):
        while True:
            inst = self.build_square_instance(rng, max_arity)
            mi = k_minimalize(inst, 3)
            if mi.empty_flag:
                continue
            mi, _ = make_subdirect(mi)
            doms = mi.base.sig.domains
            coord = next(
                (i for i, a in enumerate(doms) if a.size > 1 and not is_simple(a)),
                None,
            )
            if coord is None:
                continue
            return mi, coord

    def test_members_share_the_quotient(self):
        rng = random.Random(71)
        mi, coord = self.find_splittable(rng)
        plan = quotient_reduce(mi, coord)
        assert coord in plan.maps
        doms = mi.base.sig.domains
        qsize = len(set(plan.maps[coord]))
        assert 2 <= qsize < doms[coord].size
        for i in plan.maps:
            assert len(plan.maps[i]) == doms[i].size
            assert set(plan.maps[i]) == set(range(qsize))

    def test_solutions_give_the_plan_one_label(self):
        # the premise of the pullback argument: every solution sits in one
        # congruence class.  Draws whose instance admits every assignment
        # select nothing, so the test keeps drawing until three instances
        # have rejected some.
        rng = random.Random(73)
        selective = 0
        while selective < 3:
            mi, coord = self.find_splittable(rng)
            plan = quotient_reduce(mi, coord)
            sizes = [a.size for a in mi.base.sig.domains]
            eff = effective_instance(mi)
            checked = total = 0
            for assign in itertools.product(*(range(s) for s in sizes)):
                total += 1
                if satisfies(eff, assign):
                    labels = {m[assign[v]] for v, m in plan.maps.items()}
                    assert len(labels) == 1
                    checked += 1
            assert checked > 0
            selective += checked < total

    def test_refuses_simple_domain(self, dd2):
        inst = mk_instance(dd2, [((0, 1), SWAP), ((1, 2), SWAP), ((2, 3), SWAP)])
        mi = k_minimalize(inst, 3)
        with pytest.raises(ValueError):
            quotient_reduce(mi, 0)

    def test_refuses_domain_with_ideal(self, maj2):
        inst = mk_instance(
            maj2, [((0, 1), FULL2), ((1, 2), FULL2), ((2, 3), FULL2), ((0, 3), FULL2)]
        )
        mi = k_minimalize(inst, 3)
        with pytest.raises(ValueError):
            quotient_reduce(mi, 0)


def labels_of(plan):
    """The quotient labels of a plan's split coordinate."""
    return sorted(set(plan.maps[plan.coord]))


class TestPullback:
    def test_round_trip_solutions(self):
        # every class pulls back to a system whose solutions all lift
        rng = random.Random(79)
        helper = TestQuotientReduce()
        for _ in range(6):
            mi, coord = helper.find_splittable(rng)
            plan = quotient_reduce(mi, coord)
            before = mi.base.sig.domains[coord].size
            source = effective_instance(mi)
            for label in labels_of(plan):
                mi2, maps = pullback(mi, plan, label)
                assert len(set(maps[coord])) < before
                assert {plan.maps[coord][x] for x in maps[coord]} == {label}
                eff = effective_instance(mi2)
                sizes = [a.size for a in eff.sig.domains]
                lifted_any = False
                for assign in itertools.product(*(range(s) for s in sizes)):
                    if satisfies(eff, assign):
                        lifted = tuple(maps[v][x] for v, x in enumerate(assign))
                        assert satisfies(source, lifted)
                        lifted_any = True
                assert lifted_any, label

    def split(self, rng, max_arity=3):
        mi, coord = TestQuotientReduce().find_splittable(rng, max_arity)
        return mi, quotient_reduce(mi, coord)

    def test_matches_ride_along_reference(self):
        # reference: every relation of the system filtered to one class
        # and re-minimalized, for every class of the split coordinate;
        # arity-4 draws carry constraints wider than k=3
        rng = random.Random(89)
        wide = 0
        for max_arity in (3,) * 10 + (4,) * 5:
            mi, plan = self.split(rng, max_arity)
            wide += bool(mi.base.constraints)
            doms = mi.base.sig.domains
            for label in labels_of(plan):
                allowed = [
                    {a for a in range(d.size) if i not in plan.maps or plan.maps[i][a] == label}
                    for i, d in enumerate(doms)
                ]
                constraints = [
                    Constraint(
                        c.scope,
                        Relation(
                            c.rel.sizes,
                            tuple(
                                t
                                for t in c.rel.tuples
                                if all(x in allowed[v] for v, x in zip(c.scope, t))
                            ),
                        ),
                    )
                    for c in effective_instance(mi).constraints
                ]
                assert_same_result(
                    pullback(mi, plan, label), reminimalized(mi, constraints)
                )
        assert wide

    def test_refuses_a_label_with_an_empty_class(self):
        rng = random.Random(127)
        mi, plan = self.split(rng)
        with pytest.raises(ValueError, match="empty class"):
            pullback(mi, plan, len(labels_of(plan)))

    def test_raises_on_a_level_entry_that_does_not_agree(self):
        # the pulled-back system is checked, not propagated: thin an entry
        # the split leaves alone and pullback must refuse, not repair it
        rng = random.Random(101)
        while True:
            mi, plan = self.split(rng)
            found = [
                (I, thin)
                for I in mi.system.level_sets()
                if not set(I) & set(plan.maps)
                and (thin := without_sole_witness(mi.system.entry(I), len(I) - 1))
            ]
            if found:
                break
        I, thin = found[0]
        system = dataclasses.replace(mi.system, entries={**mi.system.entries, I: thin})
        with pytest.raises(LemmaViolation, match="disagree"):
            pullback(dataclasses.replace(mi, system=system), plan, 0)

    def test_raises_on_a_wide_constraint_that_does_not_project_back(self):
        rng = random.Random(103)
        while True:
            mi, plan = self.split(rng, max_arity=4)
            found = [
                (n, thin)
                for n, c in enumerate(mi.base.constraints)
                if not set(c.scope) & set(plan.maps)
                and (thin := without_sole_witness(c.rel, mi.system.level))
            ]
            if found:
                break
        n, thin = found[0]
        constraints = list(mi.base.constraints)
        constraints[n] = Constraint(constraints[n].scope, thin)
        base = dataclasses.replace(mi.base, constraints=tuple(constraints))
        with pytest.raises(LemmaViolation, match="project back"):
            pullback(dataclasses.replace(mi, base=base), plan, 0)


def quotient_algebra_draws():
    """Twenty instances of 4-6 variables over each of four non-simple
    products: switch squared, majority times switch, switch on three
    elements times switch, and two ideal-free generated two-element
    algebras.  Half are planted (satisfiable) and half drawn by
    gen_instance (mostly unsatisfiable)."""
    sw = switch_algebra(2)

    def gen2(seed):
        return gen_cd3_algebra(GeneratorConfig(seed=seed, domain_size=2))

    algebras = (
        product_algebra(sw, sw),
        product_algebra(majority_algebra(2), sw),
        product_algebra(switch_algebra(3), sw),
        product_algebra(gen2(4), gen2(6)),
    )
    rng = random.Random(131)
    for alg in algebras:
        for n in range(20):
            nvars = rng.randint(4, 6)
            if n % 2:
                cfg = GeneratorConfig(
                    seed=rng.randrange(2**32),
                    domain_size=alg.size,
                    num_vars=nvars,
                    num_constraints=rng.randint(3, 6),
                    max_arity=3,
                    subpower_seeds=rng.randint(1, 3),
                )
                yield gen_instance(alg, cfg)
            else:
                arities = (3,) * rng.randint(2, 4)
                yield planted_instance(rng, alg, nvars, arities, rng.randint(1, 3))


def without_sole_witness(rel, size):
    """rel less one tuple that alone projects onto some tuple of a
    size-coordinate projection, or None when no tuple of a relation with
    two or more tuples does."""
    for pos in itertools.combinations(range(rel.arity), size):
        counts = collections.Counter(tuple(t[p] for p in pos) for t in rel.tuples)
        for t in rel.tuples:
            if len(rel) > 1 and counts[tuple(t[p] for p in pos)] == 1:
                return Relation(rel.sizes, tuple(u for u in rel.tuples if u != t))
    return None


def assert_holds_level_sets(mi):
    """mi stores exactly its level sets, and entry() on every smaller set
    is the projection of each level entry containing it."""
    system = mi.system
    n, level = system.nvars, system.level
    assert set(system.entries) == set(itertools.combinations(range(n), level))
    for r in range(1, level):
        for I in itertools.combinations(range(n), r):
            got = system.entry(I)
            for J, rel in system.entries.items():
                if set(I) <= set(J):
                    assert got == project(rel, [J.index(v) for v in I]), (I, J)


class TestLevelEntriesOnly:
    """Past the first propagation, a reduction step's system stores its
    level entries only."""

    def test_reduce_to_ideal(self):
        rng = random.Random(107)
        done = 0
        while done < 8:
            inst = rand_instance(rng, vars_range=(4, 6))
            mi = k_minimalize(inst, 3)
            if mi.empty_flag:
                continue
            mi, _ = make_subdirect(mi)
            doms = mi.base.sig.domains
            coord = next(
                (i for i, a in enumerate(doms) if some_proper_ideal(a) is not None),
                None,
            )
            if coord is None:
                continue
            out, _ = reduce_to_ideal(mi, coord, some_proper_ideal(doms[coord]))
            assert_holds_level_sets(out)
            done += 1

    def test_quotient_reduce_and_pullback(self):
        rng = random.Random(109)
        for max_arity in (3,) * 5 + (4,) * 3:
            mi, plan = TestPullback().split(rng, max_arity)
            for label in labels_of(plan):
                assert_holds_level_sets(pullback(mi, plan, label)[0])

    def test_shrinking_make_subdirect(self):
        rng = random.Random(113)
        done = 0
        while done < 8:
            mi = k_minimalize(rand_instance(rng), 3)
            if mi.empty_flag:
                continue
            shrunk, maps = make_subdirect(mi)
            if all(len(m) == a.size for m, a in zip(maps, mi.base.sig.domains)):
                continue
            assert_holds_level_sets(shrunk)
            done += 1


class TestChoices:
    def test_choose_k(self, maj2):
        small = mk_instance(maj2, [((0, 1), EQ2)])
        assert choose_k(small) == 3
        wide = mk_instance(
            maj2, [((0, 1, 2, 3), tuple(itertools.product(range(2), repeat=4)))]
        )
        assert choose_k(wide) == 4
        assert choose_k(dataclasses.replace(wide, k=5)) == 5

    def test_wide_scope_with_big_domain(self):
        alg = gen_cd3_algebra(GeneratorConfig(seed=2, domain_size=3))
        rel = Relation((3,) * 4, tuple((x, x, x, x) for x in range(3)))
        inst = mk_instance(alg, [((0, 1, 2, 3), rel.tuples)])
        assert choose_k(inst) == 9


class TestSolve:
    def test_validation_errors(self, maj2):
        inst = mk_instance(maj2, [((0, 1), EQ2)])
        with pytest.raises(ValueError):
            solve(inst, k=2)
        wide = mk_instance(
            maj2, [((0, 1, 2, 3), tuple(itertools.product(range(2), repeat=4)))]
        )
        with pytest.raises(ValueError):
            solve(wide, k=3)  # arity 4 needs k >= 4 on two elements

    def test_rejects_broken_identities(self):
        p1 = OperationTable.from_function(2, 3, lambda x, y, z: x)
        p3 = OperationTable.from_function(2, 3, lambda x, y, z: z)
        alg = Algebra(2, (("j1", p1), ("j2", p3)), ("j1", "j2"))
        inst = mk_instance(alg, [((0, 1), EQ2)])
        with pytest.raises(NotCd3):
            solve(inst)

    def test_rejects_non_invariant_constraint(self, maj2):
        one_in_three = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        inst = mk_instance(maj2, [((0, 1, 2), one_in_three)])
        with pytest.raises(InvarianceViolation):
            solve(inst)
        # one-in-three on coordinates 0, 2, 4 times equality on 1, 3: the
        # product's only bad factor is one block of its coordinates
        product = tuple((a, e, b, e, c) for a, b, c in one_in_three for e in (0, 1))
        inst = mk_instance(maj2, [((0, 1), EQ2), ((0, 1, 2, 3, 4), product)])
        with pytest.raises(
            InvarianceViolation,
            match=r"^constraint on scope \(0, 1, 2, 3, 4\) is not preserved by the domain operations$",
        ):
            solve(inst)

    def test_small_instances_read_top_entry(self, maj2):
        inst = mk_instance(maj2, [((0, 1), IMPL), ((1, 2), IMPL), ((0,), ((1,),))])
        out = solve(inst)
        assert out.solution == (1, 1, 1) and not out.fallback

    def test_unsat_has_certificate(self, maj2):
        inst = mk_instance(maj2, [((0, 1), EQ2), ((1, 2), EQ2), ((0, 2), NEQ2)])
        out = solve(inst)
        assert out.solution is None
        assert out.certificate is not None

    def test_swap_chain(self, dd2):
        inst = mk_instance(dd2, [((0, 1), SWAP), ((1, 2), SWAP), ((2, 3), SWAP)])
        assert solve(inst).solution == (0, 1, 0, 1)

    def test_agrees_with_oracle_on_random_instances(self):
        rng = random.Random(83)
        sat = unsat = 0
        for _ in range(40):
            inst = rand_instance(rng)
            got = solve(inst)
            want = brute_force_solve(inst)
            assert got.sat == want.sat
            if got.sat:
                assert satisfies(inst, got.solution)
                sat += 1
            else:
                unsat += 1
        assert sat and unsat

    def test_agrees_on_square_domains(self):
        rng = random.Random(89)
        base = switch_algebra(2)
        alg = product_algebra(base, base)
        for _ in range(15):
            cfg = GeneratorConfig(
                seed=rng.randrange(2**32),
                domain_size=4,
                num_vars=rng.randint(4, 5),
                num_constraints=rng.randint(3, 5),
                max_arity=3,
                subpower_seeds=rng.randint(2, 4),
            )
            inst = gen_instance(alg, cfg)
            got = solve(inst)
            want = brute_force_solve(inst)
            assert got.sat == want.sat
            if got.sat:
                assert satisfies(inst, got.solution)

    def test_agrees_on_cube_domains(self, monkeypatch):
        # a split of a size-8 domain pulls back to a class of four
        # elements, which is not simple and splits again
        splits = collections.Counter()
        original = solver_mod.quotient_reduce

        def spy(*args):
            splits[args[0].base.sig.domains[args[1]].size] += 1
            return original(*args)

        monkeypatch.setattr(solver_mod, "quotient_reduce", spy)
        rng = random.Random(101)
        base = switch_algebra(2)
        alg = product_algebra(product_algebra(base, base), base)
        for _ in range(6):
            cfg = GeneratorConfig(
                seed=rng.randrange(2**32),
                domain_size=8,
                num_vars=rng.randint(4, 5),
                num_constraints=rng.randint(3, 5),
                max_arity=3,
                subpower_seeds=rng.randint(2, 4),
            )
            inst = gen_instance(alg, cfg)
            got = solver_mod.solve(inst)
            assert got.sat == brute_force_solve(inst).sat and not got.fallback
            if got.sat:
                assert satisfies(inst, got.solution)
        assert splits[8] and splits[4]

    def test_agrees_on_products_of_generated_algebras(self, monkeypatch):
        # generated algebras are simple in practice, so their products are
        # the generated domains that split; a size-9 product of two
        # ideal-free size-3 algebras can also split a size-6 subdirect trim
        splits = collections.Counter()
        original = solver_mod.quotient_reduce

        def spy(*args):
            splits[args[0].base.sig.domains[args[1]].size] += 1
            return original(*args)

        def gen(seed):
            return gen_cd3_algebra(GeneratorConfig(seed=seed, domain_size=3))

        monkeypatch.setattr(solver_mod, "quotient_reduce", spy)
        draws = (
            (product_algebra(gen(0), switch_algebra(2)), (0, 1)),
            (product_algebra(gen(3), switch_algebra(2)), (0, 1)),
            (product_algebra(gen(3), gen(6)), (0, 1, 2)),
            (product_algebra(gen(6), gen(14)), (0, 2)),
            (product_algebra(gen(14), gen(15)), (0,)),
        )
        for alg, seeds in draws:
            assert some_proper_ideal(alg) is None and not is_simple(alg)
            for seed in seeds:
                inst = planted_instance(random.Random(seed), alg, 5, (3, 3, 2), 1)
                got = solver_mod.solve(inst)
                assert got.sat == brute_force_solve(inst).sat and not got.fallback
                if got.sat:
                    assert satisfies(inst, got.solution)
        assert splits[6] and splits[9]

    def test_agrees_with_oracle_on_algebras_with_quotients(self, monkeypatch):
        # the generated algebras of compare are simple in practice, so its
        # draws never split; these products do, some more than once
        splits = []
        original = solver_mod.quotient_reduce

        def spy(*args):
            splits[-1] += 1
            return original(*args)

        monkeypatch.setattr(solver_mod, "quotient_reduce", spy)
        verdicts = collections.Counter()
        for inst in quotient_algebra_draws():
            splits.append(0)
            got = solver_mod.solve(inst)
            assert got.sat == brute_force_solve(inst).sat and not got.fallback
            if got.sat:
                assert satisfies(inst, got.solution)
            verdicts[got.sat] += 1
        assert verdicts[True] >= 20 and verdicts[False] >= 20
        assert sum(splits) >= 30 and sum(n >= 2 for n in splits) >= 5

    def test_fallback_flag_on_forced_assembly_failure(self, dd2, monkeypatch):
        inst = mk_instance(dd2, [((0, 1), SWAP), ((1, 2), SWAP), ((2, 3), SWAP)])

        def boom(mi):
            raise LemmaViolation("forced")

        monkeypatch.setattr(solver_mod, "base_case_solve", boom)
        out = solver_mod.solve(inst)
        assert out.fallback
        assert out.solution == (0, 1, 0, 1)


# Solutions recorded with the implementation that chose the reduction
# regime through an explicit mode; every draw below is satisfiable.
# Square draws take one to seven quotient splits.
PINNED_SQUARE = (
    (0, 0, 0, 1, 2, 0),
    (2, 2, 1, 2, 0, 0),
    (0, 0, 0, 2, 0, 1),
    (0, 1, 0, 0, 3, 0),
    (1, 0, 0, 1, 0, 0),
    (0, 2, 2, 0, 2, 3),
    (0, 0, 0, 0, 1, 0),
    (1, 0, 0, 3, 0, 1),
    (3, 2, 0, 0, 2, 1),
    (3, 0, 1, 1, 0, 0),
)
# Wide draws (an arity-5 constraint, k=4): five filter the arity-5
# constraint tuplewise in an ideal restriction.
PINNED_WIDE = (
    (0, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 1),
    (1, 1, 1, 0, 0, 0),
    (1, 1, 0, 0, 0, 1),
    (1, 0, 1, 0, 1, 0),
    (1, 1, 0, 0, 0, 0),
    (1, 0, 1, 1, 1, 1),
    (0, 0, 1, 1, 1, 1),
    (0, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 0, 1),
)


class TestPinnedOutcomes:
    def test_square_domains(self):
        base = switch_algebra(2)
        alg = product_algebra(base, base)
        for i, solution in enumerate(PINNED_SQUARE):
            inst = planted_instance(random.Random(500 + i), alg, 6, (3, 3, 3), 3)
            out = solve(inst)
            assert (out.solution, out.certificate, out.fallback) == (solution, None, False), i

    def test_one_validation_and_one_solve_per_instance(self, monkeypatch):
        # a quotient split pins one congruence class of the one k-system:
        # no nested solve validates, reduces or assembles an image system
        calls = collections.Counter()
        names = ("solve", "validate_invariance", "quotient_reduce", "_reduce", "base_case_solve")
        for name in names:
            original = getattr(solver_mod, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(solver_mod, name, spy)
        base = switch_algebra(2)
        inst = planted_instance(random.Random(505), product_algebra(base, base), 6, (3, 3, 3), 3)
        assert solver_mod.solve(inst).solution == PINNED_SQUARE[5]
        assert calls["quotient_reduce"] >= 2
        assert calls["solve"] == calls["validate_invariance"] == 1
        assert calls["_reduce"] == calls["base_case_solve"] == 1

    def test_wide_constraints(self):
        for i, solution in enumerate(PINNED_WIDE):
            rng = random.Random(900 + i)
            alg = gen_cd3_algebra(
                GeneratorConfig(seed=rng.randrange(2**32), domain_size=2)
            )
            inst = planted_instance(rng, alg, 6, (5, 4, 3), 2)
            out = solve(inst, k=4)
            assert (out.solution, out.certificate, out.fallback) == (solution, None, False), i
