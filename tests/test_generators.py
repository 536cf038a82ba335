"""Seeded generation of algebras and instances."""

import itertools
import random

import pytest

from cd3csp import (
    GeneratorConfig,
    RNG_ALGORITHM,
    check_cd3,
    gen_cd3_algebra,
    gen_instance,
    is_invariant,
    scope_algebras,
    validate_invariance,
)

from tests.conftest import brute_invariant


class TestConfig:
    def test_defaults(self):
        cfg = GeneratorConfig(seed=0)
        assert cfg.domain_size == 2
        assert cfg.num_vars >= 1 and cfg.num_constraints >= 1

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=0, domain_size=0)
        with pytest.raises(ValueError, match="at least one variable"):
            GeneratorConfig(seed=0, num_vars=0)
        with pytest.raises(ValueError, match="num_constraints must not be negative"):
            GeneratorConfig(seed=0, num_constraints=-1)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=0, max_arity=0)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=0, max_arity=5, num_vars=4)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=0, subpower_seeds=0)

    def test_rng_algorithm_is_pinned(self):
        assert RNG_ALGORITHM == "py-mt19937/1"


class TestGenAlgebra:
    def test_deterministic(self):
        a = gen_cd3_algebra(GeneratorConfig(seed=11, domain_size=3))
        b = gen_cd3_algebra(GeneratorConfig(seed=11, domain_size=3))
        assert a == b
        c = gen_cd3_algebra(GeneratorConfig(seed=12, domain_size=3))
        assert a != c

    def test_identities_hold_across_seeds_and_sizes(self):
        for size in (2, 3, 4):
            for seed in range(18):
                alg = gen_cd3_algebra(GeneratorConfig(seed=seed, domain_size=size))
                assert check_cd3(alg).ok

    def test_identities_brute_loop(self):
        # re-verify one algebra cell by cell, without check_cd3
        alg = gen_cd3_algebra(GeneratorConfig(seed=7, domain_size=3))
        j1 = alg.op("j1").apply
        j2 = alg.op("j2").apply
        for x, y in itertools.product(range(3), repeat=2):
            assert j1(x, y, x) == x
            assert j2(x, y, x) == x
            assert j1(x, x, y) == x
            assert j2(x, x, y) == y
            assert j1(x, y, y) == j2(x, y, y)


class TestGenInstance:
    def test_deterministic(self):
        alg = gen_cd3_algebra(GeneratorConfig(seed=3, domain_size=2))
        cfg = GeneratorConfig(
            seed=5, domain_size=2, num_vars=5, num_constraints=4, max_arity=3
        )
        assert gen_instance(alg, cfg) == gen_instance(alg, cfg)

    def test_shape_respects_config(self):
        alg = gen_cd3_algebra(GeneratorConfig(seed=3, domain_size=3))
        cfg = GeneratorConfig(
            seed=9, domain_size=3, num_vars=6, num_constraints=5, max_arity=3
        )
        inst = gen_instance(alg, cfg)
        assert len(inst.sig.domains) == 6
        assert len(inst.constraints) == 5
        for con in inst.constraints:
            assert 1 <= len(con.scope) <= 3
            assert all(0 <= v < 6 for v in con.scope)

    def test_constraints_are_invariant(self):
        rng = random.Random(97)
        for _ in range(15):
            size = rng.choice((2, 3))
            alg = gen_cd3_algebra(
                GeneratorConfig(seed=rng.randrange(2**32), domain_size=size)
            )
            cfg = GeneratorConfig(
                seed=rng.randrange(2**32),
                domain_size=size,
                num_vars=rng.randint(3, 6),
                num_constraints=rng.randint(2, 5),
                max_arity=3,
            )
            inst = gen_instance(alg, cfg)
            validate_invariance(inst)
            for con in inst.constraints:
                algs = scope_algebras(inst, con.scope)
                assert is_invariant(con.rel, algs)
                assert brute_invariant(con.rel, algs)

    def test_nonempty_relations(self):
        alg = gen_cd3_algebra(GeneratorConfig(seed=3, domain_size=2))
        for seed in range(10):
            cfg = GeneratorConfig(
                seed=seed, domain_size=2, num_vars=4, num_constraints=3, max_arity=3
            )
            inst = gen_instance(alg, cfg)
            assert all(con.rel.tuples for con in inst.constraints)

    def test_size_mismatch_rejected(self):
        alg = gen_cd3_algebra(GeneratorConfig(seed=3, domain_size=2))
        with pytest.raises(ValueError):
            gen_instance(alg, GeneratorConfig(seed=1, domain_size=3))
