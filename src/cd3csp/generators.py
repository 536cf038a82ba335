"""Seeded random generation of algebras and instances.

All draws go through random.Random seeded explicitly, so equal seeds give
byte-identical outputs.  The algorithm tag below is written into generated
files so a reader can tell which drawing scheme produced them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import Algebra, OperationTable
from .relation import Constraint, Instance, Signature, generated_subpower

RNG_ALGORITHM = "py-mt19937/1"


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    domain_size: int = 2
    num_vars: int = 4
    num_constraints: int = 4
    max_arity: int = 3
    subpower_seeds: int = 3

    def __post_init__(self):
        if self.domain_size < 1:
            raise ValueError("domain_size must be positive")
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        if self.num_constraints < 0:
            raise ValueError("num_constraints must not be negative")
        if not (1 <= self.max_arity <= self.num_vars):
            raise ValueError("max_arity must lie in 1..num_vars")
        if self.subpower_seeds < 1:
            raise ValueError("subpower_seeds must be positive")


def gen_cd3_algebra(cfg: GeneratorConfig) -> Algebra:
    """Random algebra satisfying the chain identities by construction.

    Cells forced by the identities are filled directly; the x*y family
    (cells x,y,y) gets one shared draw per pair, and fully distinct cells
    are drawn independently for each of the two tables.
    """
    rng = random.Random(cfg.seed)
    n = cfg.domain_size
    t1, t2 = [], []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if x == y:
                    t1.append(x)
                    t2.append(z)
                elif y == z:
                    v = rng.randrange(n)
                    t1.append(v)
                    t2.append(v)
                elif x == z:
                    t1.append(x)
                    t2.append(x)
                else:
                    t1.append(rng.randrange(n))
                    t2.append(rng.randrange(n))
    return Algebra(
        n,
        (
            ("j1", OperationTable(3, n, tuple(t1))),
            ("j2", OperationTable(3, n, tuple(t2))),
        ),
        ("j1", "j2"),
    )


def gen_instance(alg: Algebra, cfg: GeneratorConfig) -> Instance:
    """Random single-sorted instance with invariant constraint relations.

    Each constraint closes a few random seed tuples under the operations,
    so invariance holds by construction.
    """
    if alg.size != cfg.domain_size:
        raise ValueError(
            f"config says domain_size={cfg.domain_size} but algebra has {alg.size}"
        )
    rng = random.Random(cfg.seed)
    constraints = []
    for _ in range(cfg.num_constraints):
        arity = rng.randint(1, cfg.max_arity)
        scope = tuple(sorted(rng.sample(range(cfg.num_vars), arity)))
        seeds = [
            tuple(rng.randrange(alg.size) for _ in range(arity))
            for _ in range(cfg.subpower_seeds)
        ]
        rel = generated_subpower((alg,) * arity, seeds)
        constraints.append(Constraint(scope, rel))
    return Instance(Signature((alg,) * cfg.num_vars), tuple(constraints))
