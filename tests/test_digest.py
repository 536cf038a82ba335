"""A digest pin over everything the solve path computes.

One sha256 covers, for every draw, the SolveOutcome fields, every entry
that k_minimalize stores (an emptied result's partial system included)
and every build_lambda_J lamj, each with its keys in stored order.  The
draws are seeded planted instances of the four benchmark sat-mix shapes
and 10-variable, size-3 gen_instance draws, most of which the first
propagation empties.  A change that keeps every answer but alters the
pop order, a stored relation or a restricted entry changes the digest.
"""

import hashlib
import random

import cd3csp.solver as solver_mod
from cd3csp import (
    GeneratorConfig,
    gen_cd3_algebra,
    gen_instance,
    product_algebra,
    some_proper_ideal,
    switch_algebra,
)

from tests.conftest import planted_instance

# recorded before the projection and image kernels moved to C-level iterators
PINNED_DIGEST = "3d840af66f958bceac1043c8ebc0f11993444b0252c42e11161c5a87d9f1e1f3"


def _algebra_with_ideal(rng, size):
    while True:
        alg = gen_cd3_algebra(GeneratorConfig(seed=rng.randrange(2**31), domain_size=size))
        if some_proper_ideal(alg) is not None:
            return alg


def _ideal_k3(rng, size, nvars):
    alg = _algebra_with_ideal(rng, size)
    arities = [rng.randint(2, 3) for _ in range(nvars - 1)]
    return planted_instance(rng, alg, nvars, arities, 2)


def _quotient_sq4(rng):
    base = switch_algebra(2)
    return planted_instance(rng, product_algebra(base, base), 5, (3, 3, 3), 2)


def _wide_k4(rng):
    alg = _algebra_with_ideal(rng, 2)
    return planted_instance(rng, alg, 5, (5, 4, rng.randint(2, 3)), 2)


def _unsat_prop(rng):
    alg = gen_cd3_algebra(GeneratorConfig(seed=rng.randrange(2**31), domain_size=3))
    cfg = GeneratorConfig(
        seed=rng.randrange(2**31),
        domain_size=3,
        num_vars=10,
        num_constraints=10,
        max_arity=3,
        subpower_seeds=2,
    )
    return gen_instance(alg, cfg)


SHAPES = (
    ("ideal-k3/2", lambda rng: _ideal_k3(rng, 2, 5)),
    ("quotient-sq4", _quotient_sq4),
    ("wide-k4", _wide_k4),
    ("ideal-k3/3", lambda rng: _ideal_k3(rng, 3, 4)),
    ("gen-10x3", _unsat_prop),
)
DRAWS_PER_SHAPE = 25


def _rel_record(rel):
    return (rel.sizes, rel.tuples)


def solve_path_digest(monkeypatch):
    """sha256 over the outcome, k_minimalize entries and lamj of each draw."""
    seen = []

    def spy(name, record):
        original = getattr(solver_mod, name)

        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            seen.append((name, record(result)))
            return result

        monkeypatch.setattr(solver_mod, name, wrapped)

    spy(
        "k_minimalize",
        lambda mi: (
            mi.certificate,
            [(I, _rel_record(rel)) for I, rel in mi.system.entries.items()],
            [(c.scope, _rel_record(c.rel)) for c in mi.base.constraints],
        ),
    )
    spy("build_lambda_J", lambda red: [(I, _rel_record(rel)) for I, rel in red.lamj.items()])

    h = hashlib.sha256()
    for name, make in SHAPES:
        for i in range(DRAWS_PER_SHAPE):
            inst = make(random.Random(f"{name}/{i}"))
            seen.clear()
            out = solver_mod.solve(inst)
            h.update(repr((name, i, out.solution, out.certificate, out.fallback)).encode())
            h.update(repr(seen).encode())
    return h.hexdigest()


def test_solve_path_digest(monkeypatch):
    assert solve_path_digest(monkeypatch) == PINNED_DIGEST
