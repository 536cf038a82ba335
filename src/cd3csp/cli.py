"""Command line front end.

Exit codes: 0 for success (including SAT and agreeing comparisons), 10 for
an unsatisfiable instance, 2 for unreadable or invalid input, 3 for a
violated structural guarantee, 1 for a solver/oracle disagreement.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys

from . import fileio
from .algebra import check_cd3
from .consistency import effective_instance, k_minimalize
from .errors import CspError, FormatError, LemmaViolation
from .generators import RNG_ALGORITHM, GeneratorConfig, gen_cd3_algebra, gen_instance
from .lemmas import SUITES, run_suite
from .solver import brute_force_solve, choose_k, solve


def _emit(text, output):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def cmd_check_algebra(args) -> int:
    alg = fileio.read_algebra(args.file)
    report = check_cd3(alg)
    if report.ok:
        print(f"ok: size {alg.size}, chain pair ({alg.jonsson[0]}, {alg.jonsson[1]})")
        return 0
    for label, cell in report.failures:
        print(f"violated: {label} at {cell}")
    return 2


def cmd_gen_algebra(args) -> int:
    cfg = GeneratorConfig(seed=args.seed, domain_size=args.size)
    alg = gen_cd3_algebra(cfg)
    stanza = {"algorithm": RNG_ALGORITHM, "seed": args.seed, "domain_size": args.size}
    _emit(fileio.dumps(fileio.algebra_to_obj(alg, generator=stanza)), args.output)
    return 0


def _instance_config(args) -> GeneratorConfig:
    return GeneratorConfig(
        seed=args.seed,
        domain_size=args.size,
        num_vars=args.vars,
        num_constraints=args.constraints,
        max_arity=args.max_arity,
        subpower_seeds=args.subpower_seeds,
    )


def cmd_gen_instance(args) -> int:
    if args.algebra is not None:
        alg = fileio.read_algebra(args.algebra)
        args.size = alg.size
        cfg = _instance_config(args)
    else:
        cfg = _instance_config(args)
        alg = gen_cd3_algebra(cfg)
    inst = gen_instance(alg, cfg)
    stanza = {"algorithm": RNG_ALGORITHM, **dataclasses.asdict(cfg)}
    _emit(fileio.dumps(fileio.instance_to_obj(inst, generator=stanza)), args.output)
    return 0


def cmd_minimalize(args) -> int:
    inst = fileio.read_instance(args.file)
    k = args.k if args.k is not None else choose_k(inst)
    mi = k_minimalize(inst, k)
    if mi.empty_flag:
        print(f"EMPTY at k={k}, certificate scope {list(mi.certificate)}")
        return 10
    eff = dataclasses.replace(effective_instance(mi), k=k)
    _emit(fileio.dumps(fileio.instance_to_obj(eff)), args.output)
    if args.output is not None:
        print(f"nonempty at k={k}: {len(eff.constraints)} constraints kept")
    return 0


def _print_outcome(out) -> int:
    if out.solution is None:
        if out.certificate is not None:
            print(f"UNSAT certificate scope {list(out.certificate)}")
        else:
            print("UNSAT")
        return 10
    print("SAT " + " ".join(str(v) for v in out.solution))
    return 0


def cmd_solve(args) -> int:
    inst = fileio.read_instance(args.file)
    return _print_outcome(solve(inst, k=args.k))


def cmd_oracle(args) -> int:
    inst = fileio.read_instance(args.file)
    return _print_outcome(brute_force_solve(inst))


def cmd_compare(args) -> int:
    rng = random.Random(args.seed)
    disagreements = 0
    for trial in range(args.trials):
        aseed = rng.randrange(2**32)
        iseed = rng.randrange(2**32)
        alg = gen_cd3_algebra(GeneratorConfig(seed=aseed, domain_size=args.size))
        inst = gen_instance(alg, dataclasses.replace(_instance_config(args), seed=iseed))
        got = solve(inst)
        want = brute_force_solve(inst)
        tag = f"trial {trial} (algebra seed {aseed}, instance seed {iseed})"
        if got.sat != want.sat:
            print(f"{tag}: DISAGREE solver={'sat' if got.sat else 'unsat'} oracle={'sat' if want.sat else 'unsat'}")
            disagreements += 1
        else:
            print(f"{tag}: agree {'sat' if got.sat else 'unsat'}")
    return 1 if disagreements else 0


def cmd_lemma_suite(args) -> int:
    names = sorted(SUITES) if args.which == "all" else [args.which]
    for name in names:
        report = run_suite(name, trials=args.trials, seed=args.seed)
        print(report.line())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cd3csp",
        description="Decide instances over finite algebras with a two-step chain of ternary operations.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check-algebra", help="verify the chain identities of an algebra file")
    sp.add_argument("file")
    sp.set_defaults(handler=cmd_check_algebra)

    # the drawing flags: an algebra's seed and size, and an instance's shape
    algebra_flags = argparse.ArgumentParser(add_help=False)
    algebra_flags.add_argument("--seed", type=int, default=0)
    algebra_flags.add_argument("--size", type=int, default=2)
    instance_flags = argparse.ArgumentParser(add_help=False, parents=[algebra_flags])
    instance_flags.add_argument("--vars", type=int, default=4)
    instance_flags.add_argument("--constraints", type=int, default=4)
    instance_flags.add_argument("--max-arity", type=int, default=3)
    instance_flags.add_argument("--subpower-seeds", type=int, default=3)

    sp = sub.add_parser(
        "gen-algebra", parents=[algebra_flags], help="draw a random algebra satisfying the identities"
    )
    sp.add_argument("-o", "--output")
    sp.set_defaults(handler=cmd_gen_algebra)

    sp = sub.add_parser(
        "gen-instance", parents=[instance_flags], help="draw a random instance with invariant constraints"
    )
    sp.add_argument("--algebra", help="use this algebra file instead of drawing one")
    sp.add_argument("-o", "--output")
    sp.set_defaults(handler=cmd_gen_instance)

    sp = sub.add_parser("minimalize", help="propagate an instance to its k-minimal fixpoint")
    sp.add_argument("file")
    sp.add_argument("--k", type=int)
    sp.add_argument("-o", "--output")
    sp.set_defaults(handler=cmd_minimalize)

    sp = sub.add_parser("solve", help="decide an instance through the reduction pipeline")
    sp.add_argument("file")
    sp.add_argument("--k", type=int)
    sp.set_defaults(handler=cmd_solve)

    sp = sub.add_parser("oracle", help="decide an instance by exhaustive search")
    sp.add_argument("file")
    sp.set_defaults(handler=cmd_oracle)

    sp = sub.add_parser(
        "compare",
        parents=[instance_flags],
        help="cross-check the pipeline against the oracle on random instances",
    )
    sp.add_argument("--trials", type=int, default=20)
    sp.set_defaults(handler=cmd_compare)

    sp = sub.add_parser("lemma-suite", help="run one or all structural property suites")
    sp.add_argument("--which", default="all", choices=sorted(SUITES) + ["all"])
    sp.add_argument(
        "--trials", type=int, help="cases per suite; connected-simple: seeds scanned per size"
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(handler=cmd_lemma_suite)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LemmaViolation as e:
        print(f"violation: {e}", file=sys.stderr)
        return 3
    except (CspError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
