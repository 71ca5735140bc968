"""Command-line interface.

Subcommands: solve an instance, verify the solver against the brute-force
oracle, audit strategy-proofness, generate random instances, and render a
solution report.  Exit codes: 0 success, 1 I/O or check failure, 2 invalid
document, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import CapExceededError, InfeasibleTransferError, \
    UnknownIdError, ValidationError
from .game import FlowGame, blocking_coalition
from .generate import random_instance_doc
from .instance import STAY, Transfer, parse_instance, \
    post_transfer_deficits, validate
from .mechanism import audit_strategy_proofness, select_transfer, \
    unstable_select_transfer
from .network import VARIANTS, build_network, to_dot
from .oracle import brute_force_lorenz_dominant, lorenz_dominates
from .rounding import SolveResult, solve
from .typed import parse_typed

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID = 2
EXIT_CAP = 3


def _read(path: str) -> str:
    return Path(path).read_text()


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_instance(path: str, variant: str):
    text = _read(path)
    if variant == "specialization":
        return parse_typed(text)
    return parse_instance(text)


def _fraction_str(value) -> str:
    return str(Fraction(value))


def solution_doc(instance_doc: dict, path: str,
                 result: SolveResult) -> dict:
    deficits = result.deficits
    target = result.decomposition.target
    inbound = result.transfer.inbound_counts()
    return {
        "format": "solution/1",
        "variant": result.variant,
        "instance_path": path,
        "instance": instance_doc,
        "school_order": list(deficits.ids),
        "blocks": [sorted(b, key=list(deficits.ids).index)
                   for b in result.decomposition.blocks],
        "block_worths": list(result.decomposition.block_worths),
        "fractional": {k: _fraction_str(v) for k, v in target.as_mapping()
                       .items()},
        "deficits": {k: int(v) for k, v in deficits.as_mapping().items()},
        "transfer": result.transfer.to_mapping(),
        "moved_teachers": result.moved,
        "deficit_reduction": sum(inbound.get(i, 0) for i in deficits.ids),
        "timings": {k: round(v, 6) for k, v in result.timings.items()},
    }


#: Value type of each solution field that maps ids to values.
_MAPPING_FIELDS = {"transfer": (str, "a string"),
                   "deficits": (int, "an integer")}


def _load_solution(path: str, fields) -> dict:
    """Read a solution document that has every one of the given fields,
    each id-keyed one mapping to values of its type."""
    doc = json.loads(_read(path))
    if not isinstance(doc, dict):
        raise ValidationError(["solution document must be an object"])
    missing = [f"solution is missing field {field!r}"
               for field in fields if field not in doc]
    if missing:
        raise ValidationError(missing)
    errors = []
    for field in fields:
        if field not in _MAPPING_FIELDS:
            continue
        kind, noun = _MAPPING_FIELDS[field]
        if not isinstance(doc[field], dict):
            errors.append(f"solution field {field!r} must be an object")
            continue
        errors += [f"solution field {field!r} maps {key!r} to {value!r}, "
                   f"not {noun}"
                   for key, value in doc[field].items()
                   if not isinstance(value, kind) or isinstance(value, bool)]
    if errors:
        raise ValidationError(errors)
    return doc


def cmd_solve(args) -> int:
    text = _read(args.instance)
    instance = _load_instance(args.instance, args.variant)
    result = solve(instance, args.variant)
    doc = solution_doc(json.loads(text), args.instance, result)
    _write(args.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = None
    if args.solution:
        doc = _load_solution(args.solution, ("transfer", "deficits"))
        # A solution without the field is a base one; the oracle below
        # enumerates base transfers only.
        variant = doc.get("variant", "base")
        if variant != "base":
            raise ValidationError([
                f"verify checks base solutions only, not the {variant!r} "
                f"variant"])
    instance = parse_instance(_read(args.instance))
    expected_multiset, _ = brute_force_lorenz_dominant(instance)

    if doc is not None:
        transfer = Transfer.from_mapping(doc["transfer"])
        claimed = doc["deficits"]
        try:
            deficits = post_transfer_deficits(instance, transfer)
        except InfeasibleTransferError:
            print("FAIL: solution transfer is infeasible")
            return EXIT_FAILURE
        if deficits.as_mapping() != claimed:
            print("FAIL: transfer does not realize the claimed deficits")
            return EXIT_FAILURE
    else:
        deficits = solve(instance).deficits

    game = FlowGame(build_network(instance, "base"))
    witness = blocking_coalition(deficits, game)
    if witness is not None:
        print(f"FAIL: vector is not achievable, blocked by coalition "
              f"{sorted(witness)} with worth {game.worth(witness)}")
        return EXIT_FAILURE
    got = deficits.sorted_multiset()
    if got != expected_multiset:
        print(f"FAIL: solver multiset {got} differs from brute-force "
              f"optimum {expected_multiset}")
        return EXIT_FAILURE
    if not lorenz_dominates(got, expected_multiset):
        print("FAIL: solver outcome does not dominate the oracle outcome")
        return EXIT_FAILURE
    print(f"PASS: deficit multiset {got} matches the brute-force optimum "
          f"and dominates all feasible outcomes")
    return EXIT_OK


def cmd_audit_sp(args) -> int:
    instance = parse_instance(_read(args.instance))
    selector = unstable_select_transfer if args.broken else select_transfer
    report = audit_strategy_proofness(
        instance,
        misreports=args.sample if args.sample is not None else "all",
        seed=args.seed,
        selector=selector)
    print(json.dumps(report.to_doc(), indent=2, sort_keys=True))
    return EXIT_OK if report.ok else EXIT_FAILURE


def cmd_gen(args) -> int:
    doc = random_instance_doc(
        args.seed, surplus=args.surplus, deficit=args.deficit,
        teachers=args.teachers, max_alpha=args.max_alpha,
        max_beta=args.max_beta, accept_prob=args.accept_prob)
    validate(doc)
    _write(args.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_report(args) -> int:
    doc = _load_solution(args.solution, (
        "variant", "moved_teachers", "deficit_reduction", "blocks",
        "fractional", "deficits", "transfer"))
    ids = doc.get("school_order") or sorted(doc["deficits"])
    schools = set(ids).union(*doc["blocks"])
    for field in ("deficits", "fractional"):
        absent = sorted(schools - set(doc[field]))
        if absent:
            raise ValidationError([f"solution field {field!r} lacks "
                                   f"schools {absent}"])
    moved_in = {}
    for teacher, dest in doc["transfer"].items():
        if dest != STAY:
            moved_in[dest] = moved_in.get(dest, 0) + 1
    betas = [doc["deficits"][school] + moved_in.get(school, 0)
             for school in ids]

    lines = []
    lines.append(f"variant: {doc['variant']}")
    moved = doc["moved_teachers"]
    lines.append(f"{moved} teacher{'s' if moved != 1 else ''} moved, "
                 f"total deficit reduced by {doc['deficit_reduction']}")
    lines.append("blocks:")
    for j, block in enumerate(doc["blocks"], start=1):
        value = doc["fractional"][block[0]]
        lines.append(f"  {j}. {', '.join(block)}  (target {value})")
    header = f"{'school':<12}{'beta':>6}{'target':>10}{'final':>7}" \
             f"{'moved-in':>10}"
    lines.append(header)
    for school, beta in zip(ids, betas):
        lines.append(f"{school:<12}{beta:>6}{doc['fractional'][school]:>10}"
                     f"{doc['deficits'][school]:>7}"
                     f"{moved_in.get(school, 0):>10}")
    print("\n".join(lines))

    if args.csv:
        rows = ["school,beta,final_deficit,moved_in"]
        for school, beta in zip(ids, betas):
            rows.append(f"{school},{beta},{doc['deficits'][school]},"
                        f"{moved_in.get(school, 0)}")
        _write(args.csv, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_dot(args) -> int:
    instance = _load_instance(args.instance, args.variant)
    _write(args.output, to_dot(build_network(instance, args.variant)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redeploy",
        description="Equalize school teacher deficits through transfers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the dominant transfer")
    p.add_argument("instance")
    p.add_argument("--variant", choices=VARIANTS, default="base")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify",
                       help="cross-check the solver against brute force")
    p.add_argument("instance")
    p.add_argument("--solution", help="check this solution file instead of "
                                      "running the solver")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("audit-sp", help="exhaustive manipulation audit")
    p.add_argument("instance")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true",
                       help="try every misreport (default)")
    group.add_argument("--sample", type=int,
                       help="try this many sampled misreports per teacher")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--broken", action="store_true",
                   help="use the deliberately unstable selector "
                        "(negative control)")
    p.set_defaults(func=cmd_audit_sp)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--surplus", type=int, default=3)
    p.add_argument("--deficit", type=int, default=5)
    p.add_argument("--teachers", type=int, default=6)
    p.add_argument("--max-alpha", type=int, default=4)
    p.add_argument("--max-beta", type=int, default=4)
    p.add_argument("--accept-prob", type=float, default=0.5)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("report", help="human-readable solution summary")
    p.add_argument("solution")
    p.add_argument("--csv", help="also write per-school before/after rows")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("dot", help="emit the network in GraphViz format")
    p.add_argument("instance")
    p.add_argument("--variant", choices=VARIANTS, default="base")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_dot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, UnknownIdError, InfeasibleTransferError,
            json.JSONDecodeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
