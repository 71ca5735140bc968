"""Workload pools, seeded selection, operations and output checks.

Each workload draws its inputs from a fixed pool of generated instances
whose outputs were recorded once (reference.json, see record_reference.py).
Within each class of a pool (deficit-school count for `wide`, variant for
`deep`) the entries are ranked by their recorded cost and cut into strata
of STRATUM consecutive entries; the run's seed picks one entry per stratum.
Different seeds therefore run different instances, while every run sees the
same spread of costs, which keeps medians and tails comparable across
seeds.  Operations run in an order whose every prefix spreads over the cost
range, so a run that stops mid-cycle stays close to balanced.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import generators

STRATUM = 3


@dataclass(frozen=True)
class Workload:
    pool: int                        # entries in the pool
    cls: Callable[[int], str]        # class of a pool entry


WORKLOADS = {
    "wide": Workload(180, generators.wide_class),
    "deep": Workload(180, generators.deep_variant),
    "audit": Workload(150, lambda index: "base"),
}


@dataclass
class Op:
    kind: str
    entry: int
    run: Callable[[], object]            # the timed operation
    outputs: Callable[[object], dict]    # untimed: raw result -> outputs
    check: Callable[[dict], str | None]  # counting check; None when right
    expect: dict | None                  # reference summary, if recorded


def import_program(src: Path):
    """(Re-)import the package from `src`, dropping any loaded copy."""
    for name in [n for n in sys.modules
                 if n == "redeploy" or n.startswith("redeploy.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    redeploy = importlib.import_module("redeploy")
    importlib.import_module("redeploy.cli")
    loaded = Path(redeploy.__file__).resolve().parent
    if loaded != (src / "redeploy").resolve():
        raise ImportError(f"redeploy was imported from {redeploy.__file__}, "
                          f"not from {src}")
    return redeploy


def spread_order(n: int) -> list[int]:
    """0..n-1 in golden-ratio order: every prefix spreads over the range.

    Element j is the rank of frac(j * phi) among the n such points, which
    lie evenly in [0, 1) by the three-distance theorem.
    """
    points = [(j * 0.6180339887498949) % 1 for j in range(n)]
    rank = {j: r for r, j in enumerate(sorted(range(n),
                                              key=points.__getitem__))}
    return [rank[j] for j in range(n)]


def select(workload: Workload, costs: dict[int, float], seed: int) -> list[int]:
    """Pool entries of one run, in run order (round robin over classes)."""
    rng = random.Random(seed)
    classes: dict[str, list[tuple[float, int]]] = {}
    for index in range(workload.pool):
        classes.setdefault(workload.cls(index), []).append(
            (costs[index], index))
    columns = []
    for cls in sorted(classes):
        ranked = [index for _, index in sorted(classes[cls])]
        picks = [rng.choice(ranked[k:k + STRATUM])
                 for k in range(0, len(ranked), STRATUM)]
        columns.append([picks[k] for k in spread_order(len(picks))])
    return [index for row in zip(*columns, strict=True) for index in row]


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text())


# -- documents ------------------------------------------------------------

def make_doc(redeploy, workload: str, index: int) -> tuple[dict, str]:
    """(document, variant) of one pool entry."""
    if workload == "wide":
        return generators.wide_doc(redeploy.generate, index), "base"
    if workload == "deep":
        return (generators.deep_doc(redeploy.generate, index),
                generators.deep_variant(index))
    return generators.audit_doc(redeploy.generate, index), "base"


def parse_doc(redeploy, doc: dict, variant: str):
    if variant == "specialization":
        return redeploy.validate_typed(doc)
    return redeploy.validate(doc)


# -- checks ---------------------------------------------------------------

def check_solution(redeploy, instance, variant: str, out: dict) -> str | None:
    """Re-derive the deficits from the transfer by counting, without any
    flow code, and compare them with the reported ones."""
    transfer = redeploy.Transfer.from_mapping(out["transfer"])
    if variant == "specialization":
        if not redeploy.is_feasible_typed(instance, transfer):
            return "transfer is infeasible"
        after = redeploy.post_transfer_deficits_typed(instance, transfer)
    else:
        allow = variant == "extended"
        if not redeploy.is_feasible(instance, transfer,
                                    allow_surplus_moves=allow):
            return "transfer is infeasible"
        after = redeploy.post_transfer_deficits(instance, transfer,
                                                allow_surplus_moves=allow)
    if after.as_mapping() != out["deficits"]:
        return "transfer does not realize the reported deficits"
    if transfer.moved_count != out["moved"]:
        return "moved count does not match the transfer"
    return None


def summarize(kind: str, out: dict) -> dict:
    """The parts of an operation's outputs compared with the reference."""
    if kind == "solve":
        return {"target": {k: str(Fraction(v))
                           for k, v in out["target"].items()},
                "multiset": sorted(out["deficits"].values(), reverse=True),
                "moved": out["moved"]}
    return {"strategy_proof": out["report"]["strategy_proof"],
            "misreports_tested": out["report"]["misreports_tested"]}


def check(op: Op, raw) -> str | None:
    """None when the operation's output is right, else the reason."""
    out = op.outputs(raw)
    reason = op.check(out)
    if reason is None and op.expect is not None:
        got = summarize(op.kind, out)
        wrong = [key for key, value in op.expect.items()
                 if got.get(key) != value]
        if wrong:
            reason = f"differs from the reference in {', '.join(wrong)}"
    return reason


# -- operations -----------------------------------------------------------

def _cli(redeploy, argv: list[str]) -> tuple[int, str]:
    """redeploy.cli.main in-process, with its standard output captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = redeploy.cli.main(argv)
    return code, buffer.getvalue()


def wide_op(redeploy, index, instance, path, variant, expect, work):
    """Library solve() on an in-memory instance."""
    def outputs(result):
        return {"transfer": result.transfer.to_mapping(),
                "deficits": {k: int(v)
                             for k, v in result.deficits.as_mapping().items()},
                "target": result.decomposition.target.as_mapping(),
                "moved": result.moved}

    return Op("solve", index, lambda: redeploy.solve(instance), outputs,
              lambda out: check_solution(redeploy, instance, variant, out),
              expect)


def deep_op(redeploy, index, instance, path, variant, expect, work):
    """`redeploy solve --variant V -o FILE` on an instance file."""
    solution = work / "solution.json"
    argv = ["solve", str(path), "--variant", variant, "-o", str(solution)]

    def outputs(code):
        # Removing the file makes a later operation that writes nothing fail
        # instead of passing on this one's output.
        doc = json.loads(solution.read_text())
        solution.unlink()
        return {"exit": code, "transfer": doc["transfer"],
                "deficits": doc["deficits"], "target": doc["fractional"],
                "moved": doc["moved_teachers"]}

    def checked(out):
        if out["exit"] != 0:
            return f"solve exit status {out['exit']}"
        return check_solution(redeploy, instance, variant, out)

    return Op("solve", index, lambda: _cli(redeploy, argv)[0], outputs,
              checked, expect)


def audit_op(redeploy, index, instance, path, variant, expect, work):
    """`redeploy audit-sp --all`, then `redeploy verify --solution` on the
    solver's recorded solution, for one instance."""
    solution = path.with_suffix(".solution.json")
    if expect is not None:
        rewrite(solution, json.dumps(
            {"transfer": expect["transfer"], "deficits": expect["deficits"]}))
    audit_argv = ["audit-sp", str(path), "--all"]
    verify_argv = ["verify", str(path), "--solution", str(solution)]

    def run():
        return _cli(redeploy, audit_argv), _cli(redeploy, verify_argv)[0]

    def outputs(raw):
        (code, text), verify_code = raw
        return {"exit": code, "report": json.loads(text),
                "verify_exit": verify_code}

    def checked(out):
        if out["exit"] != 0:
            return f"audit-sp exit status {out['exit']}"
        if out["verify_exit"] != 0:
            return f"verify exit status {out['verify_exit']}"
        return None

    if expect is not None:
        expect = {"strategy_proof": True,
                  "misreports_tested": expect.get("misreports_tested")}
    return Op("audit", index, run, outputs, checked, expect)


OPS = {"wide": wide_op, "deep": deep_op, "audit": audit_op}


def rewrite(path: Path, text: str):
    """Write `text` to `path`, over the old bytes when the file exists.

    On a shared disk, creating a file or truncating one to zero and filling
    it again costs 0.2-0.7 ms of file-system latency that varies from run
    to run and that no change to redeploy can move; overwriting in place
    costs about 0.03 ms.  So every set-up after a run's first rewrites the
    pool's files in place.
    """
    try:
        file = open(path, "r+b")
    except FileNotFoundError:
        file = open(path, "wb")
    with file:
        file.write(text.encode())
        file.truncate()


def prepare(redeploy, workload: str, indices: list[int], work: Path,
            expects: dict[int, dict] | None) -> list[Op]:
    """Generate, validate and write the inputs of the given pool entries,
    and build their operations in order."""
    work.mkdir(parents=True, exist_ok=True)
    ops = []
    for index in indices:
        doc, variant = make_doc(redeploy, workload, index)
        instance = parse_doc(redeploy, doc, variant)
        path = work / f"{workload}-{index}.json"
        rewrite(path, json.dumps(doc))
        expect = expects[index] if expects is not None else None
        ops.append(OPS[workload](redeploy, index, instance, path, variant,
                                 expect, work))
    return ops
