#!/usr/bin/env python3
"""Record the reference outputs of every pool entry with the current code.

    python3 bench/record_reference.py

Run it from the repository root, on a commit whose outputs are trusted.  It
runs every operation of every pool entry once, checks it by counting, and
rewrites bench/reference.json with, per entry, the wall time of its
operations (used only to rank entries into strata) and the summary of its
outputs that run.py compares against:

- solves: the fractional target per school, the descending multiset of
  final deficits and the number of teachers moved;
- audits: the misreports tested per audited teacher (the audit must find
  the mechanism strategy-proof), plus the solver's transfer and deficits,
  which set-up writes as the solution file that `verify --solution` checks.

A change that alters these outputs on purpose re-records them and says so.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402  (sibling module of this script)


def solver_solutions(redeploy, workload: str, pool: int) -> dict[int, dict]:
    """The solver's transfer and deficits per entry, for verify's input."""
    out = {}
    for index in range(pool):
        doc, variant = workloads.make_doc(redeploy, workload, index)
        result = redeploy.solve(workloads.parse_doc(redeploy, doc, variant))
        out[index] = {"transfer": result.transfer.to_mapping(),
                      "deficits": {k: int(v) for k, v
                                   in result.deficits.as_mapping().items()}}
    return out


def record(redeploy, name: str, work: Path) -> list[dict]:
    workload = workloads.WORKLOADS[name]
    indices = list(range(workload.pool))
    given = solver_solutions(redeploy, name, workload.pool) \
        if name == "audit" else None
    ops = workloads.prepare(redeploy, name, indices, work, given)
    entries = {index: {"index": index, "cost_s": 0.0,
                       "expect": dict(given[index]) if given else {}}
               for index in indices}
    for op in ops:
        start = time.perf_counter()
        raw = op.run()
        entry = entries[op.entry]
        entry["cost_s"] += time.perf_counter() - start
        out = op.outputs(raw)
        reason = op.check(out)
        summary = workloads.summarize(op.kind, out)
        if reason is None and summary.get("strategy_proof") is False:
            reason = "the mechanism is not strategy-proof"
        if reason is not None:
            raise SystemExit(f"{name} entry {op.entry} ({op.kind}): {reason}")
        summary.pop("strategy_proof", None)
        entry["expect"].update(summary)
    for entry in entries.values():
        entry["cost_s"] = round(entry["cost_s"], 4)
    return [entries[index] for index in indices]


def main() -> int:
    reference = {}
    redeploy = workloads.import_program(ROOT / "src")
    for name in workloads.WORKLOADS:
        started = time.perf_counter()
        reference[name] = record(redeploy, name, HERE / "out" / "record")
        print(f"{name}: {len(reference[name])} entries in "
              f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    reference["recorded_with"] = {"python": platform.python_version(),
                                  "machine": platform.machine()}
    lines = [json.dumps(key) + ": " + (
        "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in value)
        + "\n]" if isinstance(value, list) else json.dumps(value))
        for key, value in sorted(reference.items())]
    (HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
