"""Dominant-transfer selection with fixed tie-breaking, and its auditor.

Teachers report which deficit schools they would accept; preferences are
trichotomous (any acceptable school beats staying put, which beats any
unacceptable school).  The mechanism enumerates the feasible transfers under
the reported profile, keeps those achieving the Lorenz-dominant deficit
vector, and picks the maximum under a fixed total order on assignments.
Selecting by a fixed order is what makes truthful reporting safe, and the
auditor verifies that directly by exhausting misreports.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import CapExceededError
from .instance import STAY, Instance, Transfer
from .oracle import dominant_outcomes

#: Largest instance the exhaustive mechanism and its auditor accept.
TEACHER_CAP = 7
DEFICIT_CAP = 5

Profile = Mapping[str, frozenset]


def truthful_profile(instance: Instance) -> dict[str, frozenset]:
    index = instance.deficit_index
    return {t.id: frozenset(a for a in t.acceptable if a in index)
            for t in instance.teachers}


def tie_break_key(instance: Instance, transfer: Transfer) -> tuple[int, ...]:
    """Rank vector of a transfer: teachers in id order, destinations by
    deficit-school index with STAY ranked above them all."""
    index = instance.deficit_index
    stay_rank = len(index)
    return tuple(stay_rank if dest == STAY else index[dest]
                 for _, dest in transfer.assignment)


def _check_caps(instance):
    if len(instance.teachers) > TEACHER_CAP:
        raise CapExceededError(
            f"{len(instance.teachers)} teachers exceed the mechanism cap "
            f"{TEACHER_CAP}; use solve() for large instances",
            limit=TEACHER_CAP, actual=len(instance.teachers))
    if len(instance.deficit_schools) > DEFICIT_CAP:
        raise CapExceededError(
            f"{len(instance.deficit_schools)} deficit schools exceed the "
            f"mechanism cap {DEFICIT_CAP}; use solve() for large instances",
            limit=DEFICIT_CAP, actual=len(instance.deficit_schools))


def dominant_transfers(instance: Instance,
                       profile: Profile | None = None) -> list[Transfer]:
    """Every feasible transfer achieving the dominant deficit vector,
    ascending in the tie-breaking order.  An empty report excludes the
    teacher, so she stays in every outcome."""
    _check_caps(instance)
    if profile is None:
        profile = truthful_profile(instance)
    _, winners = dominant_outcomes(instance, acceptable=profile)
    ids = instance.deficit_ids
    stay = len(ids)
    teachers = sorted(instance.teacher_ids)
    return [Transfer.from_mapping(
                {t: (STAY if d == stay else ids[d])
                 for t, d in zip(teachers, destinations)})
            for destinations in winners]


def select_transfer(instance: Instance,
                    profile: Profile | None = None) -> Transfer:
    """The canonical mechanism: tie-break maximum among dominant transfers."""
    candidates = dominant_transfers(instance, profile)
    return max(candidates, key=lambda t: tie_break_key(instance, t))


def unstable_select_transfer(instance: Instance,
                             profile: Profile | None = None, *,
                             seed: int = 0) -> Transfer:
    """Negative control for the auditor: a random pick among the dominant
    transfers, re-seeded from the reported profile.

    The selection varies with the report instead of following one fixed
    order, which is exactly the property whose absence the auditor is meant
    to catch.  Deterministic across runs for a given seed.
    """
    if profile is None:
        profile = truthful_profile(instance)
    candidates = dominant_transfers(instance, profile)
    fingerprint = json.dumps({t: sorted(v) for t, v in profile.items()},
                             sort_keys=True)
    rng = random.Random(f"{seed}|{fingerprint}")
    return rng.choice(candidates)


@dataclass(frozen=True)
class Violation:
    teacher: str
    misreport: frozenset
    destination: str


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a manipulation audit.

    For every teacher left in place by the truthful run, records how many
    misreports were tried and any that moved her to a school she truly
    finds acceptable.
    """

    audited: tuple[str, ...]
    misreports_tested: Mapping[str, int]
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_doc(self) -> dict:
        return {
            "audited_teachers": list(self.audited),
            "misreports_tested": dict(self.misreports_tested),
            "violations": [
                {"teacher": v.teacher,
                 "misreport": sorted(v.misreport),
                 "destination": v.destination}
                for v in self.violations
            ],
            "strategy_proof": self.ok,
        }


def audit_strategy_proofness(
        instance: Instance, *,
        misreports: str | int = "all",
        seed: int = 0,
        selector: Callable[..., Transfer] = select_transfer
        ) -> AuditReport:
    """Try to manipulate the mechanism on behalf of every stay-at-home
    teacher.

    A violation is a misreport under which the selector sends the teacher to
    a school in her true acceptable set; with the canonical selector there
    are none.  misreports is "all" for the full power set of deficit
    schools, or an integer sample size drawn without replacement.
    """
    _check_caps(instance)
    schools = instance.deficit_ids
    truth = truthful_profile(instance)
    baseline = selector(instance, truth)

    total = 1 << len(schools)
    if misreports == "all":
        masks = range(total)
    else:
        count = min(int(misreports), total)
        masks = random.Random(seed).sample(range(total), count)

    audited = []
    tested: dict[str, int] = {}
    violations: list[Violation] = []
    for teacher in instance.teachers:
        if baseline.destination(teacher.id) != STAY:
            continue
        audited.append(teacher.id)
        tested[teacher.id] = 0
        for mask in masks:
            report = frozenset(schools[k] for k in range(len(schools))
                               if mask >> k & 1)
            if report == truth[teacher.id]:
                continue
            tested[teacher.id] += 1
            outcome = selector(instance, {**truth, teacher.id: report})
            destination = outcome.destination(teacher.id)
            if destination != STAY and destination in teacher.acceptable:
                violations.append(Violation(teacher.id, report, destination))
    return AuditReport(tuple(audited), tested, tuple(violations))
