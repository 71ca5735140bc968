"""Problem data model: schools, teachers, transfers, and deficit vectors.

An instance consists of surplus schools (each with a number of transferable
slots), deficit schools (each with a teacher deficit), and teachers assigned
to surplus schools with a set of schools they are willing to move to.  All
objects are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import InfeasibleTransferError, UnknownIdError, ValidationError

#: Sentinel destination meaning "the teacher keeps her current assignment".
STAY = "STAY"

_RESERVED = {STAY, ""}


class SurplusSchool(NamedTuple):
    id: str
    alpha: int  # transferable slots, >= 1


class DeficitSchool(NamedTuple):
    id: str
    beta: int  # teacher deficit, >= 1


class Teacher(NamedTuple):
    id: str
    origin: str
    acceptable: frozenset[str]


@dataclass(frozen=True)
class Instance:
    """A validated teacher-transfer problem.

    School and teacher ids share one namespace and are unique.  Acceptable
    sets normally contain deficit schools only; they may also name surplus
    schools other than the teacher's own, which is ignored by the base model
    and used by the extended ("surplus to surplus") variant.
    """

    surplus_schools: tuple[SurplusSchool, ...]
    deficit_schools: tuple[DeficitSchool, ...]
    teachers: tuple[Teacher, ...]

    @cached_property
    def deficit_ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.deficit_schools)

    @cached_property
    def deficit_index(self) -> dict[str, int]:
        return {d.id: k for k, d in enumerate(self.deficit_schools)}

    @cached_property
    def surplus_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.surplus_schools)

    @cached_property
    def surplus_index(self) -> dict[str, int]:
        return {s.id: j for j, s in enumerate(self.surplus_schools)}

    @cached_property
    def betas(self) -> dict[str, int]:
        return {d.id: d.beta for d in self.deficit_schools}

    @cached_property
    def alphas(self) -> dict[str, int]:
        return {s.id: s.alpha for s in self.surplus_schools}

    @cached_property
    def teacher_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.teachers)

    @cached_property
    def teacher_by_id(self) -> dict[str, Teacher]:
        return {t.id: t for t in self.teachers}

    def acceptable_deficits(self, teacher: Teacher) -> tuple[str, ...]:
        """Deficit schools in the teacher's set, in document order."""
        idx = self.deficit_index
        return tuple(sorted((a for a in teacher.acceptable if a in idx),
                            key=idx.__getitem__))

    def acceptable_surpluses(self, teacher: Teacher) -> tuple[str, ...]:
        idx = self.surplus_index
        return tuple(sorted((a for a in teacher.acceptable if a in idx),
                            key=idx.__getitem__))

    def initial_deficits(self) -> "DeficitVector":
        return DeficitVector(self.deficit_ids,
                             tuple(d.beta for d in self.deficit_schools))


@dataclass(frozen=True)
class Transfer:
    """A total assignment of every teacher to a destination or to STAY."""

    assignment: tuple[tuple[str, str], ...]  # sorted by teacher id

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "Transfer":
        return cls(tuple(sorted(mapping.items())))

    @classmethod
    def all_stay(cls, instance: Instance) -> "Transfer":
        return cls.from_mapping({t: STAY for t in instance.teacher_ids})

    @cached_property
    def _by_teacher(self) -> dict[str, str]:
        return dict(self.assignment)

    def destination(self, teacher_id: str) -> str:
        try:
            return self._by_teacher[teacher_id]
        except KeyError:
            raise UnknownIdError(f"no assignment for teacher {teacher_id!r}")

    def to_mapping(self) -> dict[str, str]:
        return dict(self.assignment)

    @cached_property
    def moved(self) -> tuple[tuple[str, str], ...]:
        """(teacher, destination) pairs for teachers that actually move."""
        return tuple((t, d) for t, d in self.assignment if d != STAY)

    @property
    def moved_count(self) -> int:
        return len(self.moved)

    def inbound_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for _, dest in self.moved:
            counts[dest] = counts.get(dest, 0) + 1
        return counts


@dataclass(frozen=True)
class DeficitVector:
    """Per-deficit-school quantities, reported in document order.

    Values are non-negative ints or exact Fractions; no floats ever enter
    the pipeline.
    """

    ids: tuple[str, ...]
    values: tuple[int | Fraction, ...]

    def __post_init__(self):
        if len(self.ids) != len(self.values):
            raise ValueError("ids and values must have equal length")
        if any(v < 0 for v in self.values):
            raise ValueError("deficit values must be non-negative")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, int | Fraction],
                     order: Iterable[str]) -> "DeficitVector":
        ids = tuple(order)
        if set(mapping) != set(ids):
            raise ValueError("vector keys do not match the deficit schools")
        return cls(ids, tuple(mapping[i] for i in ids))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {i: k for k, i in enumerate(self.ids)}

    def __getitem__(self, school_id: str) -> int | Fraction:
        return self.values[self._index[school_id]]

    def __len__(self) -> int:
        return len(self.ids)

    def as_mapping(self) -> dict[str, int | Fraction]:
        return dict(zip(self.ids, self.values))

    def total(self, subset: Iterable[str] | None = None) -> int | Fraction:
        if subset is None:
            return sum(self.values)
        return sum(self[i] for i in subset)

    @property
    def is_integral(self) -> bool:
        return all(isinstance(v, int) or v.denominator == 1
                   for v in self.values)

    def sorted_multiset(self) -> tuple:
        """Descending value tuple; the canonical shape compared by tests."""
        return tuple(sorted(self.values, reverse=True))


def _check_id(raw, errors, what):
    if not isinstance(raw, str) or raw in _RESERVED or raw.startswith("@") \
            or ":" in raw:
        errors.append(f"invalid {what} id {raw!r}")
        return None
    return raw


def validate(doc) -> Instance:
    """Build an Instance from a plain document, or raise ValidationError.

    All violations are collected before raising, so a bad document is
    reported completely in one pass.
    """
    errors: list[str] = []
    if not isinstance(doc, Mapping):
        raise ValidationError(["instance document must be an object"])
    for key in ("surplus_schools", "deficit_schools", "teachers"):
        if key not in doc:
            errors.append(f"missing field {key!r}")
        elif not isinstance(doc[key], list) \
                or not all(isinstance(e, Mapping) for e in doc[key]):
            errors.append(f"field {key!r} must be a list of objects")
    if errors:
        raise ValidationError(errors)

    seen: set[str] = set()

    def claim(raw, what):
        ident = _check_id(raw, errors, what)
        if ident is None:
            return None
        if ident in seen:
            errors.append(f"duplicate id {ident!r}")
            return None
        seen.add(ident)
        return ident

    surplus: list[SurplusSchool] = []
    for entry in doc["surplus_schools"]:
        ident = claim(entry.get("id"), "surplus school")
        alpha = entry.get("alpha")
        if not isinstance(alpha, int) or alpha < 1:
            errors.append(f"nonpositive surplus for {entry.get('id')!r}")
            continue
        if ident is not None:
            surplus.append(SurplusSchool(ident, alpha))

    deficit: list[DeficitSchool] = []
    for entry in doc["deficit_schools"]:
        ident = claim(entry.get("id"), "deficit school")
        beta = entry.get("beta")
        if not isinstance(beta, int) or beta < 1:
            errors.append(f"nonpositive deficit for {entry.get('id')!r}")
            continue
        if ident is not None:
            deficit.append(DeficitSchool(ident, beta))

    surplus_ids = {s.id for s in surplus}
    deficit_ids = {d.id for d in deficit}

    teachers: list[Teacher] = []
    for entry in doc["teachers"]:
        ident = claim(entry.get("id"), "teacher")
        origin = entry.get("origin")
        raw_acc = entry.get("acceptable")
        ok = True
        if origin not in surplus_ids:
            errors.append(f"teacher {entry.get('id')!r} has unknown origin "
                          f"{origin!r}")
            ok = False
        if not isinstance(raw_acc, (list, tuple)) or not raw_acc:
            errors.append(f"empty acceptable set for teacher "
                          f"{entry.get('id')!r}")
            ok = False
            raw_acc = []
        acceptable = set()
        for a in raw_acc:
            if a == origin:
                errors.append(f"teacher {entry.get('id')!r} lists her own "
                              f"school as acceptable")
                ok = False
            elif a in deficit_ids or a in surplus_ids:
                acceptable.add(a)
            else:
                errors.append(f"teacher {entry.get('id')!r} accepts unknown "
                              f"school {a!r}")
                ok = False
        if ok and ident is not None:
            teachers.append(Teacher(ident, origin, frozenset(acceptable)))

    if errors:
        raise ValidationError(errors)
    return Instance(tuple(surplus), tuple(deficit), tuple(teachers))


def instance_to_doc(instance: Instance) -> dict:
    """Plain-document form of an instance, with deterministic list orders."""
    surplus_idx = instance.surplus_index
    deficit_idx = instance.deficit_index

    def acc_order(a):
        if a in deficit_idx:
            return (0, deficit_idx[a])
        return (1, surplus_idx[a])

    return {
        "surplus_schools": [{"id": s.id, "alpha": s.alpha}
                            for s in instance.surplus_schools],
        "deficit_schools": [{"id": d.id, "beta": d.beta}
                            for d in instance.deficit_schools],
        "teachers": [{"id": t.id, "origin": t.origin,
                      "acceptable": sorted(t.acceptable, key=acc_order)}
                     for t in instance.teachers],
    }


def serialize_instance(instance: Instance) -> str:
    return json.dumps(instance_to_doc(instance), indent=2, sort_keys=True) \
        + "\n"


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError([f"malformed document: {exc}"])
    return validate(doc)


def _check_domain(instance: Instance, transfer: Transfer):
    teacher_ids = set(instance.teacher_ids)
    assigned = {t for t, _ in transfer.assignment}
    if assigned != teacher_ids:
        missing = teacher_ids - assigned
        extra = assigned - teacher_ids
        raise UnknownIdError(
            f"transfer domain mismatch (missing={sorted(missing)}, "
            f"unknown={sorted(extra)})")


def is_feasible(instance: Instance, transfer: Transfer, *,
                allow_surplus_moves: bool = False) -> bool:
    """Check the three transfer constraints.

    With ``allow_surplus_moves`` the extended model applies: destinations may
    be acceptable surplus schools, and a school's outflow may exceed its
    surplus by the number of teachers moving in.
    """
    _check_domain(instance, transfer)
    known = set(instance.deficit_index)
    if allow_surplus_moves:
        known |= set(instance.surplus_index)

    outbound: dict[str, int] = {s: 0 for s in instance.surplus_index}
    inbound_deficit: dict[str, int] = {d: 0 for d in instance.deficit_index}
    inbound_surplus: dict[str, int] = {s: 0 for s in instance.surplus_index}

    for teacher_id, dest in transfer.assignment:
        if dest == STAY:
            continue
        if dest not in known:
            raise UnknownIdError(f"unknown destination {dest!r}")
        teacher = instance.teacher_by_id[teacher_id]
        if dest not in teacher.acceptable:
            return False
        outbound[teacher.origin] += 1
        if dest in inbound_deficit:
            inbound_deficit[dest] += 1
        else:
            inbound_surplus[dest] += 1

    for school in instance.surplus_schools:
        if outbound[school.id] - inbound_surplus[school.id] > school.alpha:
            return False
    for school in instance.deficit_schools:
        if inbound_deficit[school.id] > school.beta:
            return False
    return True


def post_transfer_deficits(instance: Instance, transfer: Transfer, *,
                           allow_surplus_moves: bool = False) -> DeficitVector:
    """Remaining deficit of every deficit school after executing a transfer."""
    if not is_feasible(instance, transfer,
                       allow_surplus_moves=allow_surplus_moves):
        raise InfeasibleTransferError("transfer is infeasible")
    counts = transfer.inbound_counts()
    return DeficitVector(
        instance.deficit_ids,
        tuple(d.beta - counts.get(d.id, 0) for d in instance.deficit_schools))


def transfer_to_doc(transfer: Transfer) -> dict:
    return transfer.to_mapping()


def transfer_from_doc(doc: Mapping[str, str]) -> Transfer:
    if not isinstance(doc, Mapping):
        raise ValidationError(["transfer document must be an object"])
    return Transfer.from_mapping(doc)
