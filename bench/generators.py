"""Seeded instance documents for the benchmark's workloads.

Every function takes a seed and returns a plain document, so the same seed
always yields the same bytes.  Base documents come from the library's own
generator; the surplus-chain acceptables of the extended variant and the
subject-typed documents are drawn here.
"""

from __future__ import annotations

import random

SUBJECTS = ("math", "science", "history", "art")

# Pool entry seeds, one offset per workload so the families never overlap.
WIDE_SEED = 1_000_000
DEEP_SEED = 2_000_000
AUDIT_SEED = 3_000_000

DEEP_VARIANTS = ("base", "extended", "specialization")

# Sizes of the deep instances, base, extended and typed alike.
DEEP_MAX_ALPHA = 12
DEEP_MAX_BETA = 40
DEEP_ACCEPT_PROB = 0.4
# Share of extended teachers who also accept another surplus school.
SURPLUS_ACCEPT_SHARE = 0.3


def wide_doc(generate, index: int) -> dict:
    """9 to 11 deficit schools, three teachers each, four surplus schools."""
    deficit = 9 + index % 3
    return generate.random_instance_doc(
        WIDE_SEED + index, surplus=4, deficit=deficit, teachers=3 * deficit,
        accept_prob=0.3)


def wide_class(index: int) -> str:
    return f"n{9 + index % 3}"


def deep_variant(index: int) -> str:
    return DEEP_VARIANTS[index % 3]


def deep_doc(generate, index: int) -> dict:
    """5 or 6 deficit schools (or typed positions) and 150 to 210 teachers,
    in the variant deep_variant(index) names."""
    seed = DEEP_SEED + index
    rng = random.Random(seed)
    deficit = rng.randint(5, 6)
    teachers = rng.randint(150, 210)
    variant = deep_variant(index)
    if variant == "specialization":
        return typed_doc(rng, positions=deficit, teachers=teachers)
    doc = generate.random_instance_doc(
        seed, surplus=8, deficit=deficit, teachers=teachers,
        max_alpha=DEEP_MAX_ALPHA, max_beta=DEEP_MAX_BETA,
        accept_prob=DEEP_ACCEPT_PROB)
    if variant == "extended":
        add_surplus_acceptables(doc, rng)
    return doc


def add_surplus_acceptables(doc: dict, rng: random.Random):
    """Let about SURPLUS_ACCEPT_SHARE of the teachers also accept one other
    surplus school, which opens surplus-to-surplus chains."""
    surplus_ids = [s["id"] for s in doc["surplus_schools"]]
    for teacher in doc["teachers"]:
        if rng.random() < SURPLUS_ACCEPT_SHARE:
            others = [s for s in surplus_ids if s != teacher["origin"]]
            teacher["acceptable"].append(rng.choice(others))


def typed_doc(rng: random.Random, *, positions: int, teachers: int) -> dict:
    """A subject-typed instance with `positions` deficit positions.

    One mixed school holds a surplus in one subject and a deficit in
    another; the other deficit positions sit at pure deficit schools, and
    five pure surplus schools supply teachers.  A few teachers work at
    deficit-bearing schools in a deficit subject and can never move.
    Teachers at the mixed school who teach its surplus subject are never
    qualified for its deficit subject, as validate_typed requires.
    """
    mixed_surplus, mixed_deficit = rng.sample(SUBJECTS, 2)
    schools = [{"id": "m1", "surplus": {mixed_surplus:
                                        rng.randint(1, DEEP_MAX_ALPHA)},
                "deficit": {mixed_deficit: rng.randint(1, DEEP_MAX_BETA)}}]
    remaining = positions - 1
    k = 0
    while remaining:
        k += 1
        count = min(remaining, rng.randint(1, 2))
        remaining -= count
        schools.append({"id": f"d{k}", "deficit": {
            x: rng.randint(1, DEEP_MAX_BETA)
            for x in rng.sample(SUBJECTS, count)}})
    for j in range(1, 6):
        schools.append({"id": f"s{j}", "surplus": {
            x: rng.randint(1, DEEP_MAX_ALPHA)
            for x in rng.sample(SUBJECTS, rng.randint(1, 2))}})

    suppliers = [s for s in schools if "surplus" in s]
    deficit_schools = [s["id"] for s in schools if "deficit" in s]
    doc_teachers = []
    for i in range(teachers):
        if rng.random() < 0.05:
            school = rng.choice([s for s in schools if "deficit" in s])
            teaches = rng.choice(sorted(school["deficit"]))
            doc_teachers.append({"id": f"u{i + 1}", "school": school["id"],
                                 "qualified": [teaches], "teaches": teaches,
                                 "acceptable": []})
            continue
        school = rng.choice(suppliers)
        teaches = rng.choice(sorted(school["surplus"]))
        barred = set(school.get("deficit", ()))
        qualified = [x for x in SUBJECTS if x == teaches
                     or (x not in barred and rng.random() < 0.5)]
        acceptable: list[str] = []
        while not acceptable:
            acceptable = [d for d in deficit_schools if d != school["id"]
                          and rng.random() < DEEP_ACCEPT_PROB]
        doc_teachers.append({"id": f"u{i + 1}", "school": school["id"],
                             "qualified": qualified, "teaches": teaches,
                             "acceptable": acceptable})
    return {"subjects": list(SUBJECTS), "schools": schools,
            "teachers": doc_teachers}


def audit_doc(generate, index: int) -> dict:
    """Base instances at the mechanism caps: 7 teachers, 5 deficit and 3
    surplus schools."""
    return generate.random_instance_doc(AUDIT_SEED + index, surplus=3,
                                        deficit=5, teachers=7)
