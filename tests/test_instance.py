import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redeploy import STAY, DeficitVector, Transfer, UnknownIdError, \
    ValidationError, instance_to_doc, is_feasible, parse_instance, \
    post_transfer_deficits, random_instance, serialize_instance, validate
from redeploy.errors import InfeasibleTransferError


def test_small_fixture_shape(small_instance):
    assert len(small_instance.surplus_schools) == 2
    assert len(small_instance.deficit_schools) == 3
    assert len(small_instance.teachers) == 3
    assert small_instance.deficit_ids == ("d1", "d2", "d3")
    assert small_instance.alphas == {"s1": 1, "s2": 1}


def _doc():
    return {
        "surplus_schools": [{"id": "s1", "alpha": 1}],
        "deficit_schools": [{"id": "d1", "beta": 2}],
        "teachers": [{"id": "t1", "origin": "s1", "acceptable": ["d1"]}],
    }


def test_validate_accepts_minimal_doc():
    instance = validate(_doc())
    assert instance.teacher_ids == ("t1",)


def test_validate_rejects_empty_acceptable_set():
    doc = _doc()
    doc["teachers"][0]["acceptable"] = []
    with pytest.raises(ValidationError, match="empty acceptable set"):
        validate(doc)


def test_validate_rejects_nonpositive_deficit():
    doc = _doc()
    doc["deficit_schools"][0]["beta"] = 0
    with pytest.raises(ValidationError, match="nonpositive deficit"):
        validate(doc)


def test_validate_rejects_nonpositive_surplus():
    doc = _doc()
    doc["surplus_schools"][0]["alpha"] = -1
    with pytest.raises(ValidationError, match="nonpositive surplus"):
        validate(doc)


def test_validate_rejects_duplicate_and_dangling_ids():
    doc = _doc()
    doc["deficit_schools"].append({"id": "s1", "beta": 1})
    doc["teachers"][0]["origin"] = "nope"
    with pytest.raises(ValidationError) as excinfo:
        validate(doc)
    text = str(excinfo.value)
    assert "duplicate id" in text and "unknown origin" in text


def test_validate_collects_all_errors():
    doc = _doc()
    doc["teachers"].append({"id": "t2", "origin": "s1", "acceptable": []})
    doc["deficit_schools"][0]["beta"] = 0
    with pytest.raises(ValidationError) as excinfo:
        validate(doc)
    assert len(excinfo.value.errors) >= 2


def test_validate_rejects_own_school_in_acceptable_set():
    doc = _doc()
    doc["surplus_schools"].append({"id": "s2", "alpha": 1})
    doc["teachers"][0]["acceptable"] = ["s1"]
    with pytest.raises(ValidationError, match="own school"):
        validate(doc)


def test_validate_rejects_missing_section():
    doc = _doc()
    del doc["deficit_schools"]
    with pytest.raises(ValidationError, match="deficit_schools"):
        validate(doc)


def test_parse_rejects_malformed_text():
    with pytest.raises(ValidationError, match="malformed"):
        parse_instance("{not json")


def test_feasibility_examples(small_instance):
    good = Transfer.from_mapping({"t1": "d2", "t2": "d2", "t3": STAY})
    assert is_feasible(small_instance, good)
    # s2 can release only one of t2, t3
    over = Transfer.from_mapping({"t1": "d2", "t2": "d2", "t3": "d3"})
    assert not is_feasible(small_instance, over)
    assert is_feasible(small_instance, Transfer.all_stay(small_instance))


def test_feasibility_rejects_unacceptable_destination(small_instance):
    bad = Transfer.from_mapping({"t1": "d3", "t2": STAY, "t3": STAY})
    assert not is_feasible(small_instance, bad)


def test_feasibility_rejects_deficit_overshoot():
    instance = validate({
        "surplus_schools": [{"id": "s1", "alpha": 2}],
        "deficit_schools": [{"id": "d1", "beta": 1}],
        "teachers": [
            {"id": "t1", "origin": "s1", "acceptable": ["d1"]},
            {"id": "t2", "origin": "s1", "acceptable": ["d1"]},
        ],
    })
    both = Transfer.from_mapping({"t1": "d1", "t2": "d1"})
    assert not is_feasible(instance, both)


def test_feasibility_unknown_ids_raise(small_instance):
    with pytest.raises(UnknownIdError):
        is_feasible(small_instance,
                    Transfer.from_mapping({"t1": "d1", "t2": STAY}))
    with pytest.raises(UnknownIdError):
        is_feasible(small_instance, Transfer.from_mapping(
            {"t1": "dX", "t2": STAY, "t3": STAY}))


def test_post_transfer_deficits_examples(small_instance):
    vec = post_transfer_deficits(
        small_instance,
        Transfer.from_mapping({"t1": "d2", "t2": "d2", "t3": STAY}))
    assert vec.values == (1, 1, 2)
    vec = post_transfer_deficits(
        small_instance,
        Transfer.from_mapping({"t1": "d1", "t2": "d2", "t3": STAY}))
    assert vec.values == (0, 2, 2)
    stay = post_transfer_deficits(small_instance,
                                  Transfer.all_stay(small_instance))
    assert stay.values == (1, 3, 2)


def test_post_transfer_deficits_rejects_infeasible(small_instance):
    with pytest.raises(InfeasibleTransferError):
        post_transfer_deficits(
            small_instance,
            Transfer.from_mapping({"t1": "d2", "t2": "d2", "t3": "d3"}))


def test_deficit_conservation_property(small_instance):
    from tests.conftest import naive_enumerate

    beta = small_instance.initial_deficits()
    for transfer in naive_enumerate(small_instance):
        after = post_transfer_deficits(small_instance, transfer)
        assert all(0 <= after[d] <= beta[d] for d in beta.ids)
        assert beta.total() - after.total() == transfer.moved_count


def test_all_stay_feasible_for_random_instances():
    import random

    rng = random.Random(3)
    for _ in range(25):
        instance = random_instance(rng.randrange(2 ** 32),
                                   surplus=rng.randint(1, 3),
                                   deficit=rng.randint(1, 4),
                                   teachers=rng.randint(1, 5))
        assert is_feasible(instance, Transfer.all_stay(instance))


def test_serialize_round_trip(small_instance):
    text = serialize_instance(small_instance)
    assert parse_instance(text) == small_instance


def test_serialize_deterministic(small_instance):
    assert serialize_instance(small_instance) \
        == serialize_instance(small_instance)
    reparsed = parse_instance(serialize_instance(small_instance))
    assert serialize_instance(reparsed) == serialize_instance(small_instance)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_serialize_round_trip_random(seed):
    instance = random_instance(seed, surplus=2, deficit=3, teachers=3)
    assert parse_instance(serialize_instance(instance)) == instance


def test_instance_doc_order_is_preserved(small_instance):
    doc = instance_to_doc(small_instance)
    assert [d["id"] for d in doc["deficit_schools"]] == ["d1", "d2", "d3"]
    assert json.dumps(doc, sort_keys=True)  # serializable


def test_deficit_vector_accessors():
    vec = DeficitVector(("a", "b"), (2, 3))
    assert vec["b"] == 3
    assert vec.total(["a"]) == 2
    assert vec.total() == 5
    assert vec.is_integral
    assert vec.sorted_multiset() == (3, 2)
    with pytest.raises(ValueError):
        DeficitVector(("a",), (-1,))
    with pytest.raises(ValueError):
        DeficitVector.from_mapping({"a": 1}, ("a", "b"))


def test_transfer_domain_must_match(small_instance):
    partial = Transfer.from_mapping({"t1": STAY})
    with pytest.raises(UnknownIdError):
        post_transfer_deficits(small_instance, partial)


def test_transfer_doc_round_trip():
    from redeploy import transfer_from_doc, transfer_to_doc

    transfer = Transfer.from_mapping({"t1": "d2", "t2": STAY})
    assert transfer_from_doc(transfer_to_doc(transfer)) == transfer
    with pytest.raises(ValidationError):
        transfer_from_doc(["not", "a", "mapping"])
