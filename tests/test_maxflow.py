import itertools
import random

import pytest

from redeploy import FlowGame, UnknownIdError, b_max_flow, \
    build_base_network, max_flow, max_flow_with_lower_bounds, random_instance
from redeploy.maxflow import sink_side_sinks
from redeploy.network import Edge, FlowNetwork, Node, SinkSpec


def test_max_flow_small(small_instance):
    value, flow = max_flow(build_base_network(small_instance))
    assert value == 2
    assert sum(flow.inflows.values()) == 2


def test_max_flow_rounding_instance(rounding_instance):
    # brute-force ground truth: the most teachers any transfer moves
    from tests.conftest import naive_enumerate

    best = max(t.moved_count for t in naive_enumerate(rounding_instance))
    value, _ = max_flow(build_base_network(rounding_instance))
    assert value == best == 5


def test_max_flow_zero_capacity_edge_only():
    net = FlowNetwork(
        nodes=(Node("@src", "source"), Node("a", "school"),
               Node("d", "sink")),
        edges=(Edge("@src", "a", 0, 0), Edge("a", "d", 0, 3)),
        source="@src", sinks=(SinkSpec("d", 3),))
    value, flow = max_flow(net)
    assert value == 0
    assert all(v == 0 for v in flow.values.values())


def test_max_flow_rejects_lower_bounds():
    net = FlowNetwork(
        nodes=(Node("@src", "source"), Node("d", "sink")),
        edges=(Edge("@src", "d", 1, 2),),
        source="@src", sinks=(SinkSpec("d", 2),))
    with pytest.raises(ValueError, match="lower bounds"):
        max_flow(net)


def test_lower_bounds_infeasible_when_upstream_too_small():
    net = FlowNetwork(
        nodes=(Node("@src", "source"), Node("a", "aux"), Node("b", "aux"),
               Node("d", "sink")),
        edges=(Edge("@src", "a", 0, 1), Edge("a", "b", 2, 3),
               Edge("b", "d", 0, 5)),
        source="@src", sinks=(SinkSpec("d", 5),))
    assert max_flow_with_lower_bounds(net) is None


def test_lower_bounds_reduce_to_max_flow(small_instance):
    net = build_base_network(small_instance)
    assert not net.has_lower_bounds()
    plain = max_flow(net)
    bounded = max_flow_with_lower_bounds(net)
    assert bounded is not None
    assert bounded[0] == plain[0]
    assert bounded[1].values == plain[1].values


def test_lower_bounds_respected():
    # force one unit through the longer arm even though the short arm
    # alone would maximize
    net = FlowNetwork(
        nodes=(Node("@src", "source"), Node("a", "aux"), Node("b", "aux"),
               Node("d", "sink")),
        edges=(Edge("@src", "a", 0, 2), Edge("@src", "b", 1, 1),
               Edge("a", "d", 0, 2), Edge("b", "d", 0, 1)),
        source="@src", sinks=(SinkSpec("d", 3),))
    result = max_flow_with_lower_bounds(net)
    assert result is not None
    value, flow = result
    assert value == 3
    assert flow.on("@src", "b") == 1


def test_determinism(small_instance, rounding_instance):
    for instance in (small_instance, rounding_instance):
        net = build_base_network(instance)
        first = max_flow(net)
        second = max_flow(net)
        assert first[0] == second[0]
        assert first[1].values == second[1].values


def test_b_max_flow_examples(rounding_instance):
    net = build_base_network(rounding_instance)
    assert b_max_flow(net, {"d3", "d4", "d5"}) == 2
    assert b_max_flow(net, {"d1", "d2", "d3", "d4", "d5"}) == 3
    assert b_max_flow(net, set()) == 0
    with pytest.raises(UnknownIdError):
        b_max_flow(net, {"nope"})


def test_b_max_flow_agrees_with_brute_force():
    from redeploy import brute_force_v

    rng = random.Random(99)
    for _ in range(50):
        instance = random_instance(rng.randrange(2 ** 32),
                                   surplus=rng.randint(1, 3),
                                   deficit=rng.randint(1, 4),
                                   teachers=rng.randint(1, 5))
        net = build_base_network(instance)
        ids = instance.deficit_ids
        for r in range(len(ids) + 1):
            for subset in itertools.combinations(ids, r):
                assert b_max_flow(net, subset) \
                    == brute_force_v(instance, subset)


def test_v_monotone_and_submodular(game_suite):
    for instance in game_suite:
        ids = instance.deficit_ids
        masks = range(1 << len(ids))
        value = FlowGame(build_base_network(instance)).v_for_mask
        for b in masks:
            for k in range(len(ids)):
                bit = 1 << k
                if b & bit:
                    continue
                # monotone in the added school
                assert value(b | bit) >= value(b)
                a = (b - 1) & b
                while True:
                    # diminishing returns as the base grows
                    assert value(a | bit) - value(a) \
                        >= value(b | bit) - value(b)
                    if a == 0:
                        break
                    a = (a - 1) & b


def test_augmented_value_matches_block_totals(rounding_instance):
    from redeploy import build_augmented_network, decompose

    net = build_base_network(rounding_instance)
    dec = decompose(FlowGame(net))
    augmented = build_augmented_network(net, dec)
    result = max_flow_with_lower_bounds(augmented)
    assert result is not None
    value, _ = result
    assert value == sum(s.capacity for s in augmented.sinks) == 5


def test_sink_side_sinks_is_the_minimal_cut():
    # one unit reaches a and b through x; c hangs off its own arc
    net = FlowNetwork(
        nodes=(Node("@src", "source"), Node("x", "school"),
               Node("a", "sink"), Node("b", "sink"), Node("c", "sink")),
        edges=(Edge("@src", "x", 0, 1), Edge("x", "a", 0, 1),
               Edge("x", "b", 0, 1), Edge("@src", "c", 0, 2)),
        source="@src",
        sinks=(SinkSpec("a", 1), SinkSpec("b", 1), SinkSpec("c", 1)))
    # x saturates, so a and b sit behind the cut; c stays reachable
    assert sink_side_sinks(net, {"a": 1, "b": 1, "c": 1}, 1) \
        == frozenset({"a", "b"})
    # every arc scaled by 3: x carries 3 units and still saturates
    assert sink_side_sinks(net, {"a": 2, "b": 2, "c": 5}, 3) \
        == frozenset({"a", "b"})
    # nothing flows: the minimal cut leaves only the super-sink behind it
    assert sink_side_sinks(net, {"a": 0, "b": 0, "c": 0}, 1) == frozenset()
    # both source arcs saturate, so every sink is cut off
    assert sink_side_sinks(net, {"a": 1, "b": 0, "c": 2}, 1) \
        == frozenset({"a", "b", "c"})
