import random

import pytest

from redeploy import STAY, Flow, InfeasibleTransferError, Transfer, \
    build_base_network, build_extended_network, \
    build_specialization_network, cancel_circulations, flow_to_transfer, \
    is_feasible, max_flow, post_transfer_deficits, random_instance, to_dot, \
    validate, validate_typed
from redeploy.network import SOURCE


def transfer_to_flow(network, transfer):
    """Inverse of flow_to_transfer for a feasible transfer."""
    values = {(e.tail, e.head): 0 for e in network.edges}
    kinds = network.kinds
    moved_in = {}
    moved_out = {}
    for teacher_id in network.teachers:
        dest = transfer.destination(teacher_id)
        if dest == STAY:
            continue
        in_edges = network.in_edges.get(teacher_id, ())
        if len(in_edges) != 1:
            raise InfeasibleTransferError(
                f"teacher {teacher_id!r} is not in the network")
        supply = in_edges[0].tail
        if (teacher_id, dest) not in values:
            raise InfeasibleTransferError(
                f"no edge for move {teacher_id!r} -> {dest!r}")
        values[(supply, teacher_id)] = 1
        values[(teacher_id, dest)] = 1
        moved_out[supply] = moved_out.get(supply, 0) + 1
        if kinds[dest] == "school":
            moved_in[dest] = moved_in.get(dest, 0) + 1

    for e in network.out_edges[network.source]:
        need = moved_out.get(e.head, 0) - moved_in.get(e.head, 0)
        if need < 0:
            raise InfeasibleTransferError(
                f"school {e.head!r} receives more teachers than it releases")
        if need > e.upper:
            raise InfeasibleTransferError(
                f"school {e.head!r} exceeds its surplus")
        values[(e.tail, e.head)] = need

    inflows = {s.node: sum(values[(e.tail, e.head)]
                           for e in network.in_edges[s.node])
               for s in network.sinks}
    return Flow(values, inflows, sum(inflows.values()))


def test_base_network_shape(small_instance):
    net = build_base_network(small_instance)
    assert len(net.nodes) == 1 + 2 + 3 + 3
    caps = {e.head: e.upper for e in net.edges if e.tail == SOURCE}
    assert caps == {"s1": 1, "s2": 1}
    assert [s.capacity for s in net.sinks] == [1, 3, 2]
    assert all(e.lower == 0 for e in net.edges)
    # sinks are fed by teacher nodes only
    kinds = net.kinds
    for sink in net.sink_nodes:
        assert all(kinds[e.tail] == "teacher" for e in net.in_edges[sink])


def test_base_network_shape_rounding(rounding_instance):
    net = build_base_network(rounding_instance)
    caps = {e.head: e.upper for e in net.edges if e.tail == SOURCE}
    assert caps == {"s1": 1, "s2": 2, "s3": 2}
    assert [s.capacity for s in net.sinks] == [5] * 7


def test_single_teacher_path_network():
    instance = validate({
        "surplus_schools": [{"id": "s", "alpha": 1}],
        "deficit_schools": [{"id": "d", "beta": 1}],
        "teachers": [{"id": "t", "origin": "s", "acceptable": ["d"]}],
    })
    net = build_base_network(instance)
    assert [n.id for n in net.nodes] == [SOURCE, "s", "t", "d"]
    assert [(e.tail, e.head) for e in net.edges] \
        == [(SOURCE, "s"), ("s", "t"), ("t", "d")]


def test_extended_network_adds_backward_edges(chain_instance):
    net = build_extended_network(chain_instance)
    assert ("t3", "s1") in {(e.tail, e.head) for e in net.edges}
    # t3 is left out of the base construction entirely
    base = build_base_network(chain_instance)
    assert "t3" not in {n.id for n in base.nodes}
    assert "t3" in base.teachers


def test_extended_reduces_to_base_without_surplus_acceptables(small_instance):
    base = build_base_network(small_instance)
    extended = build_extended_network(small_instance)
    assert base == extended


def test_specialization_edges(subjects_instance):
    net = build_specialization_network(subjects_instance)
    edges = {(e.tail, e.head) for e in net.edges}
    # dual-qualified teacher from a pure surplus school reaches both
    # subject positions of an acceptable pure deficit school
    assert ("u1", "d1:C") in edges and ("u1", "d1:P") in edges
    # and the deficit-subject position of an acceptable mixed school
    assert ("u1", "m1:P") in edges
    # mixed-school teacher only reaches positions in her own subject
    heads = {h for t, h in edges if t == "u2"}
    assert heads == {"d1:C", "d2:C"}
    # deficit-school staff and deficit-post holders are absent
    nodes = {n.id for n in net.nodes}
    assert "u3" not in nodes and "u4" not in nodes


def test_specialization_single_subject_reduces_to_base():
    typed = validate_typed({
        "subjects": ["C"],
        "schools": [
            {"id": "s1", "surplus": {"C": 1}},
            {"id": "s2", "surplus": {"C": 1}},
            {"id": "d1", "deficit": {"C": 1}},
            {"id": "d2", "deficit": {"C": 3}},
            {"id": "d3", "deficit": {"C": 2}},
        ],
        "teachers": [
            {"id": "t1", "school": "s1", "qualified": ["C"], "teaches": "C",
             "acceptable": ["d1", "d2"]},
            {"id": "t2", "school": "s2", "qualified": ["C"], "teaches": "C",
             "acceptable": ["d1", "d2"]},
            {"id": "t3", "school": "s2", "qualified": ["C"], "teaches": "C",
             "acceptable": ["d1", "d2", "d3"]},
        ],
    })
    base = validate({
        "surplus_schools": [{"id": "s1", "alpha": 1}, {"id": "s2", "alpha": 1}],
        "deficit_schools": [{"id": "d1", "beta": 1}, {"id": "d2", "beta": 3},
                            {"id": "d3", "beta": 2}],
        "teachers": [
            {"id": "t1", "origin": "s1", "acceptable": ["d1", "d2"]},
            {"id": "t2", "origin": "s2", "acceptable": ["d1", "d2"]},
            {"id": "t3", "origin": "s2", "acceptable": ["d1", "d2", "d3"]},
        ],
    })
    typed_net = build_specialization_network(typed)
    base_net = build_base_network(base)

    def strip(name):
        return name.split(":")[0]

    assert {(strip(n.id), n.kind) for n in typed_net.nodes} \
        == {(n.id, n.kind) for n in base_net.nodes}
    assert {(strip(e.tail), strip(e.head), e.lower, e.upper)
            for e in typed_net.edges} == {tuple(e) for e in base_net.edges}
    assert [(strip(s.node), s.capacity) for s in typed_net.sinks] \
        == [(s.node, s.capacity) for s in base_net.sinks]


def test_flow_to_transfer_examples(small_instance):
    net = build_base_network(small_instance)
    values = {(e.tail, e.head): 0 for e in net.edges}
    values[("s1", "t1")] = values[("t1", "d2")] = 1
    values[("s2", "t2")] = values[("t2", "d2")] = 1
    values[(SOURCE, "s1")] = values[(SOURCE, "s2")] = 1
    flow = Flow(values, {"d1": 0, "d2": 2, "d3": 0}, 2)
    transfer = flow_to_transfer(net, flow)
    assert transfer.to_mapping() == {"t1": "d2", "t2": "d2", "t3": STAY}


def test_zero_flow_is_all_stay(small_instance):
    net = build_base_network(small_instance)
    zero = Flow({(e.tail, e.head): 0 for e in net.edges},
                {s.node: 0 for s in net.sinks}, 0)
    assert flow_to_transfer(net, zero) == Transfer.all_stay(small_instance)


def test_flow_rejects_fractional_values():
    with pytest.raises(ValueError, match="fractional"):
        Flow({("a", "b"): 0.5}, {}, 0)


def test_flow_transfer_round_trip_random():
    rng = random.Random(7)
    for trial in range(50):
        instance = random_instance(rng.randrange(2 ** 32),
                                   surplus=rng.randint(1, 3),
                                   deficit=rng.randint(1, 4),
                                   teachers=rng.randint(1, 5))
        net = build_base_network(instance)
        _, flow = max_flow(net)
        transfer = flow_to_transfer(net, flow)
        assert is_feasible(instance, transfer)
        back = transfer_to_flow(net, transfer)
        assert back.values == flow.values
        assert back.inflows == flow.inflows
        # sink inflow equals the deficit actually filled
        after = post_transfer_deficits(instance, transfer)
        for school in instance.deficit_schools:
            assert flow.inflow(school.id) == school.beta - after[school.id]
        # conservation everywhere except the source and the sinks
        sinks = set(net.sink_nodes)
        for node in net.nodes:
            if node.id == net.source or node.id in sinks:
                continue
            inbound = sum(flow.on(e.tail, e.head)
                          for e in net.in_edges[node.id])
            outbound = sum(flow.on(e.tail, e.head)
                           for e in net.out_edges[node.id])
            assert inbound == outbound


def test_cancel_circulations_drops_cycle(chain_instance):
    net = build_extended_network(chain_instance)
    values = {(e.tail, e.head): 0 for e in net.edges}
    # a pointless loop: t3 moves into s1 and t1 "takes her place" at s2?
    # no such edge exists, so build the only cycle-free of sinks: s1->t?
    # there is no cycle in this network back to s2, so craft flow on the
    # s1 -> t1 -> ... chain fed by t3 with nothing reaching a sink.
    values[(SOURCE, "s2")] = 1
    values[("s2", "t3")] = 1
    values[("t3", "s1")] = 1
    values[("s1", "t1")] = 1
    values[("t1", "d1")] = 1
    flow = Flow(values, {"d1": 1, "d2": 0}, 1)
    canonical = cancel_circulations(net, flow)
    assert canonical.values == values  # acyclic flow is untouched
    transfer = flow_to_transfer(net, flow)
    assert transfer.to_mapping() == {"t1": "d1", "t2": STAY, "t3": "s1",
                                     "t4": STAY}


def test_cancel_circulations_true_cycle():
    # two schools whose teachers accept each other's school: a 4-cycle
    instance = validate({
        "surplus_schools": [{"id": "s1", "alpha": 1}, {"id": "s2", "alpha": 1}],
        "deficit_schools": [{"id": "d1", "beta": 1}],
        "teachers": [
            {"id": "t1", "origin": "s1", "acceptable": ["d1", "s2"]},
            {"id": "t2", "origin": "s2", "acceptable": ["d1", "s1"]},
        ],
    })
    net = build_extended_network(instance)
    values = {(e.tail, e.head): 0 for e in net.edges}
    for pair in (("s1", "t1"), ("t1", "s2"), ("s2", "t2"), ("t2", "s1")):
        values[pair] = 1
    flow = Flow(values, {"d1": 0}, 0)
    canonical = cancel_circulations(net, flow)
    assert all(v == 0 for v in canonical.values.values())
    assert flow_to_transfer(net, flow) == Transfer.all_stay(instance)


def test_transfer_to_flow_rejects_unbacked_moves(small_instance):
    net = build_base_network(small_instance)
    with pytest.raises(Exception):
        transfer_to_flow(net, Transfer.from_mapping(
            {"t1": "d3", "t2": STAY, "t3": STAY}))


def test_dot_output(small_instance):
    text = to_dot(build_base_network(small_instance))
    assert text.startswith("digraph")
    assert '"t1" -> "d2"' in text
