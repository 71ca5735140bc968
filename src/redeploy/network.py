"""Flow-network construction and the flow/transfer correspondence.

Every variant of the problem compiles to the same shape: one source, a layer
of school supply nodes, unit-capacity teacher nodes, and capacitated sink
nodes, one per deficit school (or per deficit position in the typed variant).
Node capacities are expressed as edge data only; the max-flow engine splits
sinks off behind a single super-sink internally, so downstream code never
deals with node capacities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

from .errors import SolverDefectError
from .instance import STAY, Instance, Transfer
from .typed import TypedInstance, position

SOURCE = "@src"

VARIANTS = ("base", "extended", "specialization")


class Node(NamedTuple):
    id: str
    kind: str  # source | school | teacher | sink | aux


class Edge(NamedTuple):
    tail: str
    head: str
    lower: int
    upper: int


class SinkSpec(NamedTuple):
    node: str      # sink node id; doubles as the deficit-school id
    capacity: int
    lower: int = 0


@dataclass(frozen=True)
class FlowNetwork:
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    source: str
    sinks: tuple[SinkSpec, ...]
    teachers: tuple[str, ...] = ()  # every candidate, including isolated ones

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise SolverDefectError("duplicate node ids in network")
        id_set = set(ids)
        keys = set()
        for e in self.edges:
            if e.tail not in id_set or e.head not in id_set:
                raise SolverDefectError("edge endpoint missing",
                                        edge=tuple(e))
            if not 0 <= e.lower <= e.upper:
                raise SolverDefectError("edge bounds out of order",
                                        edge=tuple(e))
            if (e.tail, e.head) in keys:
                raise SolverDefectError("parallel edge", edge=tuple(e))
            keys.add((e.tail, e.head))

    @cached_property
    def node_index(self) -> dict[str, int]:
        return {n.id: i for i, n in enumerate(self.nodes)}

    @cached_property
    def kinds(self) -> dict[str, str]:
        return {n.id: n.kind for n in self.nodes}

    @cached_property
    def sink_nodes(self) -> tuple[str, ...]:
        return tuple(s.node for s in self.sinks)

    @cached_property
    def sink_capacities(self) -> dict[str, int]:
        return {s.node: s.capacity for s in self.sinks}

    @cached_property
    def out_edges(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            out[e.tail].append(e)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def in_edges(self) -> dict[str, tuple[Edge, ...]]:
        inc: dict[str, list[Edge]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            inc[e.head].append(e)
        return {k: tuple(v) for k, v in inc.items()}

    def has_lower_bounds(self) -> bool:
        return any(e.lower > 0 for e in self.edges) \
            or any(s.lower > 0 for s in self.sinks)


@dataclass(frozen=True)
class Flow:
    """An integer flow: per-edge values plus inflow at each sink node."""

    values: Mapping[tuple[str, str], int]
    inflows: Mapping[str, int]
    value: int

    def __post_init__(self):
        for key, v in self.values.items():
            if not isinstance(v, int):
                raise ValueError(f"fractional flow value on {key}: {v!r}")

    def on(self, tail: str, head: str) -> int:
        return self.values.get((tail, head), 0)

    def inflow(self, sink: str) -> int:
        return self.inflows.get(sink, 0)


def build_base_network(instance: Instance) -> FlowNetwork:
    """The basic construction: source -> schools -> teachers -> deficits.

    Teachers with no acceptable deficit school are left out of the graph
    (surplus-school entries in their sets belong to the extended variant).
    """
    return _build(instance, surplus_moves=False)


def build_extended_network(instance: Instance) -> FlowNetwork:
    """Base network plus unit edges from teachers to acceptable surplus
    schools; a teacher moving in frees an extra departure there."""
    return _build(instance, surplus_moves=True)


def _build(instance: Instance, surplus_moves: bool) -> FlowNetwork:
    nodes = [Node(SOURCE, "source")]
    edges = []
    for school in instance.surplus_schools:
        nodes.append(Node(school.id, "school"))
        edges.append(Edge(SOURCE, school.id, 0, school.alpha))

    active = []
    for teacher in instance.teachers:
        deficits = instance.acceptable_deficits(teacher)
        surpluses = instance.acceptable_surpluses(teacher) \
            if surplus_moves else ()
        if deficits or surpluses:
            active.append((teacher, deficits, surpluses))

    for teacher, _, _ in active:
        nodes.append(Node(teacher.id, "teacher"))
    for school in instance.deficit_schools:
        nodes.append(Node(school.id, "sink"))

    for teacher, deficits, surpluses in active:
        edges.append(Edge(teacher.origin, teacher.id, 0, 1))
        for dest in deficits:
            edges.append(Edge(teacher.id, dest, 0, 1))
        for dest in surpluses:
            if dest == teacher.origin:
                raise SolverDefectError("own school in acceptable set",
                                        teacher=teacher.id)
            edges.append(Edge(teacher.id, dest, 0, 1))

    sinks = tuple(SinkSpec(d.id, d.beta) for d in instance.deficit_schools)
    return FlowNetwork(tuple(nodes), tuple(edges), SOURCE, sinks,
                       teachers=instance.teacher_ids)


def build_specialization_network(instance: TypedInstance) -> FlowNetwork:
    """Per-subject construction for typed teachers.

    Each school contributes one node per subject it has a surplus in and one
    sink per subject it has a deficit in.  A transferable teacher hangs off
    her (origin, taught subject) node and reaches every acceptable position
    she is qualified for.
    """
    nodes = [Node(SOURCE, "source")]
    edges = []
    sinks = []
    for school in instance.schools:
        for subject, alpha in school.surplus:
            pos = position(school.id, subject)
            nodes.append(Node(pos, "school"))
            edges.append(Edge(SOURCE, pos, 0, alpha))
        for subject, beta in school.deficit:
            pos = position(school.id, subject)
            nodes.append(Node(pos, "sink"))
            sinks.append(SinkSpec(pos, beta))

    teacher_edges = []
    active = []
    for teacher in instance.transferable_teachers:
        destinations = instance.destination_positions(teacher)
        if not destinations:
            continue
        active.append(teacher)
        origin_pos = position(teacher.origin, teacher.teaches)
        teacher_edges.append(Edge(origin_pos, teacher.id, 0, 1))
        for dest in destinations:
            teacher_edges.append(Edge(teacher.id, dest, 0, 1))

    for teacher in active:
        nodes.append(Node(teacher.id, "teacher"))
    edges.extend(teacher_edges)

    return FlowNetwork(tuple(nodes), tuple(edges), SOURCE, tuple(sinks),
                       teachers=tuple(t.id for t in instance.teachers))


def build_network(instance, variant: str) -> FlowNetwork:
    """The network of the named variant; specialization needs a
    TypedInstance, the other two an Instance."""
    if variant == "specialization":
        if not isinstance(instance, TypedInstance):
            raise TypeError("specialization variant needs a TypedInstance")
        return build_specialization_network(instance)
    if variant == "extended":
        return build_extended_network(instance)
    if variant == "base":
        return build_base_network(instance)
    raise ValueError(f"unknown variant {variant!r}")


def cancel_circulations(network: FlowNetwork, flow: Flow) -> Flow:
    """Remove flow running around directed cycles.

    Cycles can only pass through school and teacher nodes, so sink inflows
    and the total value are unchanged.  Needed so that reading a teacher's
    destination off her saturated out-edge is well defined on networks with
    backward edges.
    """
    values = dict(flow.values)
    out = {n.id: [] for n in network.nodes}
    for e in network.edges:
        if values.get((e.tail, e.head), 0) > 0:
            out[e.tail].append(e.head)

    def find_cycle():
        color = {}
        for start in out:
            if color.get(start):
                continue
            stack = [(start, iter(out[start]))]
            color[start] = "active"
            path = [start]
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if values.get((node, nxt), 0) <= 0:
                        continue
                    if color.get(nxt) == "active":
                        return path[path.index(nxt):] + [nxt]
                    if color.get(nxt) != "done":
                        color[nxt] = "active"
                        path.append(nxt)
                        stack.append((nxt, iter(out[nxt])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = "done"
                    path.pop()
                    stack.pop()
        return None

    while True:
        cycle = find_cycle()
        if cycle is None:
            break
        pairs = list(zip(cycle, cycle[1:]))
        bottleneck = min(values[p] for p in pairs)
        for p in pairs:
            values[p] -= bottleneck

    return Flow(values, dict(flow.inflows), flow.value)


def flow_to_transfer(network: FlowNetwork, flow: Flow) -> Transfer:
    """Read a transfer off an integral flow.

    Each teacher carries at most one unit; her destination is the head of
    the single saturated outgoing edge, or STAY when idle.
    """
    flow = cancel_circulations(network, flow)
    kinds = network.kinds
    assignment = {}
    for teacher_id in network.teachers:
        if teacher_id not in kinds:
            assignment[teacher_id] = STAY
            continue
        used = [e.head for e in network.out_edges[teacher_id]
                if flow.on(e.tail, e.head) > 0]
        if len(used) > 1:
            raise SolverDefectError("teacher node carries more than one unit",
                                    teacher=teacher_id, heads=used)
        assignment[teacher_id] = used[0] if used else STAY
    return Transfer.from_mapping(assignment)


def to_dot(network: FlowNetwork) -> str:
    """GraphViz rendering for eyeballing a construction."""
    shape = {"source": "diamond", "school": "box", "teacher": "ellipse",
             "sink": "doublecircle", "aux": "octagon"}
    lines = ["digraph network {", "  rankdir=LR;"]
    caps = network.sink_capacities
    for node in network.nodes:
        label = node.id
        if node.id in caps:
            label = f"{node.id}\\n<= {caps[node.id]}"
        lines.append(f'  "{node.id}" [shape={shape[node.kind]} '
                     f'label="{label}"];')
    for e in network.edges:
        bound = f"[{e.lower},{e.upper}]" if e.lower else str(e.upper)
        lines.append(f'  "{e.tail}" -> "{e.head}" [label="{bound}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
