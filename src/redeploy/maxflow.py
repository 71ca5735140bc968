"""Integer maximum flow on FlowNetworks.

A deliberately plain Edmonds-Karp implementation: shortest augmenting paths
found by BFS over adjacency lists kept in canonical construction order, so
identical inputs always produce identical flows.  Lower bounds are handled
with the usual feasible-circulation transformation (super source and sink
absorbing the bound imbalances plus a return arc), after which augmentation
continues from the real source.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import UnknownIdError
from .network import Flow, FlowNetwork

_SINK = "@snk"
_SUPER_SOURCE = "@feas-src"
_SUPER_SINK = "@feas-snk"


class _Residual:
    """Paired-edge residual graph; edge i and i^1 are mutual reverses."""

    def __init__(self, n: int):
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        index = len(self.to)
        self.to.extend((v, u))
        self.cap.extend((capacity, 0))
        self.adj[u].append(index)
        self.adj[v].append(index + 1)
        return index

    def max_flow(self, source: int, sink: int) -> int:
        adj, to, cap = self.adj, self.to, self.cap
        total = 0
        n = len(adj)
        while True:
            parent_edge = [-1] * n
            parent_edge[source] = -2
            queue = [source]
            for u in queue:
                if u == sink:
                    break
                for i in adj[u]:
                    v = to[i]
                    if parent_edge[v] == -1 and cap[i] > 0:
                        parent_edge[v] = i
                        queue.append(v)
            if parent_edge[sink] == -1:
                return total
            bottleneck = None
            v = sink
            while v != source:
                i = parent_edge[v]
                if bottleneck is None or cap[i] < bottleneck:
                    bottleneck = cap[i]
                v = to[i ^ 1]
            v = sink
            while v != source:
                i = parent_edge[v]
                cap[i] -= bottleneck
                cap[i ^ 1] += bottleneck
                v = to[i ^ 1]
            total += bottleneck

    def reachable(self, source: int) -> list[bool]:
        """Nodes reachable from source along arcs with residual capacity."""
        seen = [False] * len(self.adj)
        seen[source] = True
        queue = [source]
        for u in queue:
            for i in self.adj[u]:
                v = self.to[i]
                if not seen[v] and self.cap[i] > 0:
                    seen[v] = True
                    queue.append(v)
        return seen

    def flow_on(self, index: int) -> int:
        return self.cap[index ^ 1]

    def disable(self, index: int):
        self.cap[index] = 0
        self.cap[index ^ 1] = 0


def infinite_capacity(network: FlowNetwork) -> int:
    """A safe stand-in for an unbounded arc: more than anything can carry."""
    return (sum(s.capacity for s in network.sinks)
            + sum(e.upper for e in network.edges if e.tail == network.source)
            + 1)


def _sink_graph(network: FlowNetwork, sink_capacities: Mapping[str, int],
                scale: int = 1):
    """Residual graph of a network without lower bounds: every arc's
    capacity multiplied by scale, and each sink joined to one super-sink
    by an arc of its given capacity (its own capacity when not given)."""
    if network.has_lower_bounds():
        raise ValueError("network has lower bounds; use "
                         "max_flow_with_lower_bounds")
    index = dict(network.node_index)
    sink = len(index)
    graph = _Residual(sink + 1)
    edge_ids = [graph.add_edge(index[e.tail], index[e.head], e.upper * scale)
                for e in network.edges]
    sink_ids = [graph.add_edge(index[s.node], sink,
                               sink_capacities.get(s.node, s.capacity))
                for s in network.sinks]
    return graph, index, edge_ids, sink_ids


def max_flow(network: FlowNetwork, *,
             sink_capacity_override: Mapping[str, int] | None = None
             ) -> tuple[int, Flow]:
    """Maximum integral flow into the sinks; requires zero lower bounds."""
    graph, index, edge_ids, sink_ids = _sink_graph(
        network, sink_capacity_override or {})
    value = graph.max_flow(index[network.source], len(index))
    values = {(e.tail, e.head): graph.flow_on(i)
              for e, i in zip(network.edges, edge_ids)}
    inflows = {s.node: graph.flow_on(i)
               for s, i in zip(network.sinks, sink_ids)}
    return value, Flow(values, inflows, value)


def sink_side_sinks(network: FlowNetwork, sink_capacities: Mapping[str, int],
                    scale: int) -> frozenset[str]:
    """Sinks on the sink side of the minimal minimum cut.

    Every arc capacity is multiplied by scale and each sink's arc gets the
    given capacity.  The minimal cut's source side is what a maximum flow
    leaves reachable from the source, so the sinks outside it form the
    largest sink set any minimum cut separates from the source.
    """
    graph, index, _, _ = _sink_graph(network, sink_capacities, scale)
    source = index[network.source]
    graph.max_flow(source, len(index))
    reached = graph.reachable(source)
    return frozenset(s.node for s in network.sinks
                     if not reached[index[s.node]])


def max_flow_with_lower_bounds(network: FlowNetwork
                               ) -> tuple[int, Flow] | None:
    """Maximum integral flow respecting per-edge lower bounds.

    Returns None when no flow satisfies all the bounds; that is an expected
    outcome for callers, not an error.
    """
    if not network.has_lower_bounds():
        return max_flow(network)

    index = dict(network.node_index)
    sink = len(index)
    super_source = sink + 1
    super_sink = sink + 2
    graph = _Residual(sink + 3)
    excess = [0] * (sink + 1)

    edge_ids = []
    for e in network.edges:
        edge_ids.append(graph.add_edge(index[e.tail], index[e.head],
                                       e.upper - e.lower))
        excess[index[e.head]] += e.lower
        excess[index[e.tail]] -= e.lower
    sink_ids = []
    for s in network.sinks:
        if s.lower > s.capacity:
            return None
        sink_ids.append(graph.add_edge(index[s.node], sink,
                                       s.capacity - s.lower))
        excess[sink] += s.lower
        excess[index[s.node]] -= s.lower

    return_arc = graph.add_edge(sink, index[network.source],
                                infinite_capacity(network))
    helper_arcs = [return_arc]
    required = 0
    for v, amount in enumerate(excess):
        if amount > 0:
            helper_arcs.append(graph.add_edge(super_source, v, amount))
            required += amount
        elif amount < 0:
            helper_arcs.append(graph.add_edge(v, super_sink, -amount))

    if graph.max_flow(super_source, super_sink) < required:
        return None

    base = graph.flow_on(return_arc)
    for arc in helper_arcs:
        graph.disable(arc)
    value = base + graph.max_flow(index[network.source], sink)

    values = {(e.tail, e.head): e.lower + graph.flow_on(i)
              for e, i in zip(network.edges, edge_ids)}
    inflows = {s.node: s.lower + graph.flow_on(i)
               for s, i in zip(network.sinks, sink_ids)}
    return value, Flow(values, inflows, value)


def b_max_flow(network: FlowNetwork, subset: Iterable[str]) -> int:
    """Maximum total inflow into the given sinks, all others shut off."""
    chosen = set(subset)
    known = set(network.sink_nodes)
    unknown = chosen - known
    if unknown:
        raise UnknownIdError(f"not sink nodes: {sorted(unknown)}")
    value, _ = max_flow(network, sink_capacity_override={
        node: 0 for node in known - chosen})
    return value
