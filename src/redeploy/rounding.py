"""Stage two of the solver: round the fractional target to a transfer.

The decomposition's blocks become aggregator sinks of an augmented network.
Every deficit school feeds its block through an edge whose flow is pinned
between the floor and the ceiling of (deficit - target); the block node's
capacity is the exact (integral) sum of those quantities.  Any integral
maximum flow of this network hits every block capacity, which forces the
rounded vector to keep all cumulative block sums intact, and that is exactly
what makes it Lorenz-dominant among integral achievable vectors.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .egalitarian import Decomposition, decompose
from .errors import SolverDefectError
from .game import FlowGame
from .instance import DeficitVector, Transfer, is_feasible, \
    post_transfer_deficits
from .maxflow import max_flow_with_lower_bounds
from .network import Edge, Flow, FlowNetwork, Node, SinkSpec, \
    build_network, flow_to_transfer
from .typed import is_feasible_typed, post_transfer_deficits_typed


@dataclass(frozen=True)
class RoundedSolution:
    """An integral deficit vector plus a transfer realizing it."""

    deficits: DeficitVector
    transfer: Transfer
    block_sums: tuple[int, ...]  # per-block totals of the rounded vector


@dataclass(frozen=True)
class SolveResult:
    variant: str
    decomposition: Decomposition
    rounded: RoundedSolution
    moved: int
    timings: Mapping[str, float]

    @property
    def deficits(self) -> DeficitVector:
        return self.rounded.deficits

    @property
    def transfer(self) -> Transfer:
        return self.rounded.transfer


def _block_node(j: int) -> str:
    return f"@blk:{j}"


def build_augmented_network(network: FlowNetwork,
                            decomposition: Decomposition) -> FlowNetwork:
    """Attach one aggregator sink per block behind the deficit schools."""
    betas = network.sink_capacities
    nodes = list(network.nodes)
    edges = list(network.edges)
    sinks = []
    for j, block in enumerate(decomposition.blocks):
        value = decomposition.block_values[j]
        capacity = sum(Fraction(betas[node]) - value for node in block)
        if capacity.denominator != 1:
            raise SolverDefectError("block capacity is not integral",
                                    block=sorted(block), capacity=capacity)
        nodes.append(Node(_block_node(j), "aux"))
        for node in network.sink_nodes:
            if node not in block:
                continue
            gap = Fraction(betas[node]) - value
            edges.append(Edge(node, _block_node(j),
                              math.floor(gap), math.ceil(gap)))
        sinks.append(SinkSpec(_block_node(j), int(capacity)))
    return FlowNetwork(tuple(nodes), tuple(edges), network.source,
                       tuple(sinks), teachers=network.teachers)


def round_decomposition(network: FlowNetwork,
                        decomposition: Decomposition) -> RoundedSolution:
    """Find an integral vector consistent with the decomposition.

    The augmented flow problem is always feasible and its maximum saturates
    every block, so a failure here is a defect, reported with diagnostics.
    """
    augmented = build_augmented_network(network, decomposition)
    expected = sum(s.capacity for s in augmented.sinks)
    result = max_flow_with_lower_bounds(augmented)
    if result is None:
        raise SolverDefectError(
            "augmented network is infeasible",
            blocks=[sorted(b) for b in decomposition.blocks],
            target=decomposition.target.as_mapping())
    value, flow = result
    if value != expected:
        raise SolverDefectError("augmented maximum flow fell short",
                                expected=expected, achieved=value)

    betas = network.sink_capacities
    target = decomposition.target
    rounded = {}
    for j, block in enumerate(decomposition.blocks):
        for node in block:
            rounded[node] = betas[node] - flow.on(node, _block_node(j))
    deficits = DeficitVector.from_mapping(rounded, network.sink_nodes)

    for node in network.sink_nodes:
        if rounded[node] not in (math.floor(target[node]),
                                 math.ceil(target[node])):
            raise SolverDefectError("rounded value escaped its bracket",
                                    school=node, value=rounded[node],
                                    target=target[node])
    block_sums = tuple(sum(rounded[node] for node in block)
                       for block in decomposition.blocks)
    cumulative = 0
    for total, worth in zip(block_sums, decomposition.block_worths):
        cumulative += total
        if cumulative != worth:
            raise SolverDefectError("rounded block sums do not bind",
                                    got=cumulative, expected=worth)

    restricted = Flow(
        {(e.tail, e.head): flow.on(e.tail, e.head) for e in network.edges},
        {node: sum(flow.on(e.tail, e.head)
                   for e in network.in_edges[node])
         for node in network.sink_nodes},
        value)
    transfer = flow_to_transfer(network, restricted)
    return RoundedSolution(deficits, transfer, block_sums)


def _verify(instance, variant: str, solution: RoundedSolution):
    if variant == "specialization":
        feasible = is_feasible_typed(instance, solution.transfer)
        after = post_transfer_deficits_typed(instance, solution.transfer) \
            if feasible else None
    else:
        allow = variant == "extended"
        feasible = is_feasible(instance, solution.transfer,
                               allow_surplus_moves=allow)
        after = post_transfer_deficits(
            instance, solution.transfer,
            allow_surplus_moves=allow) if feasible else None
    if not feasible:
        raise SolverDefectError("extracted transfer is infeasible",
                                transfer=solution.transfer.to_mapping())
    if after != solution.deficits:
        raise SolverDefectError(
            "transfer does not realize the rounded vector",
            expected=solution.deficits.as_mapping(),
            realized=after.as_mapping())


def solve(instance, variant: str = "base") -> SolveResult:
    """Full pipeline: network, induced game, egalitarian split, rounding.

    The result's transfer realizes an integral deficit vector that
    Lorenz-dominates the outcome of every other feasible transfer.
    """
    timings: dict[str, float] = {}

    start = time.perf_counter()
    network = build_network(instance, variant)
    timings["network"] = time.perf_counter() - start

    start = time.perf_counter()
    game = FlowGame(network)
    decomposition = decompose(game)
    timings["decompose"] = time.perf_counter() - start

    start = time.perf_counter()
    rounded = round_decomposition(network, decomposition)
    timings["round"] = time.perf_counter() - start

    _verify(instance, variant, rounded)
    moved = rounded.transfer.moved_count
    return SolveResult(variant, decomposition, rounded, moved, timings)
