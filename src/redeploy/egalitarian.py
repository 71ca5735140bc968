"""Stage one of the solver: the egalitarian split of the induced game.

The classic greedy decomposition for convex games (Megiddo 1974, Dutta and
Ray 1989): peel off the coalition with the highest average marginal worth,
give each of its members that average, and repeat on the rest.  The result
is an ordered partition into blocks with weakly decreasing per-school values
and a fractional deficit vector that Lorenz-dominates every vector
satisfying the relaxed-core inequalities: the lexicographically optimal base
of the polymatroid (Fujishige 1980).  All arithmetic is exact; 22/5 never
becomes 4.3999.

Each block is a fractional maximization, solved by Dinkelbach's method
(Dinkelbach 1967) with one minimum cut of the network per step, so the split
is polynomial in the network size.  The exhaustive scan over every
coalition survives only as the test oracle in `redeploy.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SolverDefectError
from .instance import DeficitVector
from .maxflow import sink_side_sinks


@dataclass(frozen=True)
class Decomposition:
    """Ordered blocks, cumulative worths, and the fractional target vector.

    target assigns every school in block j the value
    (w(union of blocks 1..j) - w(union of blocks 1..j-1)) / |block j|,
    which makes the cumulative sums bind: target(blocks 1..j) equals the
    cumulative worth for every j.
    """

    blocks: tuple[frozenset[str], ...]
    target: DeficitVector
    block_worths: tuple[int, ...]  # cumulative w over block prefixes

    @property
    def block_values(self) -> tuple[Fraction, ...]:
        previous = 0
        values = []
        for block, worth in zip(self.blocks, self.block_worths):
            values.append(Fraction(worth - previous, len(block)))
            previous = worth
        return tuple(values)


def argmax_average_marginal(game, base: frozenset[str]) -> frozenset[str]:
    """The inclusion-wise largest coalition of remaining schools with the
    highest average marginal worth over the base.

    Dinkelbach's method for the fractional maximum: at lambda = p/q, the
    largest maximizer of w(base + S) - w(base) - lambda |S| is the set of
    remaining sinks on the sink side of the minimal minimum cut of the
    network with every arc scaled by q, placed sinks at beta q and
    remaining sinks at (beta q - p)+, keeping only sinks with beta q >= p.
    Its average becomes the next lambda until the average stops rising;
    the last set is then the largest maximizer.
    """
    remaining = [node for node in game.universe if node not in base]
    if not remaining:
        raise ValueError("no schools left to extend the base")
    base_worth = game.worth(base)

    def average(subset) -> Fraction:
        return Fraction(game.worth(base | subset) - base_worth, len(subset))

    block = frozenset(remaining)
    level = average(block)
    if level == 0:
        # the worth is monotone, so no coalition gains anything
        return block
    betas = game.network.sink_capacities
    while True:
        p, q = level.numerator, level.denominator
        capacities = {node: betas[node] * q for node in base}
        capacities.update((node, max(betas[node] * q - p, 0))
                          for node in remaining)
        cut = sink_side_sinks(game.network, capacities, q)
        block = frozenset(node for node in remaining
                          if node in cut and betas[node] * q >= p)
        if not block:
            raise SolverDefectError("Dinkelbach step found no coalition",
                                    base=sorted(base), level=level)
        value = average(block)
        if value == level:
            return block
        if value < level:
            raise SolverDefectError(
                "Dinkelbach level failed to rise", base=sorted(base),
                level=level, block=sorted(block), value=value)
        level = value


def decompose(game) -> Decomposition:
    """Run the greedy split until every school is placed in a block.

    Among co-maximal coalitions each block is their union, the
    inclusion-wise largest one.
    """
    placed: frozenset[str] = frozenset()
    blocks: list[frozenset[str]] = []
    worths: list[int] = []
    values: list[Fraction] = []
    while len(placed) < len(game.universe):
        block = argmax_average_marginal(game, placed)
        placed = placed | block
        cumulative = game.worth(placed)
        previous = worths[-1] if worths else 0
        value = Fraction(cumulative - previous, len(block))
        if values and value > values[-1]:
            raise SolverDefectError(
                "block values must be weakly decreasing",
                blocks=[sorted(b) for b in blocks + [block]],
                values=values + [value])
        blocks.append(block)
        worths.append(cumulative)
        values.append(value)

    per_school: dict[str, Fraction] = {}
    for block, value in zip(blocks, values):
        for node in block:
            per_school[node] = value
    target = DeficitVector.from_mapping(per_school, game.universe)

    running = Fraction(0)
    for worth, block, value in zip(worths, blocks, values):
        running += value * len(block)
        if running != worth:
            raise SolverDefectError("cumulative sums fail to bind",
                                    expected=worth, got=running)
    return Decomposition(tuple(blocks), target, tuple(worths))
