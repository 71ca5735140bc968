"""Stage one of the solver: the egalitarian split of the induced game.

The classic greedy decomposition for convex games (Megiddo 1974, Dutta and
Ray 1989): peel off the coalition with the highest average marginal worth,
give each of its members that average, and repeat on the rest.  The result
is an ordered partition into blocks with weakly decreasing per-school values
and a fractional deficit vector that Lorenz-dominates every vector
satisfying the relaxed-core inequalities.  All arithmetic is exact; 22/5
never becomes 4.3999.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SolverDefectError
from .instance import DeficitVector


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


def average_marginal_maximizers(game, base: frozenset[str]):
    """Best average marginal worth over the remaining schools and every
    subset attaining it.

    Returns (best, maximizers) with maximizers in ascending mask order.
    """
    base_mask = game.mask_of(base)
    remaining = [node for node in game.universe if node not in base]
    if not remaining:
        raise ValueError("no schools left to extend the base")
    bits = [game.mask_of([node]) for node in remaining]
    base_worth = game.worth_for_mask(base_mask)

    best = None
    maximizer_masks: list[int] = []
    for sub in range(1, 1 << len(remaining)):
        mask = 0
        size = 0
        m, k = sub, 0
        while m:
            if m & 1:
                mask |= bits[k]
                size += 1
            m >>= 1
            k += 1
        average = Fraction(game.worth_for_mask(base_mask | mask) - base_worth,
                           size)
        if best is None or average > best:
            best = average
            maximizer_masks = [mask]
        elif average == best:
            maximizer_masks.append(mask)

    maximizers = tuple(game.subset_of(mask) for mask in maximizer_masks)
    return best, maximizers


def argmax_average_marginal(game, base: frozenset[str]) -> frozenset[str]:
    """The inclusion-wise largest maximizer.

    The maximizer family of a convex game is closed under union, so the
    union of all maximizers is itself one; that is asserted, not assumed.
    """
    best, maximizers = average_marginal_maximizers(game, base)
    union: frozenset[str] = frozenset().union(*maximizers)
    base_worth = game.worth_for_mask(game.mask_of(base))
    union_avg = Fraction(
        game.worth_for_mask(game.mask_of(base | union)) - base_worth,
        len(union))
    if union_avg != best:
        raise SolverDefectError(
            "maximizer family is not closed under union",
            base=sorted(base), best=best,
            maximizers=[sorted(m) for m in maximizers])
    return union


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
