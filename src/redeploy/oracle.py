"""Brute-force ground truth, kept independent of the solver's algorithms.

Feasibility here is checked by direct counting against the three transfer
constraints, never by running flows, so agreement between this module and
the solver is evidence rather than tautology.  The egalitarian split is
checked the same way: a scan of every coalition of the remaining schools,
reading worths from the game, in place of the solver's Dinkelbach cuts.
Nothing on the `solve` path calls this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .egalitarian import Decomposition
from .errors import CapExceededError, SolverDefectError, UnknownIdError
from .game import check_subset_cap
from .instance import STAY, DeficitVector, Instance, Transfer

ENUMERATION_CAP = 10_000_000


def descending_prefix_sums(values: Iterable) -> tuple:
    """Prefix sums of the values sorted from highest to lowest."""
    out = []
    running = 0
    for v in sorted(values, reverse=True):
        running = running + v
        out.append(running)
    return tuple(out)


def _as_values(vector) -> tuple:
    if isinstance(vector, DeficitVector):
        return vector.values
    return tuple(vector)


def lorenz_dominates(first, second) -> bool:
    """True when every descending prefix sum of first is <= second's.

    This is weak majorization: the dominating vector is the more equal,
    lower-deficit one.  The relation is a partial preorder; two vectors can
    easily be incomparable.
    """
    a = _as_values(first)
    b = _as_values(second)
    if len(a) != len(b):
        raise ValueError("vectors have different dimensions")
    return all(x <= y for x, y in
               zip(descending_prefix_sums(a), descending_prefix_sums(b)))


def _option_table(instance: Instance,
                  acceptable: Mapping[str, frozenset[str]] | None):
    """Per-teacher destination options (deficit indices, then STAY)."""
    index = instance.deficit_index
    teachers = sorted(instance.teachers, key=lambda t: t.id)
    table = []
    for teacher in teachers:
        if acceptable is None:
            wanted = teacher.acceptable
        else:
            wanted = acceptable.get(teacher.id, teacher.acceptable)
        options = sorted((index[a] for a in wanted if a in index))
        table.append((teacher, options))
    return table


def _check_cap(table, cap):
    size = 1
    for _, options in table:
        size *= len(options) + 1
        if size > cap:
            raise CapExceededError(
                f"transfer space exceeds the enumeration cap {cap}",
                limit=cap, actual=size)
    return size


def iter_outcomes(instance: Instance, *,
                  acceptable: Mapping[str, frozenset[str]] | None = None,
                  cap: int = ENUMERATION_CAP
                  ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield (destinations, post-transfer deficits) for every feasible
    transfer, destinations as deficit indices with len(D) meaning STAY.

    Teachers are taken in id order and options in destination order, which
    makes the stream ascend in the fixed tie-breaking order used by the
    mechanism.  Surplus and deficit headroom is tracked during the
    recursion, so infeasible branches are pruned immediately.
    """
    table = _option_table(instance, acceptable)
    _check_cap(table, cap)

    betas = [d.beta for d in instance.deficit_schools]
    stay = len(betas)
    room = betas[:]                      # remaining capacity per school
    spare = dict(instance.alphas)        # remaining surplus per school
    chosen: list[int] = []

    def recurse(position: int) -> Iterator:
        if position == len(table):
            yield tuple(chosen), tuple(room[k] for k in range(len(betas)))
            return
        teacher, options = table[position]
        for dest in options:
            if room[dest] > 0 and spare[teacher.origin] > 0:
                room[dest] -= 1
                spare[teacher.origin] -= 1
                chosen.append(dest)
                yield from recurse(position + 1)
                chosen.pop()
                room[dest] += 1
                spare[teacher.origin] += 1
        chosen.append(stay)
        yield from recurse(position + 1)
        chosen.pop()

    return recurse(0)


def _to_transfer(instance: Instance, destinations: tuple[int, ...]) -> Transfer:
    ids = instance.deficit_ids
    teachers = sorted(instance.teacher_ids)
    stay = len(ids)
    return Transfer.from_mapping(
        {t: (STAY if d == stay else ids[d])
         for t, d in zip(teachers, destinations)})


def enumerate_transfers(instance: Instance, *,
                        acceptable: Mapping[str, frozenset[str]] | None = None,
                        cap: int = ENUMERATION_CAP
                        ) -> Iterator[Transfer]:
    """All feasible transfers, in the mechanism's tie-breaking order."""
    for destinations, _ in iter_outcomes(instance, acceptable=acceptable,
                                         cap=cap):
        yield _to_transfer(instance, destinations)


def dominant_outcomes(instance: Instance, *,
                      acceptable: Mapping[str, frozenset[str]] | None = None):
    """Scan the whole transfer space for the Lorenz-dominant outcomes.

    Returns (multiset, destination tuples) where multiset is the common
    descending deficit profile of the winners.  A dominant outcome always
    exists for these instances; its absence is reported as a defect.
    """
    best_prefix = None
    winners: list[tuple[int, ...]] = []
    for destinations, deficits in iter_outcomes(instance,
                                                acceptable=acceptable):
        prefix = descending_prefix_sums(deficits)
        if best_prefix is None:
            best_prefix = prefix
            winners = [destinations]
            continue
        if prefix == best_prefix:
            winners.append(destinations)
            continue
        if all(x <= y for x, y in zip(prefix, best_prefix)):
            best_prefix = prefix
            winners = [destinations]
        elif not all(y <= x for x, y in zip(prefix, best_prefix)):
            # incomparable with the current best: the true optimum, if any,
            # must dominate both, so track the pointwise minimum.
            best_prefix = tuple(min(x, y)
                                for x, y in zip(prefix, best_prefix))
            winners = []

    if best_prefix is None:
        raise SolverDefectError("instance has no transfers at all")
    if not winners:
        raise SolverDefectError("no Lorenz-dominant transfer exists",
                                prefix=best_prefix)
    multiset = []
    previous = 0
    for total in best_prefix:
        multiset.append(total - previous)
        previous = total
    return tuple(multiset), winners


def brute_force_lorenz_dominant(instance: Instance
                                ) -> tuple[tuple, tuple[Transfer, ...]]:
    """The dominant deficit multiset and every transfer achieving it."""
    multiset, winners = dominant_outcomes(instance)
    return multiset, tuple(_to_transfer(instance, w) for w in winners)


def brute_force_v(instance: Instance, subset: Iterable[str]) -> int:
    """Largest number of teachers any transfer places into the subset."""
    chosen = set(subset)
    unknown = chosen - set(instance.deficit_index)
    if unknown:
        raise UnknownIdError(f"not deficit schools: {sorted(unknown)}")
    indices = {instance.deficit_index[d] for d in chosen}
    best = 0
    for destinations, _ in iter_outcomes(instance):
        best = max(best, sum(1 for d in destinations if d in indices))
    return best


def average_marginal_maximizers(game, base: frozenset[str]):
    """Best average marginal worth over the remaining schools and every
    subset attaining it, by scanning all 2^n - 1 of them.

    Returns (best, maximizers) with maximizers in ascending mask order.
    """
    check_subset_cap(len(game.universe))
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


def scan_argmax_average_marginal(game, base: frozenset[str]
                                 ) -> frozenset[str]:
    """The union of all maximizers found by the scan.

    The maximizer family of a convex game is closed under union, so the
    union is itself one; that is asserted, not assumed.
    """
    best, maximizers = average_marginal_maximizers(game, base)
    union: frozenset[str] = frozenset().union(*maximizers)
    base_worth = game.worth(base)
    if Fraction(game.worth(base | union) - base_worth, len(union)) != best:
        raise SolverDefectError(
            "maximizer family is not closed under union",
            base=sorted(base), best=best,
            maximizers=[sorted(m) for m in maximizers])
    return union


def scan_decompose(game) -> Decomposition:
    """The greedy egalitarian split with every block found by the scan."""
    placed: frozenset[str] = frozenset()
    blocks: list[frozenset[str]] = []
    worths: list[int] = []
    per_school: dict[str, Fraction] = {}
    while len(placed) < len(game.universe):
        block = scan_argmax_average_marginal(game, placed)
        gain = game.worth(placed | block) - game.worth(placed)
        for node in block:
            per_school[node] = Fraction(gain, len(block))
        placed |= block
        blocks.append(block)
        worths.append(game.worth(placed))
    target = DeficitVector.from_mapping(per_school, game.universe)
    return Decomposition(tuple(blocks), target, tuple(worths))
