"""The convex cooperative game induced by a flow network.

Deficit schools are the players.  A coalition's worth is the part of its
aggregate deficit that no feasible flow can fill: w(B) = beta(B) - v(B),
where v(B) is the maximum flow into the sinks of B.  A vector of deficits is
realizable by some (possibly fractional) flow exactly when it satisfies
h(B) >= w(B) for every coalition, so achievability testing and everything
downstream only ever consult this reduced form.
"""

from __future__ import annotations

from typing import Iterable

from .errors import CapExceededError, SolverDefectError, UnknownIdError
from .instance import DeficitVector
from .maxflow import b_max_flow
from .network import FlowNetwork

#: Largest player count for which exhaustive subset work is allowed.
SUBSET_CAP = 24


def check_subset_cap(players: int):
    """Refuse exhaustive coalition work over more than SUBSET_CAP players."""
    if players > SUBSET_CAP:
        raise CapExceededError(
            f"{players} deficit schools exceed the subset cap {SUBSET_CAP}: "
            f"scanning coalitions is exponential in the deficit-school count",
            limit=SUBSET_CAP, actual=players)


class FlowGame:
    """Characteristic function w over the sinks of a network, memoized by
    coalition bitmask.

    The memo dict is only ever inserted into, so concurrent readers are safe
    under the interpreter lock.
    """

    def __init__(self, network: FlowNetwork):
        self.network = network
        self.universe: tuple[str, ...] = network.sink_nodes
        capacities = network.sink_capacities
        self._betas = tuple(capacities[node] for node in self.universe)
        self._bit = {node: 1 << k for k, node in enumerate(self.universe)}
        self._worth: dict[int, int] = {0: 0}

    def mask_of(self, subset: Iterable[str]) -> int:
        mask = 0
        for node in subset:
            try:
                mask |= self._bit[node]
            except KeyError:
                raise UnknownIdError(f"not a sink node: {node!r}")
        return mask

    def subset_of(self, mask: int) -> frozenset[str]:
        return frozenset(node for k, node in enumerate(self.universe)
                         if mask >> k & 1)

    def beta_for_mask(self, mask: int) -> int:
        total = 0
        k = 0
        while mask:
            if mask & 1:
                total += self._betas[k]
            mask >>= 1
            k += 1
        return total

    def v_for_mask(self, mask: int) -> int:
        """Maximum flow into the sinks of the coalition."""
        return self.beta_for_mask(mask) - self.worth_for_mask(mask)

    def worth_for_mask(self, mask: int) -> int:
        cached = self._worth.get(mask)
        if cached is None:
            cached = self.beta_for_mask(mask) \
                - b_max_flow(self.network, self.subset_of(mask))
            if cached < 0:
                raise SolverDefectError("negative coalition worth",
                                        mask=mask, worth=cached)
            self._worth[mask] = cached
        return cached

    def worth(self, subset: Iterable[str]) -> int:
        return self.worth_for_mask(self.mask_of(subset))


def blocking_coalition(vector: DeficitVector, game) -> frozenset[str] | None:
    """First coalition (in mask order) whose worth the vector undercuts.

    None means the vector is achievable.  Comparisons are exact; vectors may
    mix ints and Fractions freely.
    """
    universe = tuple(game.universe)
    if set(vector.ids) != set(universe):
        raise ValueError("vector keys do not match the game's players")
    check_subset_cap(len(universe))
    values = tuple(vector[node] for node in universe)
    full = 1 << len(universe)
    for mask in range(1, full):
        total = 0
        m, k = mask, 0
        while m:
            if m & 1:
                total += values[k]
            m >>= 1
            k += 1
        if total < game.worth_for_mask(mask):
            return game.subset_of(mask)
    return None


def is_achievable(vector: DeficitVector, game) -> bool:
    """Exhaustive relaxed-core test: h(B) >= w(B) for every coalition."""
    return blocking_coalition(vector, game) is None


def check_supermodular(game):
    """Verify w(B + d) - w(B) >= w(A + d) - w(A) for all A < B, d outside B.

    Returns (True, None) or (False, (A, B, d)) with a witness triple.
    """
    universe = tuple(game.universe)
    check_subset_cap(len(universe))
    full = 1 << len(universe)
    for b_mask in range(1, full):
        outside = [k for k in range(len(universe)) if not b_mask >> k & 1]
        # iterate proper submasks of b_mask, largest first
        a_mask = (b_mask - 1) & b_mask
        while True:
            for k in outside:
                bit = 1 << k
                gain_b = game.worth_for_mask(b_mask | bit) \
                    - game.worth_for_mask(b_mask)
                gain_a = game.worth_for_mask(a_mask | bit) \
                    - game.worth_for_mask(a_mask)
                if gain_b < gain_a:
                    return False, (game.subset_of(a_mask),
                                   game.subset_of(b_mask),
                                   universe[k])
            if a_mask == 0:
                break
            a_mask = (a_mask - 1) & b_mask
    return True, None
