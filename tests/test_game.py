from dataclasses import replace
from fractions import Fraction

import pytest

from redeploy import CapExceededError, DeficitVector, FlowGame, SinkSpec, \
    b_max_flow, blocking_coalition, build_base_network, check_supermodular, \
    decompose, is_achievable, max_flow_with_lower_bounds, \
    post_transfer_deficits, validate
from redeploy.game import check_subset_cap
from redeploy.oracle import average_marginal_maximizers
from tests.conftest import naive_enumerate


def pin_sink_inflows(network, inflows):
    """Force the inflow of every sink to an exact value (lower = upper)."""
    sinks = tuple(SinkSpec(s.node, inflows[s.node], inflows[s.node])
                  for s in network.sinks)
    return replace(network, sinks=sinks)


class TabularGame:
    """Dict-backed stand-in for worth functions that are not flow-induced."""

    def __init__(self, universe, table):
        self.universe = tuple(universe)
        self._bit = {u: 1 << k for k, u in enumerate(self.universe)}
        self._table = dict(table)

    def mask_of(self, subset):
        mask = 0
        for u in subset:
            mask |= self._bit[u]
        return mask

    def subset_of(self, mask):
        return frozenset(u for k, u in enumerate(self.universe)
                         if mask >> k & 1)

    def worth_for_mask(self, mask):
        return self._table[mask]

    def worth(self, subset):
        return self.worth_for_mask(self.mask_of(subset))


def test_worth_examples(rounding_instance):
    game = FlowGame(build_base_network(rounding_instance))
    assert game.worth(["d1", "d2", "d3", "d4", "d5"]) == 22
    assert game.worth(["d3", "d4", "d5"]) == 13
    assert game.worth([]) == 0


def test_worth_small(small_instance):
    game = FlowGame(build_base_network(small_instance))
    assert {d: game.worth([d]) for d in game.universe} \
        == {"d1": 0, "d2": 1, "d3": 1}
    assert game.worth(["d2", "d3"]) == 3
    assert game.worth(game.universe) == 4


def test_subset_cap():
    def network(deficit_schools):
        return build_base_network(validate({
            "surplus_schools": [{"id": "s", "alpha": 1}],
            "deficit_schools": [{"id": f"d{k}", "beta": 1}
                                for k in range(deficit_schools)],
            "teachers": [{"id": "t", "origin": "s", "acceptable": ["d0"]}],
        }))

    check_subset_cap(24)
    game = FlowGame(network(25))
    # the split itself is polynomial and runs past the cap
    assert decompose(game).blocks == (frozenset(game.universe)
                                      - {"d0"}, frozenset({"d0"}))
    vector = DeficitVector.from_mapping({d: 1 for d in game.universe},
                                        game.universe)
    for exhaustive in (lambda: blocking_coalition(vector, game),
                       lambda: check_supermodular(game),
                       lambda: average_marginal_maximizers(game,
                                                           frozenset())):
        with pytest.raises(CapExceededError) as info:
            exhaustive()
        assert str(info.value) == (
            "25 deficit schools exceed the subset cap 24: scanning "
            "coalitions is exponential in the deficit-school count")
        assert (info.value.limit, info.value.actual) == (24, 25)


def test_worth_runs_one_flow_per_distinct_mask(small_instance, monkeypatch):
    subsets = []

    def counting(network, subset):
        subsets.append(frozenset(subset))
        return b_max_flow(network, subset)

    monkeypatch.setattr("redeploy.game.b_max_flow", counting)
    net = build_base_network(small_instance)
    game = FlowGame(net)
    first = game.worth(["d1", "d2"])
    assert game.worth(["d2", "d1"]) == first
    assert game.worth_for_mask(game.mask_of(["d1", "d2"])) == first
    assert subsets == [frozenset({"d1", "d2"})]
    full = 1 << len(game.universe)
    for mask in range(full):
        assert game.v_for_mask(mask) \
            == b_max_flow(net, game.subset_of(mask))
    assert len(subsets) == len(set(subsets)) == full - 1


def test_bad_rounding_is_not_achievable(rounding_instance):
    game = FlowGame(build_base_network(rounding_instance))
    bad = DeficitVector.from_mapping(
        {"d1": 5, "d2": 5, "d3": 4, "d4": 4, "d5": 4, "d6": 4, "d7": 4},
        rounding_instance.deficit_ids)
    assert not is_achievable(bad, game)
    witness = blocking_coalition(bad, game)
    assert witness == frozenset({"d3", "d4", "d5"})
    assert game.worth(witness) == 13
    assert bad.total(witness) == 12


def test_fractional_target_is_achievable(rounding_instance):
    game = FlowGame(build_base_network(rounding_instance))
    star = DeficitVector.from_mapping(
        {f"d{k}": Fraction(22, 5) for k in range(1, 6)}
        | {"d6": 4, "d7": 4},
        rounding_instance.deficit_ids)
    assert is_achievable(star, game)


def test_initial_deficits_always_achievable(small_instance,
                                            rounding_instance):
    for instance in (small_instance, rounding_instance):
        game = FlowGame(build_base_network(instance))
        assert is_achievable(instance.initial_deficits(), game)


def test_achievability_dimension_mismatch(small_instance):
    game = FlowGame(build_base_network(small_instance))
    with pytest.raises(ValueError):
        is_achievable(DeficitVector(("d1",), (1,)), game)


def test_every_transfer_outcome_is_achievable(small_instance):
    game = FlowGame(build_base_network(small_instance))
    for transfer in naive_enumerate(small_instance):
        after = post_transfer_deficits(small_instance, transfer)
        assert is_achievable(after, game)


def test_achievable_integral_vectors_are_realizable(small_instance):
    """Relaxed-core membership of an integral vector below the initial
    deficits guarantees a transfer realizing it, found constructively."""
    game = FlowGame(build_base_network(small_instance))
    beta = small_instance.initial_deficits()
    ids = beta.ids
    realized = {post_transfer_deficits(small_instance, t).values
                for t in naive_enumerate(small_instance)}

    def vectors(prefix):
        if len(prefix) == len(ids):
            yield tuple(prefix)
            return
        for v in range(beta[ids[len(prefix)]] + 1):
            yield from vectors(prefix + [v])

    net = build_base_network(small_instance)
    for values in vectors([]):
        vec = DeficitVector(ids, values)
        if not is_achievable(vec, game):
            assert values not in realized
            continue
        pinned = pin_sink_inflows(
            net, {d: beta[d] - vec[d] for d in ids})
        assert max_flow_with_lower_bounds(pinned) is not None
        assert values in realized


def test_check_supermodular_on_flow_games(small_instance,
                                          rounding_instance):
    for instance in (small_instance, rounding_instance):
        ok, witness = check_supermodular(
            FlowGame(build_base_network(instance)))
        assert ok and witness is None


def test_check_supermodular_negative_control():
    # w({a}) + w({b}) > w({a,b}) + w({}) breaks supermodularity
    broken = TabularGame(("a", "b"), {0b00: 0, 0b01: 2, 0b10: 2, 0b11: 3})
    ok, witness = check_supermodular(broken)
    assert not ok
    a, b, extra = witness
    assert broken.worth(b | {extra}) - broken.worth(b) \
        < broken.worth(a | {extra}) - broken.worth(a)


def test_worth_is_nonnegative_everywhere(game_suite):
    for instance in game_suite[:10]:
        game = FlowGame(build_base_network(instance))
        for mask in range(1 << len(game.universe)):
            assert game.worth_for_mask(mask) >= 0
