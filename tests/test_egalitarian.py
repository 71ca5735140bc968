from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redeploy import FlowGame, SolverDefectError, argmax_average_marginal, \
    average_marginal_maximizers, build_base_network, decompose, \
    lorenz_dominates, validate
from tests.test_game import TabularGame


def smallest_maximizer(game, base):
    _, maximizers = average_marginal_maximizers(game, base)
    return min(maximizers, key=lambda s: (len(s), sorted(s)))


def smallest_first_values(game):
    """Descending per-school values of the greedy split when each block is
    the smallest co-maximal coalition instead of their union."""
    placed = frozenset()
    values = []
    while len(placed) < len(game.universe):
        block = smallest_maximizer(game, placed)
        gain = game.worth(placed | block) - game.worth(placed)
        values += [Fraction(gain, len(block))] * len(block)
        placed |= block
    return tuple(sorted(values, reverse=True))


def test_first_block_rounding_instance(rounding_instance):
    game = FlowGame(build_base_network(rounding_instance))
    best, maximizers = average_marginal_maximizers(game, frozenset())
    assert best == Fraction(22, 5)
    chosen = argmax_average_marginal(game, frozenset())
    assert chosen == frozenset({"d1", "d2", "d3", "d4", "d5"})


def test_second_block_tie_resolution(rounding_instance):
    game = FlowGame(build_base_network(rounding_instance))
    base = frozenset({"d1", "d2", "d3", "d4", "d5"})
    best, maximizers = average_marginal_maximizers(game, base)
    assert best == Fraction(4)
    assert set(maximizers) == {frozenset({"d7"}), frozenset({"d6", "d7"})}
    assert argmax_average_marginal(game, base) == frozenset({"d6", "d7"})
    assert smallest_maximizer(game, base) == frozenset({"d7"})


def test_decompose_rounding_instance(rounding_instance):
    game = FlowGame(build_base_network(rounding_instance))
    dec = decompose(game)
    assert [sorted(b) for b in dec.blocks] \
        == [["d1", "d2", "d3", "d4", "d5"], ["d6", "d7"]]
    assert dec.block_values == (Fraction(22, 5), Fraction(4))
    assert dec.target.as_mapping() == {
        "d1": Fraction(22, 5), "d2": Fraction(22, 5), "d3": Fraction(22, 5),
        "d4": Fraction(22, 5), "d5": Fraction(22, 5),
        "d6": Fraction(4), "d7": Fraction(4)}
    assert dec.block_worths == (22, 30)


def test_decompose_small_instance(small_instance):
    game = FlowGame(build_base_network(small_instance))
    dec = decompose(game)
    assert dec.target.values == (Fraction(1), Fraction(3, 2), Fraction(3, 2))
    assert dec.blocks == (frozenset({"d2", "d3"}), frozenset({"d1"}))
    assert dec.block_worths == (3, 4)


def test_decompose_single_school():
    instance = validate({
        "surplus_schools": [{"id": "s", "alpha": 1}],
        "deficit_schools": [{"id": "d", "beta": 3}],
        "teachers": [{"id": "t", "origin": "s", "acceptable": ["d"]}],
    })
    dec = decompose(FlowGame(build_base_network(instance)))
    assert dec.blocks == (frozenset({"d"}),)
    assert dec.target.values == (Fraction(2),)


def test_argmax_errors_when_base_is_everything(small_instance):
    game = FlowGame(build_base_network(small_instance))
    with pytest.raises(ValueError):
        argmax_average_marginal(game, frozenset(game.universe))


def test_union_closure_violation_is_loud():
    # hand-built non-supermodular worths: {a} and {b} both average 2 but
    # their union averages 3/2, so no inclusion-wise largest maximizer
    broken = TabularGame(("a", "b"), {0b00: 0, 0b01: 2, 0b10: 2, 0b11: 3})
    with pytest.raises(SolverDefectError, match="union"):
        argmax_average_marginal(broken, frozenset())


def test_tie_break_invariance_of_target_multiset(dominance_suite):
    for instance in dominance_suite[:60]:
        game = FlowGame(build_base_network(instance))
        assert decompose(game).target.sorted_multiset() \
            == smallest_first_values(game)


def test_block_values_weakly_decreasing(dominance_suite):
    for instance in dominance_suite[:60]:
        dec = decompose(FlowGame(build_base_network(instance)))
        values = dec.block_values
        assert all(values[j] >= values[j + 1]
                   for j in range(len(values) - 1))
        # per-school form: schools in earlier blocks never sit lower
        for j, block in enumerate(dec.blocks[:-1]):
            for i in block:
                for k in dec.blocks[j + 1]:
                    assert dec.target[i] >= dec.target[k]


def test_cumulative_sums_bind(dominance_suite):
    for instance in dominance_suite[:60]:
        game = FlowGame(build_base_network(instance))
        dec = decompose(game)
        placed = frozenset()
        running = Fraction(0)
        for block, worth in zip(dec.blocks, dec.block_worths):
            placed |= block
            running += sum(dec.target[i] for i in block)
            assert running == worth == game.worth(placed)


def test_maximizer_family_closed_under_pairwise_union(game_suite):
    for instance in game_suite:
        game = FlowGame(build_base_network(instance))
        placed = frozenset()
        while len(placed) < len(game.universe):
            best, maximizers = average_marginal_maximizers(game, placed)
            for first in maximizers:
                for second in maximizers:
                    union = first | second
                    base_worth = game.worth(placed)
                    avg = Fraction(game.worth(placed | union) - base_worth,
                                   len(union))
                    assert avg == best
            placed |= argmax_average_marginal(game, placed)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=8))
def test_constant_mean_vector_dominates(values):
    mean = Fraction(sum(values), len(values))
    assert lorenz_dominates([mean] * len(values), values)
