import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redeploy import FlowGame, Instance, SolverDefectError, Teacher, \
    argmax_average_marginal, build_base_network, build_network, decompose, \
    lorenz_dominates, random_instance, validate
from redeploy.maxflow import _Residual
from redeploy.oracle import average_marginal_maximizers, \
    scan_argmax_average_marginal, scan_decompose
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
        scan_argmax_average_marginal(broken, frozenset())


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


def with_surplus_moves(instance, rng):
    """The instance with other surplus schools added to some acceptable
    sets, so that its extended network differs from the base one."""
    teachers = []
    for teacher in instance.teachers:
        extra = [s.id for s in instance.surplus_schools
                 if s.id != teacher.origin and rng.random() < 0.4]
        teachers.append(Teacher(teacher.id, teacher.origin,
                                teacher.acceptable | frozenset(extra)))
    return Instance(instance.surplus_schools, instance.deficit_schools,
                    tuple(teachers))


def seeded_instances(seed):
    """Two random instances per deficit-school count from 1 to 10."""
    rng = random.Random(seed)
    return [random_instance(rng.randrange(2 ** 32),
                            surplus=rng.randint(2, 4), deficit=deficit,
                            teachers=rng.randint(deficit, 3 * deficit),
                            accept_prob=rng.uniform(0.2, 0.6))
            for deficit in range(1, 11) for _ in range(2)]


def test_decompose_equals_the_scan_decomposition(dominance_suite,
                                                 game_suite):
    rng = random.Random(7)
    for instance in (list(dominance_suite) + list(game_suite)
                     + seeded_instances(41)):
        for network in (build_network(instance, "base"),
                        build_network(with_surplus_moves(instance, rng),
                                      "extended")):
            game = FlowGame(network)
            dec = decompose(game)
            expected = scan_decompose(game)
            assert dec.blocks == expected.blocks
            assert dec.target == expected.target
            assert dec.block_worths == expected.block_worths


def test_decompose_runs_a_few_flows_per_school(monkeypatch):
    # one block of the exhaustive scan alone runs 2^12 - 1 = 4095 flows
    flows = []
    run = _Residual.max_flow

    def counting(graph, source, sink):
        flows.append(sink)
        return run(graph, source, sink)

    monkeypatch.setattr(_Residual, "max_flow", counting)
    instance = random_instance(3, surplus=4, deficit=12, teachers=36,
                               accept_prob=0.3)
    dec = decompose(FlowGame(build_base_network(instance)))
    assert sum(map(len, dec.blocks)) == 12
    assert 0 < len(flows) <= 3 * 12
