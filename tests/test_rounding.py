import math
import typing

import pytest

from redeploy import FlowGame, RoundedSolution, SolveResult, Transfer, \
    build_augmented_network, build_base_network, decompose, is_feasible, \
    is_feasible_typed, post_transfer_deficits, \
    post_transfer_deficits_typed, round_decomposition, solve, validate
from redeploy.network import SOURCE


def _aug(instance):
    net = build_base_network(instance)
    dec = decompose(FlowGame(net))
    return net, dec, build_augmented_network(net, dec)


def test_augmented_structure_rounding_instance(rounding_instance):
    net, dec, augmented = _aug(rounding_instance)
    caps = {s.node: s.capacity for s in augmented.sinks}
    assert caps == {"@blk:0": 3, "@blk:1": 2}
    bounds = {(e.tail, e.head): (e.lower, e.upper)
              for e in augmented.edges if e.head.startswith("@blk:")}
    for school in ("d1", "d2", "d3", "d4", "d5"):
        assert bounds[(school, "@blk:0")] == (0, 1)  # 5 - 22/5 = 0.6
    for school in ("d6", "d7"):
        assert bounds[(school, "@blk:1")] == (1, 1)


def test_augmented_structure_small_instance(small_instance):
    net, dec, augmented = _aug(small_instance)
    caps = {s.node: s.capacity for s in augmented.sinks}
    # beta - target = (0, 3/2, 1/2): block sums 2 and 0
    assert caps == {"@blk:0": 2, "@blk:1": 0}
    bounds = {(e.tail, e.head): (e.lower, e.upper)
              for e in augmented.edges if e.head.startswith("@blk:")}
    assert bounds[("d2", "@blk:0")] == (1, 2)
    assert bounds[("d3", "@blk:0")] == (0, 1)
    assert bounds[("d1", "@blk:1")] == (0, 0)


def test_augmented_keeps_original_edges(small_instance):
    net, _, augmented = _aug(small_instance)
    assert set(net.edges) <= set(augmented.edges)
    assert augmented.source == SOURCE


def test_integral_target_gives_tight_bounds(chain_base_instance):
    net, dec, augmented = _aug(chain_base_instance)
    assert dec.target.is_integral
    for e in augmented.edges:
        if e.head.startswith("@blk:"):
            assert e.lower == e.upper


def test_round_small_instance(small_instance):
    net, dec, _ = _aug(small_instance)
    solution = round_decomposition(net, dec)
    assert solution.deficits.sorted_multiset() == (2, 1, 1)
    assert is_feasible(small_instance, solution.transfer)
    assert post_transfer_deficits(small_instance, solution.transfer) \
        == solution.deficits


def test_round_rounding_instance(rounding_instance):
    net, dec, _ = _aug(rounding_instance)
    solution = round_decomposition(net, dec)
    assert solution.deficits.sorted_multiset() == (5, 5, 4, 4, 4, 4, 4)
    # floor/ceiling bracket and exact block sums
    for school in dec.target.ids:
        assert solution.deficits[school] in (
            math.floor(dec.target[school]), math.ceil(dec.target[school]))
    assert solution.block_sums == (22, 8)


def test_round_integral_target_is_exact(chain_base_instance):
    result = solve(chain_base_instance)
    assert result.decomposition.target.is_integral
    assert result.deficits.values \
        == tuple(int(v) for v in result.decomposition.target.values)


def test_solve_small(small_instance):
    result = solve(small_instance)
    assert result.deficits.sorted_multiset() == (2, 1, 1)
    assert result.moved == 2
    assert set(result.timings) == {"network", "decompose", "round"}


def test_solve_chain_variants(chain_instance):
    extended = solve(chain_instance, "extended")
    assert extended.deficits.as_mapping() == {"d1": 3, "d2": 1}
    assert extended.transfer.destination("t3") == "s1"
    base = solve(chain_instance, "base")
    assert base.deficits.as_mapping() == {"d1": 4, "d2": 1}


def test_solve_chain_extended_matches_brute_force(chain_instance):
    """Independent check of the extended variant: enumerate every
    assignment over deficit and surplus destinations, filter with the
    public feasibility predicate, and compare dominance profiles."""
    from itertools import product

    from redeploy import Transfer, lorenz_dominates
    from redeploy.oracle import descending_prefix_sums

    instance = chain_instance
    options = []
    for teacher in instance.teachers:
        options.append([(teacher.id, d) for d in
                        sorted(teacher.acceptable) + ["STAY"]])
    outcomes = []
    for combo in product(*options):
        transfer = Transfer.from_mapping(dict(combo))
        if is_feasible(instance, transfer, allow_surplus_moves=True):
            after = post_transfer_deficits(instance, transfer,
                                           allow_surplus_moves=True)
            outcomes.append(after.values)
    assert (3, 1) in outcomes
    assert all(lorenz_dominates((3, 1), o) for o in outcomes)


def test_solve_extended_random_instances_match_brute_force():
    """Randomized extended-variant check: add surplus schools to some
    acceptable sets, then compare against full enumeration."""
    import random
    from itertools import product

    from redeploy import Instance, Teacher, Transfer, random_instance
    from redeploy.oracle import descending_prefix_sums

    rng = random.Random(2024)
    for _ in range(30):
        base = random_instance(rng.randrange(2 ** 32),
                               surplus=rng.randint(2, 3),
                               deficit=rng.randint(1, 3),
                               teachers=rng.randint(1, 4))
        teachers = []
        for teacher in base.teachers:
            extra = [s.id for s in base.surplus_schools
                     if s.id != teacher.origin and rng.random() < 0.4]
            teachers.append(Teacher(teacher.id, teacher.origin,
                                    teacher.acceptable | frozenset(extra)))
        instance = Instance(base.surplus_schools, base.deficit_schools,
                            tuple(teachers))

        outcomes = set()
        options = [[(t.id, d) for d in sorted(t.acceptable) + ["STAY"]]
                   for t in instance.teachers]
        for combo in product(*options):
            transfer = Transfer.from_mapping(dict(combo))
            if is_feasible(instance, transfer, allow_surplus_moves=True):
                after = post_transfer_deficits(instance, transfer,
                                               allow_surplus_moves=True)
                outcomes.add(descending_prefix_sums(after.values))

        result = solve(instance, "extended")
        ours = descending_prefix_sums(result.deficits.values)
        assert ours in outcomes
        assert all(all(x <= y for x, y in zip(ours, other))
                   for other in outcomes)


def test_solve_specialization_matches_brute_force(subjects_instance):
    """Typed variant against direct enumeration over position options."""
    from itertools import product

    from redeploy import Transfer
    from redeploy.oracle import descending_prefix_sums

    instance = subjects_instance
    options = []
    for teacher in instance.teachers:
        moves = list(instance.destination_positions(teacher)) \
            if instance.transferable(teacher) else []
        options.append([(teacher.id, p) for p in moves + ["STAY"]])
    profiles = []
    for combo in product(*options):
        transfer = Transfer.from_mapping(dict(combo))
        if is_feasible_typed(instance, transfer):
            after = post_transfer_deficits_typed(instance, transfer)
            profiles.append(descending_prefix_sums(after.values))
    result = solve(instance, "specialization")
    ours = descending_prefix_sums(result.deficits.values)
    assert ours in profiles
    assert all(all(x <= y for x, y in zip(ours, other))
               for other in profiles)


def test_solve_rejects_unknown_variant(small_instance):
    with pytest.raises(ValueError):
        solve(small_instance, "fancy")
    with pytest.raises(TypeError):
        solve(small_instance, "specialization")


def test_solve_specialization(subjects_instance):
    result = solve(subjects_instance, "specialization")
    assert is_feasible_typed(subjects_instance, result.transfer)
    assert post_transfer_deficits_typed(subjects_instance, result.transfer) \
        == result.deficits


def test_solve_all_stay_when_nothing_acceptable():
    # base variant drops surplus-only acceptable sets, leaving no moves
    instance = validate({
        "surplus_schools": [{"id": "s1", "alpha": 1},
                            {"id": "s2", "alpha": 1}],
        "deficit_schools": [{"id": "d1", "beta": 2}],
        "teachers": [{"id": "t1", "origin": "s1", "acceptable": ["s2"]}],
    })
    result = solve(instance)
    assert result.moved == 0
    assert result.deficits.values == (2,)
    assert result.transfer.destination("t1") == "STAY"


def test_block_sums_preserved_under_rounding(dominance_suite):
    for instance in dominance_suite[:60]:
        result = solve(instance)
        dec = result.decomposition
        for block, total in zip(dec.blocks, result.rounded.block_sums):
            assert sum(dec.target[i] for i in block) == total


def test_single_crossing_within_merged_blocks(dominance_suite):
    """Blocks whose floor/ceiling brackets coincide merge; inside a merged
    block the rounded vector takes at most two consecutive values."""
    for instance in dominance_suite[:60]:
        result = solve(instance)
        dec = result.decomposition
        merged = []
        for block, value in zip(dec.blocks, dec.block_values):
            bracket = (math.floor(value), math.ceil(value))
            if merged and merged[-1][0] == bracket:
                merged[-1] = (bracket, merged[-1][1] | block)
            else:
                merged.append((bracket, block))
        for (low, high), block in merged:
            got = {result.deficits[i] for i in block}
            assert got <= {low, high}
            assert high - low <= 1


def test_convex_loss_spot_check(small_instance):
    import math as m

    result = solve(small_instance)
    losses = [lambda x: x * x, lambda x: m.exp(x / 4)] + [
        (lambda c: (lambda x: max(0, x - c) ** 2))(c) for c in (0, 1, 2)]
    from tests.conftest import naive_enumerate

    ours = result.deficits.sorted_multiset()
    for transfer in naive_enumerate(small_instance):
        other = post_transfer_deficits(
            small_instance, transfer).sorted_multiset()
        for g in losses:
            assert sum(map(g, ours)) <= sum(map(g, other)) + 1e-9


def test_result_annotations_resolve():
    assert typing.get_type_hints(RoundedSolution)["transfer"] is Transfer
    assert typing.get_type_hints(SolveResult)["rounded"] is RoundedSolution
    assert typing.get_type_hints(SolveResult.transfer.fget)["return"] \
        is Transfer
