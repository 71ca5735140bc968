"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with its runtime; tolerances are exact
(integer or rational equality) except where a float convex-loss probe gets
an explicit 1e-9 slack.  The randomized suites are seeded and shared with
the unit tests through the session fixtures.
"""

import math
import time
from fractions import Fraction

from redeploy import DeficitVector, FlowGame, audit_strategy_proofness, \
    blocking_coalition, brute_force_lorenz_dominant, build_base_network, \
    check_supermodular, decompose, descending_prefix_sums, is_achievable, \
    max_flow, solve, unstable_select_transfer
from redeploy.oracle import average_marginal_maximizers, iter_outcomes


class _clock:
    def __init__(self, number, label, budget):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} ({self.label}): {status} "
              f"in {elapsed:.2f}s (budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"criterion {self.number} exceeded its runtime budget"


def test_criterion_1_small_example_reproduction(small_instance):
    with _clock(1, "small example reproduction", 1.0):
        result = solve(small_instance)
        assert result.decomposition.target.values \
            == (Fraction(1), Fraction(3, 2), Fraction(3, 2))
        assert result.deficits.sorted_multiset() == (2, 1, 1)
        value, _ = max_flow(build_base_network(small_instance))
        assert value == 2 == result.moved


def test_criterion_2_rounding_example_reproduction(rounding_instance):
    with _clock(2, "fractional rounding reproduction", 5.0):
        game = FlowGame(build_base_network(rounding_instance))
        first_block = ["d1", "d2", "d3", "d4", "d5"]
        assert game.worth(first_block) == 22
        assert Fraction(game.worth(first_block), 5) == Fraction(22, 5)
        assert game.worth(first_block + ["d6"]) - 22 == 3
        assert game.worth(first_block + ["d7"]) - 22 == 4
        assert Fraction(game.worth(game.universe) - 22, 2) == Fraction(4)

        result = solve(rounding_instance)
        dec = result.decomposition
        assert [sorted(b) for b in dec.blocks] == [first_block, ["d6", "d7"]]
        assert set(dec.target.values) == {Fraction(22, 5), Fraction(4)}
        assert result.deficits.sorted_multiset() == (5, 5, 4, 4, 4, 4, 4)

        # rounded vector satisfies the consistency conditions exactly
        for school in dec.target.ids:
            assert result.deficits[school] in (
                math.floor(dec.target[school]),
                math.ceil(dec.target[school]))
        cumulative = 0
        for total, worth in zip(result.rounded.block_sums, dec.block_worths):
            cumulative += total
            assert cumulative == worth
        assert is_achievable(result.deficits, game)


def test_criterion_3_bad_rounding_rejection(rounding_instance):
    with _clock(3, "bad rounding rejection", 5.0):
        game = FlowGame(build_base_network(rounding_instance))
        bad = DeficitVector.from_mapping(
            {"d1": 5, "d2": 5, "d3": 4, "d4": 4, "d5": 4, "d6": 4, "d7": 4},
            rounding_instance.deficit_ids)
        assert not is_achievable(bad, game)
        witness = blocking_coalition(bad, game)
        assert witness == frozenset({"d3", "d4", "d5"})
        assert game.worth(witness) == 13
        assert bad.total(witness) == 12


def test_criterion_4_extension_reproduction(chain_instance):
    with _clock(4, "surplus-chain extension reproduction", 1.0):
        extended = solve(chain_instance, "extended")
        assert extended.deficits.as_mapping() == {"d1": 3, "d2": 1}
        base = solve(chain_instance, "base")
        assert base.deficits.as_mapping() == {"d1": 4, "d2": 1}


def test_criterion_5_oracle_dominance_suite(dominance_suite):
    with _clock(5, "oracle dominance suite (200 instances)", 120.0):
        failures = 0
        for instance in dominance_suite:
            result = solve(instance)
            ours = result.deficits.sorted_multiset()
            expected, _ = brute_force_lorenz_dominant(instance)
            if ours != expected:
                failures += 1
                continue
            prefix = descending_prefix_sums(ours)
            for _, deficits in iter_outcomes(instance):
                other = descending_prefix_sums(deficits)
                if not all(x <= y for x, y in zip(prefix, other)):
                    failures += 1
                    break
        assert failures == 0


def test_criterion_6_supermodularity_suite(game_suite):
    with _clock(6, "supermodular worth / submodular inflow suite", 60.0):
        failures = 0
        for instance in game_suite:
            network = build_base_network(instance)
            game = FlowGame(network)
            ok, witness = check_supermodular(game)
            if not ok:
                failures += 1
                continue
            size = len(instance.deficit_ids)
            value = game.v_for_mask
            for b in range(1 << size):
                for k in range(size):
                    bit = 1 << k
                    if b & bit:
                        continue
                    if value(b | bit) < value(b):
                        failures += 1
                    a = (b - 1) & b
                    while True:
                        if value(a | bit) - value(a) \
                                < value(b | bit) - value(b):
                            failures += 1
                        if a == 0:
                            break
                        a = (a - 1) & b
        assert failures == 0


def test_criterion_7_decomposition_invariants(dominance_suite, game_suite):
    with _clock(7, "decomposition invariant suite", 120.0):
        for instance in list(dominance_suite) + list(game_suite):
            game = FlowGame(build_base_network(instance))
            # the union-closure assertion inside raises on violation
            dec = decompose(game)
            previous_mask: frozenset = frozenset()
            previous_worth = 0
            previous_value = None
            for block, worth in zip(dec.blocks, dec.block_worths):
                placed = previous_mask | block
                assert worth == game.worth(placed)
                value = Fraction(worth - previous_worth, len(block))
                for school in block:
                    assert dec.target[school] == value
                assert sum(dec.target[s] for s in placed) == worth
                if previous_value is not None:
                    assert value <= previous_value
                # tie-break soundness re-checked explicitly per step
                best, maximizers = average_marginal_maximizers(
                    game, previous_mask)
                assert best == value
                union = frozenset().union(*maximizers)
                assert union == block
                assert Fraction(game.worth(previous_mask | union)
                                - previous_worth, len(union)) == best
                previous_mask = placed
                previous_worth = worth
                previous_value = value


def test_criterion_8_convex_loss_spot_check(dominance_suite):
    with _clock(8, "convex loss spot check", 120.0):
        losses = [lambda x: x * x, lambda x: math.exp(x / 4),
                  lambda x: max(0, x - 0) ** 2, lambda x: max(0, x - 1) ** 2,
                  lambda x: max(0, x - 2) ** 2]
        failures = 0
        for instance in dominance_suite:
            ours = solve(instance).deficits.sorted_multiset()
            our_losses = [sum(map(g, ours)) for g in losses]
            for _, deficits in iter_outcomes(instance):
                other = sorted(deficits, reverse=True)
                for mine, g in zip(our_losses, losses):
                    if mine > sum(map(g, other)) + 1e-9:
                        failures += 1
        assert failures == 0


def test_criterion_9_strategy_proofness_suite(audit_suite, small_instance):
    with _clock(9, "strategy-proofness suite (100 instances)", 300.0):
        violations = 0
        for instance in audit_suite:
            report = audit_strategy_proofness(instance, misreports="all")
            violations += len(report.violations)
        assert violations == 0

        def broken(instance, profile=None, **kwargs):
            return unstable_select_transfer(instance, profile, seed=0,
                                            **kwargs)

        # negative control: the profile-dependent selector must be caught
        # on the instance with a three-way tie among dominant transfers
        control = audit_strategy_proofness(small_instance, selector=broken)
        assert len(control.violations) >= 1
