"""Tests for repro.core.maximize (Algorithms 3-5).

The decisive correctness checks:

* the Theorem-3 marginal gains computed from the incremental index equal
  brute-force recomputation ``sigma_cd(S + x) - sigma_cd(S)``;
* the full CD maximizer selects the same seeds (with the same spread) as
  generic CELF running over the exact sigma_cd evaluator.
"""

import pytest

from repro.core.credit import TimeDecayCredit
from repro.core.index import SeedCredits
from repro.core.maximize import _absorb_seed, cd_maximize, marginal_gain
from repro.core.params import learn_influenceability
from repro.core.scan import scan_action_log
from repro.core.spread import CDSpreadEvaluator
from repro.maximization.celf import celf_maximize

from tests.helpers import (
    flat_credits,
    nested_credits,
    random_instance,
    reference_absorb_seed,
)


class TestMarginalGain:
    def test_initial_gain_equals_singleton_spread(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        evaluator = CDSpreadEvaluator(toy.graph, toy.log)
        credits = SeedCredits()
        for user in index.users():
            assert marginal_gain(index, credits, user) == pytest.approx(
                evaluator.spread([user]), abs=1e-10
            )

    def test_inactive_user_gain_zero(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        assert marginal_gain(index, SeedCredits(), "stranger") == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_gains_match_brute_force_along_greedy_path(self, seed):
        """Every selected gain equals sigma_cd(S+x) - sigma_cd(S)."""
        graph, log = random_instance(seed)
        index = scan_action_log(graph, log, truncation=0.0)
        evaluator = CDSpreadEvaluator(graph, log)
        result = cd_maximize(index, k=4)
        running = []
        previous_spread = 0.0
        for chosen, gain in zip(result.seeds, result.gains):
            running.append(chosen)
            spread_now = evaluator.spread(running)
            assert gain == pytest.approx(spread_now - previous_spread, abs=1e-9), (
                seed,
                chosen,
            )
            previous_spread = spread_now


class TestCDMaximize:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_generic_celf_over_exact_evaluator(self, seed):
        graph, log = random_instance(seed)
        index = scan_action_log(graph, log, truncation=0.0)
        fast = cd_maximize(index, k=4)
        reference = celf_maximize(CDSpreadEvaluator(graph, log), k=4)
        assert fast.spread == pytest.approx(reference.spread, abs=1e-9)
        # Seed identity can differ only on exact gain ties; spreads of
        # prefixes must agree.
        evaluator = CDSpreadEvaluator(graph, log)
        for prefix in range(1, 5):
            assert evaluator.spread(fast.seeds[:prefix]) == pytest.approx(
                evaluator.spread(reference.seeds[:prefix]), abs=1e-9
            )

    def test_spread_equals_exact_evaluation(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        result = cd_maximize(index, k=2)
        evaluator = CDSpreadEvaluator(toy.graph, toy.log)
        assert result.spread == pytest.approx(evaluator.spread(result.seeds))

    def test_gains_non_increasing(self, flixster_mini):
        index = scan_action_log(
            flixster_mini.graph, flixster_mini.log, truncation=0.0
        )
        result = cd_maximize(index, k=10)
        for earlier, later in zip(result.gains, result.gains[1:]):
            assert later <= earlier + 1e-9

    def test_default_does_not_mutate_index(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        before = index.total_entries
        cd_maximize(index, k=3)
        assert index.total_entries == before

    def test_mutate_consumes_index(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        before = index.total_entries
        cd_maximize(index, k=3, mutate=True)
        assert index.total_entries < before

    def test_k_zero(self, toy):
        index = scan_action_log(toy.graph, toy.log)
        result = cd_maximize(index, k=0)
        assert result.seeds == []
        assert result.spread == 0.0

    def test_k_exceeds_users(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        result = cd_maximize(index, k=100)
        assert len(result.seeds) == 6  # every log user eventually selected

    def test_negative_k_raises(self, toy):
        index = scan_action_log(toy.graph, toy.log)
        with pytest.raises(ValueError):
            cd_maximize(index, k=-1)

    def test_seeds_distinct(self, flixster_mini):
        index = scan_action_log(flixster_mini.graph, flixster_mini.log)
        seeds = cd_maximize(index, k=20).seeds
        assert len(seeds) == len(set(seeds))

    def test_time_log(self, flixster_mini):
        index = scan_action_log(flixster_mini.graph, flixster_mini.log)
        times = []
        cd_maximize(index, k=5, time_log=times)
        assert [count for count, _ in times] == [1, 2, 3, 4, 5]

    def test_first_seed_is_best_singleton(self, flixster_mini):
        index = scan_action_log(
            flixster_mini.graph, flixster_mini.log, truncation=0.0
        )
        evaluator = CDSpreadEvaluator(flixster_mini.graph, flixster_mini.log)
        result = cd_maximize(index, k=1)
        best = max(evaluator.candidates(), key=lambda u: evaluator.spread([u]))
        assert evaluator.spread(result.seeds) == pytest.approx(
            evaluator.spread([best]), abs=1e-9
        )

    def test_truncated_index_still_selects_reasonable_seeds(self, flixster_mini):
        exact_index = scan_action_log(
            flixster_mini.graph, flixster_mini.log, truncation=0.0
        )
        truncated_index = scan_action_log(
            flixster_mini.graph, flixster_mini.log, truncation=0.001
        )
        evaluator = CDSpreadEvaluator(flixster_mini.graph, flixster_mini.log)
        exact = cd_maximize(exact_index, k=10)
        truncated = cd_maximize(truncated_index, k=10)
        exact_spread = evaluator.spread(exact.seeds)
        truncated_spread = evaluator.spread(truncated.seeds)
        assert truncated_spread >= 0.95 * exact_spread


def _absorber(index, backend):
    """``(absorb, seed_credits)`` of one engine over ``index``: the
    python engine's ``_absorb_seed``, or the numpy engine (``None``
    without NumPy)."""
    if backend == "python":
        credits = SeedCredits()
        return (lambda seed: _absorb_seed(index, credits, seed)), (
            lambda: credits
        )
    try:
        from repro.kernels.cd_numpy import CDEngine
    except ImportError:
        return None
    engine = CDEngine(index)
    return engine.absorb, engine.seed_credits


class TestLemma2Discount:
    """Both engines' Lemma-2 and Lemma-3 updates leave exactly the
    per-entry oracle's state."""

    @staticmethod
    def _missing_pairs(credits, seed):
        """``(v, a, u)`` decrements of ``seed`` with no stored entry."""
        return sum(
            target not in by_action[action]
            for action, targets in credits.get(seed, {}).items()
            for by_action in credits.values()
            if seed in by_action.get(action, {})
            for target in targets
        )

    def _absorb_both(self, index, k):
        """Absorb cd's first ``k`` seeds into copies of ``index`` with
        each engine and into the nested-dict oracle, comparing after
        each.

        Returns how many decrements found no entry to discount.
        """
        seeds = cd_maximize(index, k=k).seeds
        for backend in ("python", "numpy"):
            fast = index.copy()
            engine = _absorber(fast, backend)
            if engine is None:
                continue
            absorb, seed_credits = engine
            slow, slow_credits = nested_credits(index), SeedCredits()
            missing = 0
            for seed in seeds:
                missing += self._missing_pairs(slow, seed)
                absorb(seed)
                reference_absorb_seed(slow, slow_credits, seed)
                fast_credits = seed_credits()
                assert list(fast.entries()) == flat_credits(slow), backend
                assert fast.total_entries == len(flat_credits(slow))
                assert list(fast_credits._credits.items()) == list(
                    slow_credits._credits.items()
                )
                assert list(fast_credits._sums.items()) == list(
                    slow_credits._sums.items()
                )
        return missing

    @pytest.mark.parametrize("truncation", [0.0, 0.05, 0.2])
    def test_random_instances(self, truncation):
        missing = 0
        for seed in range(8):
            graph, log = random_instance(seed, num_nodes=10, num_actions=8)
            index = scan_action_log(graph, log, truncation=truncation)
            missing += self._absorb_both(index, k=6)
        if truncation > 0.0:
            # Truncation leaves some decrements without an entry to hit.
            assert missing > 0

    def test_flixster_mini(self, flixster_mini):
        credit = TimeDecayCredit(
            learn_influenceability(flixster_mini.graph, flixster_mini.log)
        )
        index = scan_action_log(
            flixster_mini.graph, flixster_mini.log, credit=credit,
            truncation=0.001,
        )
        assert self._absorb_both(index, k=15) > 0
