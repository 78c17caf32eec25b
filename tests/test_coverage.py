"""Tests for repro.core.coverage (seed minimization, the dual problem).

The decisive checks:

* the cover's seed sequence is exactly the greedy prefix that
  ``cd_maximize`` produces (same machinery, different stopping rule);
* the reported spread equals exact ``sigma_cd`` recomputation;
* the cover is greedy-minimal: dropping the last seed leaves the
  target uncovered;
* targets above the number of active users are correctly unreachable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coverage import cd_cover
from repro.core.maximize import cd_maximize
from repro.core.scan import scan_action_log
from repro.core.spread import CDSpreadEvaluator

from tests.helpers import random_instance


class TestCdCoverBasics:
    def test_zero_target_is_trivially_covered(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        result = cd_cover(index, target=0.0)
        assert result.reached
        assert result.seeds == []
        assert result.spread == 0.0
        assert result.oracle_calls == 0

    def test_negative_target_rejected(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        with pytest.raises(ValueError):
            cd_cover(index, target=-1.0)

    def test_negative_max_seeds_rejected(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        with pytest.raises(ValueError):
            cd_cover(index, target=1.0, max_seeds=-1)

    def test_small_target_needs_one_seed(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        best_single = cd_maximize(index, k=1)
        result = cd_cover(index, target=best_single.spread)
        assert result.reached
        assert result.seeds == best_single.seeds

    def test_spread_matches_exact_evaluator(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        result = cd_cover(index, target=3.0)
        evaluator = CDSpreadEvaluator(toy.graph, toy.log)
        assert result.spread == pytest.approx(evaluator.spread(result.seeds))

    def test_unreachable_target_reports_not_reached(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        ceiling = len(index.activity)
        result = cd_cover(index, target=ceiling + 1.0)
        assert not result.reached
        # It exhausted every profitable candidate trying.
        assert result.spread <= ceiling + 1e-9

    def test_max_seeds_caps_selection(self, flixster_mini):
        index = scan_action_log(flixster_mini.graph, flixster_mini.log)
        unbounded = cd_cover(index, target=1e9)
        capped = cd_cover(index, target=1e9, max_seeds=3)
        assert len(capped.seeds) == 3
        assert capped.seeds == unbounded.seeds[:3]
        assert not capped.reached

    def test_does_not_mutate_index_by_default(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        entries_before = index.total_entries
        cd_cover(index, target=2.0)
        assert index.total_entries == entries_before

    def test_mutate_consumes_index(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        result = cd_cover(index, target=2.0, mutate=True)
        for seed in result.seeds:
            assert list(index.row(seed)) == []

    def test_trajectory_is_cumulative_gains(self, flixster_mini):
        index = scan_action_log(flixster_mini.graph, flixster_mini.log)
        result = cd_cover(index, target=10.0)
        points = result.trajectory()
        assert len(points) == len(result.seeds)
        assert points[-1][1] == pytest.approx(result.spread)
        spreads = [spread for _, spread in points]
        assert spreads == sorted(spreads)


class TestCoverEqualsGreedyPrefix:
    @pytest.mark.parametrize("seed", range(5))
    def test_cover_is_a_cd_maximize_prefix(self, seed):
        graph, log = random_instance(seed)
        index = scan_action_log(graph, log, truncation=0.0)
        full = cd_maximize(index, k=len(index.activity))
        for target_fraction in (0.25, 0.5, 0.9):
            target = full.spread * target_fraction
            cover = cd_cover(index, target=target)
            assert cover.reached
            assert cover.seeds == full.seeds[: len(cover.seeds)]

    @pytest.mark.parametrize("seed", range(5))
    def test_cover_is_greedy_minimal(self, seed):
        """Dropping the last selected seed must leave the target uncovered."""
        graph, log = random_instance(seed)
        index = scan_action_log(graph, log, truncation=0.0)
        full = cd_maximize(index, k=len(index.activity))
        target = full.spread * 0.6
        cover = cd_cover(index, target=target)
        assert cover.reached
        assert cover.spread - cover.gains[-1] < target

    @pytest.mark.parametrize("seed", range(3))
    def test_gains_non_increasing(self, seed):
        graph, log = random_instance(seed)
        index = scan_action_log(graph, log, truncation=0.0)
        cover = cd_cover(index, target=5.0)
        for earlier, later in zip(cover.gains, cover.gains[1:]):
            assert later <= earlier + 1e-9


class TestCoverProperties:
    @given(
        instance_seed=st.integers(min_value=0, max_value=30),
        fraction=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_reached_iff_target_at_most_ceiling(self, instance_seed, fraction):
        """cd_cover reaches exactly the targets below the achievable max."""
        graph, log = random_instance(instance_seed, num_nodes=6, num_actions=4)
        index = scan_action_log(graph, log, truncation=0.0)
        ceiling = cd_maximize(index, k=len(index.activity)).spread
        target = ceiling * fraction
        result = cd_cover(index, target=target)
        assert result.reached == (result.spread >= target)
        if target <= ceiling + 1e-9:
            assert result.reached

    @given(instance_seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_target(self, instance_seed):
        """A larger target never needs fewer seeds."""
        graph, log = random_instance(instance_seed, num_nodes=6, num_actions=4)
        index = scan_action_log(graph, log, truncation=0.0)
        ceiling = cd_maximize(index, k=len(index.activity)).spread
        previous_count = 0
        for fraction in (0.2, 0.4, 0.6, 0.8, 1.0):
            result = cd_cover(index, target=ceiling * fraction)
            assert len(result.seeds) >= previous_count
            previous_count = len(result.seeds)
