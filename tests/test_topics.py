"""Tests for repro.core.topics (topic-conditional credit indices).

The decisive check is exactness: per-action credit independence means
the per-topic index must equal the index built by scanning only that
topic's actions — entry for entry, activity count for activity count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import CreditIndex
from repro.core.maximize import cd_maximize
from repro.core.scan import scan_action_log
from repro.core.topics import (
    partition_actions,
    scan_topics,
    topic_seed_sets,
    topic_specialization,
    topic_top_influencers,
)

from tests.helpers import random_instance


def _topic_of(action) -> str:
    """Deterministic two-way topic assignment by action name."""
    text = str(action)
    return "even" if len(text) % 2 == 0 else "odd"


def _assert_indices_equal(left: CreditIndex, right: CreditIndex) -> None:
    assert left.activity == right.activity
    assert left.total_entries == right.total_entries
    for influencer, action, influenced, value in left.entries():
        assert right.credit(influencer, action, influenced) == pytest.approx(
            value, abs=1e-12
        )


class TestPartitionActions:
    def test_partition_is_exhaustive_and_disjoint(self, toy):
        groups = partition_actions(toy.log, _topic_of)
        seen = [action for actions in groups.values() for action in actions]
        assert sorted(map(str, seen)) == sorted(map(str, toy.log.actions()))
        assert len(seen) == len(set(seen))

    def test_topics_follow_the_labelling(self, toy):
        groups = partition_actions(toy.log, _topic_of)
        for topic, actions in groups.items():
            for action in actions:
                assert _topic_of(action) == topic


class TestScanTopicsExactness:
    def test_matches_per_subset_scan(self, toy):
        indices = scan_topics(toy.graph, toy.log, _topic_of, truncation=0.0)
        groups = partition_actions(toy.log, _topic_of)
        for topic, actions in groups.items():
            reference = scan_action_log(
                toy.graph, toy.log, truncation=0.0, actions=actions
            )
            _assert_indices_equal(indices[topic], reference)

    @given(instance_seed=st.integers(min_value=0, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_matches_per_subset_scan_on_random_instances(self, instance_seed):
        graph, log = random_instance(instance_seed, num_nodes=7, num_actions=6)
        indices = scan_topics(graph, log, _topic_of, truncation=0.0)
        for topic, actions in partition_actions(log, _topic_of).items():
            reference = scan_action_log(
                graph, log, truncation=0.0, actions=actions
            )
            _assert_indices_equal(indices[topic], reference)

    def test_single_topic_recovers_global_index(self, toy):
        indices = scan_topics(
            toy.graph, toy.log, lambda action: "all", truncation=0.0
        )
        reference = scan_action_log(toy.graph, toy.log, truncation=0.0)
        assert list(indices) == ["all"]
        _assert_indices_equal(indices["all"], reference)

    def test_activity_is_per_topic(self, toy):
        """A_u in a topic index counts only that topic's actions."""
        indices = scan_topics(toy.graph, toy.log, _topic_of, truncation=0.0)
        whole = scan_action_log(toy.graph, toy.log, truncation=0.0)
        for user, total in whole.activity.items():
            split_total = sum(
                index.activity.get(user, 0) for index in indices.values()
            )
            assert split_total == total

    def test_truncation_forwarded(self, flixster_mini):
        coarse = scan_topics(
            flixster_mini.graph, flixster_mini.log, _topic_of, truncation=0.1
        )
        fine = scan_topics(
            flixster_mini.graph, flixster_mini.log, _topic_of, truncation=0.0001
        )
        for topic in coarse:
            assert coarse[topic].total_entries <= fine[topic].total_entries


class TestTopicAnalytics:
    def test_topic_seed_sets_match_per_index_maximization(self, toy):
        indices = scan_topics(toy.graph, toy.log, _topic_of, truncation=0.0)
        results = topic_seed_sets(indices, k=2)
        assert set(results) == set(indices)
        for topic, result in results.items():
            reference = cd_maximize(indices[topic], k=2)
            assert result.seeds == reference.seeds
            assert result.spread == pytest.approx(reference.spread)

    def test_leaderboards_are_sorted_and_capped(self, flixster_mini):
        indices = scan_topics(
            flixster_mini.graph, flixster_mini.log, _topic_of
        )
        boards = topic_top_influencers(indices, limit=5)
        for board in boards.values():
            assert len(board) <= 5
            scores = [score for _, score in board]
            assert scores == sorted(scores, reverse=True)

    def test_specialization_zero_for_identical_sets(self):
        assert topic_specialization({"a": [1, 2], "b": [2, 1]}) == 0.0

    def test_specialization_one_for_disjoint_sets(self):
        assert topic_specialization({"a": [1, 2], "b": [3, 4]}) == 1.0

    def test_specialization_trivial_below_two_topics(self):
        assert topic_specialization({}) == 0.0
        assert topic_specialization({"a": [1, 2, 3]}) == 0.0

    def test_specialization_between_zero_and_one(self, flixster_mini):
        indices = scan_topics(
            flixster_mini.graph, flixster_mini.log, _topic_of
        )
        results = topic_seed_sets(indices, k=5)
        value = topic_specialization(
            {topic: result.seeds for topic, result in results.items()}
        )
        assert 0.0 <= value <= 1.0

    def test_specialization_of_empty_sets_is_zero(self):
        """Two empty seed sets agree vacuously (Jaccard of empties = 1)."""
        assert topic_specialization({"a": [], "b": []}) == 0.0
