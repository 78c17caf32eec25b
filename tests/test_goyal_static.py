"""Tests for repro.probabilities.goyal (static influence models)."""

import pytest

from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.probabilities.goyal import (
    bernoulli_probabilities,
    jaccard_probabilities,
    learn_static_probabilities,
    partial_credit_probabilities,
)
from tests.helpers import random_instance


@pytest.fixture()
def simple_instance():
    """1 -> 2 with three actions; two of them propagate."""
    graph = SocialGraph.from_edges([(1, 2)])
    log = ActionLog.from_tuples(
        [
            (1, "a", 0.0),
            (2, "a", 1.0),  # propagated
            (1, "b", 0.0),
            (2, "b", 1.0),  # propagated
            (1, "c", 0.0),  # user 2 never performed c
        ]
    )
    return graph, log


class TestBernoulli:
    def test_success_rate(self, simple_instance):
        graph, log = simple_instance
        probabilities = bernoulli_probabilities(graph, log)
        # 2 propagations over A_1 = 3 trials.
        assert probabilities[(1, 2)] == pytest.approx(2 / 3)

    def test_no_propagation_no_entry(self):
        graph = SocialGraph.from_edges([(1, 2)])
        log = ActionLog.from_tuples([(2, "a", 0.0), (1, "a", 1.0)])
        # Propagation went 2 -> 1 in time, but there is no edge 2 -> 1.
        assert bernoulli_probabilities(graph, log) == {}

    def test_capped_at_one(self):
        # Single action, single propagation: p = 1/1 = 1.0, never above.
        graph = SocialGraph.from_edges([(1, 2)])
        log = ActionLog.from_tuples([(1, "a", 0.0), (2, "a", 1.0)])
        assert bernoulli_probabilities(graph, log)[(1, 2)] == 1.0

    def test_support_one_pathology_present(self):
        """The Section-6 pathology: one viral action yields probability 1.

        This is exactly why the paper's Figure-6 analysis finds IC
        seeding rarely-active users — the static Bernoulli model shares
        EM's failure mode, which the CD model avoids by normalising per
        influenced user.
        """
        graph = SocialGraph.from_edges([("rare", f"f{i}") for i in range(5)])
        tuples = [("rare", "hit", 0.0)]
        tuples += [(f"f{i}", "hit", 1.0 + i) for i in range(5)]
        log = ActionLog.from_tuples(tuples)
        probabilities = bernoulli_probabilities(graph, log)
        assert all(
            probabilities[("rare", f"f{i}")] == 1.0 for i in range(5)
        )


class TestJaccard:
    def test_union_normalisation(self, simple_instance):
        graph, log = simple_instance
        probabilities = jaccard_probabilities(graph, log)
        # A_{1|2} = 3 + 2 - 2 = 3; two propagations.
        assert probabilities[(1, 2)] == pytest.approx(2 / 3)

    def test_discounts_active_pairs_vs_bernoulli(self):
        # u performs many unrelated actions: Jaccard <= Bernoulli.
        graph = SocialGraph.from_edges([(1, 2)])
        tuples = [(1, "a", 0.0), (2, "a", 1.0)]
        tuples += [(2, f"solo{i}", 0.0) for i in range(8)]
        log = ActionLog.from_tuples(tuples)
        jaccard = jaccard_probabilities(graph, log)[(1, 2)]
        bernoulli = bernoulli_probabilities(graph, log)[(1, 2)]
        assert jaccard < bernoulli
        # A_{1|2} = 1 + 9 - 1 = 9 (user 2's solo actions inflate the union).
        assert jaccard == pytest.approx(1 / 9)


class TestPartialCredits:
    def test_share_split_among_parents(self):
        # Both 1 and 2 precede 3: each gets a half observation.
        graph = SocialGraph.from_edges([(1, 3), (2, 3)])
        log = ActionLog.from_tuples(
            [(1, "a", 0.0), (2, "a", 0.5), (3, "a", 1.0)]
        )
        probabilities = partial_credit_probabilities(graph, log)
        assert probabilities[(1, 3)] == pytest.approx(0.5)
        assert probabilities[(2, 3)] == pytest.approx(0.5)

    def test_single_parent_full_credit(self, simple_instance):
        graph, log = simple_instance
        probabilities = partial_credit_probabilities(graph, log)
        assert probabilities[(1, 2)] == pytest.approx(2 / 3)

    def test_never_exceeds_bernoulli(self):
        graph, log = random_instance(seed=5, num_nodes=10, num_actions=8)
        partial = partial_credit_probabilities(graph, log)
        bernoulli = bernoulli_probabilities(graph, log)
        for edge, value in partial.items():
            assert value <= bernoulli[edge] + 1e-12


class TestDispatch:
    def test_known_methods(self, simple_instance):
        graph, log = simple_instance
        for method in ("bernoulli", "jaccard", "partial-credits"):
            probabilities = learn_static_probabilities(graph, log, method)
            assert (1, 2) in probabilities

    def test_unknown_method_raises(self, simple_instance):
        graph, log = simple_instance
        with pytest.raises(ValueError, match="unknown static model"):
            learn_static_probabilities(graph, log, "magic")

    def test_all_values_are_probabilities(self):
        graph, log = random_instance(seed=2, num_nodes=12, num_actions=10)
        for method in ("bernoulli", "jaccard", "partial-credits"):
            for value in learn_static_probabilities(
                graph, log, method
            ).values():
                assert 0.0 < value <= 1.0

    def test_edges_are_graph_edges(self):
        graph, log = random_instance(seed=9)
        for edge in bernoulli_probabilities(graph, log):
            assert graph.has_edge(*edge)

    def test_usable_by_ic_oracle(self, simple_instance):
        from repro.runtime import SpreadEstimator

        graph, log = simple_instance
        oracle = SpreadEstimator(
            graph,
            bernoulli_probabilities(graph, log),
            "ic",
            num_simulations=200,
            seed=1,
        )
        spread = oracle.spread([1])
        assert 1.0 <= spread <= 2.0
