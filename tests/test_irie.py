"""Tests for repro.maximization.irie."""

import pytest

from repro.graphs.digraph import SocialGraph
from repro.graphs.generators import erdos_renyi_graph
from repro.maximization.irie import (
    irie_activation_probabilities,
    irie_ranks,
    irie_seeds,
)
from repro.probabilities.static import uniform_probabilities


@pytest.fixture()
def chain():
    return SocialGraph.from_edges([(0, 1), (1, 2), (2, 3)])


class TestRanks:
    def test_no_edges_all_ranks_one(self):
        graph = SocialGraph.from_edges([], nodes=[1, 2, 3])
        ranks = irie_ranks(graph, {})
        assert all(rank == pytest.approx(1.0) for rank in ranks.values())

    def test_source_outranks_sink(self, chain):
        probabilities = {edge: 0.5 for edge in chain.edges()}
        ranks = irie_ranks(chain, probabilities)
        assert ranks[0] > ranks[1] > ranks[2] > ranks[3]

    def test_chain_closed_form(self, chain):
        # With alpha a and edge probability p, the fixed point on a
        # chain is r(3) = 1, r(2) = 1 + a p, r(1) = 1 + a p (1 + a p)...
        alpha, p = 0.7, 0.5
        probabilities = {edge: p for edge in chain.edges()}
        ranks = irie_ranks(chain, probabilities, alpha=alpha, iterations=60)
        expected_two = 1.0 + alpha * p
        expected_one = 1.0 + alpha * p * expected_two
        assert ranks[3] == pytest.approx(1.0)
        assert ranks[2] == pytest.approx(expected_two)
        assert ranks[1] == pytest.approx(expected_one)

    def test_activated_node_rank_zero(self, chain):
        probabilities = {edge: 0.5 for edge in chain.edges()}
        ranks = irie_ranks(chain, probabilities, activation={0: 1.0})
        assert ranks[0] == pytest.approx(0.0)

    def test_invalid_alpha_raises(self, chain):
        with pytest.raises(ValueError):
            irie_ranks(chain, {}, alpha=1.0)

    def test_invalid_iterations_raises(self, chain):
        with pytest.raises(ValueError):
            irie_ranks(chain, {}, iterations=0)


class TestActivationProbabilities:
    def test_seeds_are_certain(self, chain):
        ap = irie_activation_probabilities(chain, {}, [0])
        assert ap[0] == 1.0
        assert ap[1] == 0.0

    def test_chain_products(self, chain):
        probabilities = {edge: 0.5 for edge in chain.edges()}
        ap = irie_activation_probabilities(chain, probabilities, [0])
        assert ap[1] == pytest.approx(0.5)
        assert ap[2] == pytest.approx(0.25)
        assert ap[3] == pytest.approx(0.125)

    def test_exact_on_trees(self):
        """Independence is exact when in-paths never share randomness."""
        from tests.helpers import exact_ic_spread

        graph = SocialGraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 4)])
        probabilities = {edge: 0.6 for edge in graph.edges()}
        ap = irie_activation_probabilities(graph, probabilities, [0])
        assert sum(ap.values()) == pytest.approx(
            exact_ic_spread(graph, probabilities, [0])
        )

    def test_independence_overestimates_on_shared_source(self):
        # 0 -> {1, 2} -> 3: both paths depend on 0's edges, but the two
        # in-arrivals at 3 are treated as independent => ap(3) here is
        # exact anyway because the paths are edge-disjoint; use a
        # diamond with correlated arrivals via a single intermediate.
        graph = SocialGraph.from_edges([(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
        probabilities = {edge: 0.9 for edge in graph.edges()}
        from tests.helpers import exact_ic_spread

        ap = irie_activation_probabilities(graph, probabilities, [0])
        exact = exact_ic_spread(graph, probabilities, [0])
        # The approximation is close but not exact on shared ancestry.
        assert sum(ap.values()) == pytest.approx(exact, rel=0.05)

    def test_unknown_seed_ignored(self, chain):
        ap = irie_activation_probabilities(chain, {}, ["ghost"])
        assert all(value == 0.0 for value in ap.values())


class TestSeeds:
    def test_chain_source_first(self, chain):
        probabilities = {edge: 0.9 for edge in chain.edges()}
        assert irie_seeds(chain, probabilities, 1) == [0]

    def test_covers_components(self):
        graph = SocialGraph.from_edges([(0, 1), (0, 2), (10, 11), (10, 12)])
        probabilities = {edge: 1.0 for edge in graph.edges()}
        seeds = irie_seeds(graph, probabilities, 2)
        assert set(seeds) == {0, 10}

    def test_shadowed_hub_skipped(self):
        # Hub B sits entirely downstream of hub A with certain edges;
        # after seeding A, B's audience is already activated.
        graph = SocialGraph.from_edges(
            [("A", "B"), ("B", "x1"), ("B", "x2"), ("B", "x3"),
             ("A", "y1"), ("A", "y2"),
             ("C", "z1"), ("C", "z2")]
        )
        probabilities = {edge: 1.0 for edge in graph.edges()}
        seeds = irie_seeds(graph, probabilities, 2)
        assert seeds[0] == "A"
        assert seeds[1] == "C"

    def test_k_zero(self, chain):
        assert irie_seeds(chain, {}, 0) == []

    def test_k_exceeds_nodes(self, chain):
        seeds = irie_seeds(chain, {}, 100)
        assert sorted(seeds) == [0, 1, 2, 3]

    def test_negative_k_raises(self, chain):
        with pytest.raises(ValueError):
            irie_seeds(chain, {}, -1)

    def test_deterministic(self):
        graph = erdos_renyi_graph(30, 0.15, seed=3)
        probabilities = uniform_probabilities(graph, 0.1)
        assert irie_seeds(graph, probabilities, 5) == irie_seeds(
            graph, probabilities, 5
        )

    def test_quality_close_to_celf(self):
        """IRIE seeds reach near-greedy spread under forward MC."""
        from repro.maximization.celf import celf_maximize
        from repro.runtime import SpreadEstimator

        graph = erdos_renyi_graph(25, 0.15, seed=9)
        probabilities = uniform_probabilities(graph, 0.2)
        oracle = SpreadEstimator(
            graph, probabilities, "ic", num_simulations=400, seed=0
        )
        celf = celf_maximize(oracle, 3)
        irie = irie_seeds(graph, probabilities, 3)
        assert oracle.spread(irie) >= 0.85 * celf.spread
