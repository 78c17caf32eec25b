"""Tests for repro.diffusion.ic (Independent Cascade)."""

import pytest

from repro.diffusion.ic import estimate_spread_ic
from repro.diffusion.worlds import sample_world_ic
from repro.graphs.digraph import SocialGraph
from repro.runtime import SpreadEstimator

from tests.helpers import exact_ic_spread


def cascade(graph, probabilities, seeds, seed=0, world=0):
    """One IC cascade: what ``seeds`` reach in world ``world`` of ``seed``.

    The set comes from the explicit world; the python engine must count
    the same reach while it walks that world's coins.
    """
    active = sample_world_ic(graph, probabilities, seed, world).reachable_from(
        seeds
    )
    engine = SpreadEstimator(graph, probabilities, "ic", backend="python").engine()
    assert engine.active_count(seeds, seed, range(world, world + 1)) == len(active)
    return active


class TestSimulateIC:
    """One IC cascade is reachability in one counter-keyed world."""

    def test_seeds_always_active(self):
        graph = SocialGraph.from_edges([(1, 2)])
        active = cascade(graph, {}, [1])
        assert 1 in active

    def test_unknown_seeds_ignored(self):
        graph = SocialGraph.from_edges([(1, 2)])
        active = cascade(graph, {}, [99])
        assert active == set()

    def test_probability_one_activates_whole_chain(self, chain_graph):
        probabilities = {edge: 1.0 for edge in chain_graph.edges()}
        active = cascade(chain_graph, probabilities, [0])
        assert active == {0, 1, 2, 3}

    def test_probability_zero_activates_only_seeds(self, chain_graph):
        probabilities = {edge: 0.0 for edge in chain_graph.edges()}
        active = cascade(chain_graph, probabilities, [0])
        assert active == {0}

    def test_missing_edges_never_propagate(self, chain_graph):
        active = cascade(chain_graph, {}, [0])
        assert active == {0}

    def test_activation_respects_edge_direction(self):
        graph = SocialGraph.from_edges([(1, 2)])
        active = cascade(graph, {(1, 2): 1.0}, [2])
        assert active == {2}

    def test_single_shot_semantics(self):
        # In IC each edge is tried at most once; a failed edge cannot
        # re-fire.  With p = 0.5 on one edge, activation of node 2 must
        # match the coin exactly over many trials.
        graph = SocialGraph.from_edges([(1, 2)])
        hits = sum(
            1
            for world in range(2000)
            if 2 in cascade(graph, {(1, 2): 0.5}, [1], seed=42, world=world)
        )
        assert 0.45 < hits / 2000 < 0.55


class TestEstimateSpreadIC:
    def test_matches_exact_enumeration_diamond(self, diamond_graph):
        probabilities = {edge: 0.5 for edge in diamond_graph.edges()}
        exact = exact_ic_spread(diamond_graph, probabilities, [0])
        estimate = estimate_spread_ic(
            diamond_graph, probabilities, [0], num_simulations=20000, seed=1
        )
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_matches_exact_enumeration_mixed_probabilities(self):
        graph = SocialGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        probabilities = {(0, 1): 0.9, (1, 2): 0.3, (0, 2): 0.2, (2, 3): 0.7}
        exact = exact_ic_spread(graph, probabilities, [0])
        estimate = estimate_spread_ic(
            graph, probabilities, [0], num_simulations=20000, seed=2
        )
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_empty_seed_set_spreads_zero(self, diamond_graph):
        probabilities = {edge: 0.5 for edge in diamond_graph.edges()}
        assert estimate_spread_ic(diamond_graph, probabilities, [], seed=1,
                                  num_simulations=10) == 0.0

    def test_deterministic_under_seed(self, diamond_graph):
        probabilities = {edge: 0.5 for edge in diamond_graph.edges()}
        first = estimate_spread_ic(
            diamond_graph, probabilities, [0], num_simulations=100, seed=3
        )
        second = estimate_spread_ic(
            diamond_graph, probabilities, [0], num_simulations=100, seed=3
        )
        assert first == second

    def test_monotone_in_seed_set(self, diamond_graph):
        probabilities = {edge: 0.3 for edge in diamond_graph.edges()}
        small = estimate_spread_ic(
            diamond_graph, probabilities, [0], num_simulations=5000, seed=4
        )
        large = estimate_spread_ic(
            diamond_graph, probabilities, [0, 3], num_simulations=5000, seed=4
        )
        assert large > small

    def test_invalid_simulation_count_raises(self, diamond_graph):
        with pytest.raises(ValueError):
            estimate_spread_ic(diamond_graph, {}, [0], num_simulations=0)
