"""Tests for repro.diffusion.lt (Linear Threshold)."""

import pytest

from repro.diffusion.lt import estimate_spread_lt, validate_lt_weights
from repro.diffusion.worlds import sample_world_lt
from repro.graphs.digraph import SocialGraph
from repro.runtime import SpreadEstimator

from tests.helpers import exact_lt_spread


def cascade(graph, weights, seeds, seed=0, world=0):
    """One LT cascade: what ``seeds`` reach in live-edge world ``world``.

    The set comes from the explicit world; the python engine must count
    the same reach while it walks that world's coins.
    """
    active = sample_world_lt(graph, weights, seed, world).reachable_from(seeds)
    engine = SpreadEstimator(graph, weights, "lt", backend="python").engine()
    assert engine.active_count(seeds, seed, range(world, world + 1)) == len(active)
    return active


class TestValidateWeights:
    def test_valid_weights_pass(self, diamond_graph):
        validate_lt_weights(diamond_graph, {(1, 3): 0.5, (2, 3): 0.5})

    def test_excess_incoming_weight_rejected(self, diamond_graph):
        with pytest.raises(ValueError, match="exceeds 1"):
            validate_lt_weights(diamond_graph, {(1, 3): 0.7, (2, 3): 0.7})

    def test_negative_weight_rejected(self, diamond_graph):
        with pytest.raises(ValueError, match="negative"):
            validate_lt_weights(diamond_graph, {(1, 3): -0.1})

    def test_tolerates_floating_point_sums(self, diamond_graph):
        validate_lt_weights(
            diamond_graph, {(1, 3): 0.1 + 0.2, (2, 3): 0.7}
        )  # 0.30000000000000004 + 0.7


class TestSimulateLT:
    """One LT cascade is reachability in one live-edge world."""

    def test_seeds_always_active(self):
        graph = SocialGraph.from_edges([(1, 2)])
        active = cascade(graph, {}, [1])
        assert active == {1}

    def test_weight_one_always_propagates(self):
        graph = SocialGraph.from_edges([(1, 2)])
        active = cascade(graph, {(1, 2): 1.0}, [1])
        assert active == {1, 2}

    def test_weight_zero_never_propagates(self):
        graph = SocialGraph.from_edges([(1, 2)])
        hits = sum(
            1
            for trial in range(200)
            if 2 in cascade(graph, {(1, 2): 0.0}, [1], world=trial)
        )
        assert hits == 0

    def test_activation_frequency_matches_weight(self):
        graph = SocialGraph.from_edges([(1, 2)])
        hits = sum(
            1
            for world in range(4000)
            if 2 in cascade(graph, {(1, 2): 0.3}, [1], seed=1, world=world)
        )
        assert 0.25 < hits / 4000 < 0.35

    def test_joint_pressure_activates(self, diamond_graph):
        # Both parents active with weights summing to 1: node 3 keeps
        # one of them as its live in-edge, so it always activates.
        weights = {(0, 1): 1.0, (0, 2): 1.0, (1, 3): 0.5, (2, 3): 0.5}
        active = cascade(diamond_graph, weights, [0], seed=2)
        assert active == {0, 1, 2, 3}

    def test_unknown_seed_ignored(self):
        graph = SocialGraph.from_edges([(1, 2)])
        assert cascade(graph, {}, [99]) == set()


class TestEstimateSpreadLT:
    def test_matches_exact_enumeration(self, diamond_graph):
        weights = {(0, 1): 0.6, (0, 2): 0.4, (1, 3): 0.5, (2, 3): 0.3}
        exact = exact_lt_spread(diamond_graph, weights, [0])
        estimate = estimate_spread_lt(
            diamond_graph, weights, [0], num_simulations=20000, seed=3
        )
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_matches_exact_on_chain(self, chain_graph):
        weights = {(0, 1): 0.8, (1, 2): 0.5, (2, 3): 0.25}
        exact = exact_lt_spread(chain_graph, weights, [0])
        estimate = estimate_spread_lt(
            chain_graph, weights, [0], num_simulations=20000, seed=4
        )
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_deterministic_under_seed(self, diamond_graph):
        weights = {(0, 1): 0.6, (0, 2): 0.4}
        first = estimate_spread_lt(
            diamond_graph, weights, [0], num_simulations=50, seed=5
        )
        second = estimate_spread_lt(
            diamond_graph, weights, [0], num_simulations=50, seed=5
        )
        assert first == second

    def test_monotone_in_seed_set(self, diamond_graph):
        weights = {(0, 1): 0.5, (0, 2): 0.5, (1, 3): 0.5, (2, 3): 0.5}
        small = estimate_spread_lt(
            diamond_graph, weights, [0], num_simulations=5000, seed=6
        )
        large = estimate_spread_lt(
            diamond_graph, weights, [0, 3], num_simulations=5000, seed=6
        )
        assert large > small

    def test_invalid_simulation_count_raises(self, diamond_graph):
        with pytest.raises(ValueError):
            estimate_spread_lt(diamond_graph, {}, [0], num_simulations=0)
