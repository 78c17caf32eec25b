"""Tests for repro.diffusion.worlds (possible-world semantics, Eq. 1-4).

World ``i`` of a seed is built here explicitly from the counter-keyed
coins; the Monte-Carlo engines walk the same coins.  So beyond the
world distributions themselves, these tests hold both engines to the
worlds exactly: estimate for estimate and world by world, and the
sketches too: unbounded sketch ``i`` is reverse reachability in world
``i``.
"""

import pytest

import repro.kernels as kernels
from repro.core.sketch import generate_sketches
from repro.diffusion.ic import estimate_spread_ic
from repro.diffusion.lt import estimate_spread_lt
from repro.diffusion.worlds import (
    estimate_spread_via_worlds,
    sample_world_ic,
    sample_world_lt,
    spread_in_world,
)
from repro.graphs.digraph import SocialGraph
from repro.runtime import SpreadEstimator

BACKENDS = ["python"] + (
    ["numpy"] if "numpy" in kernels.available_backends() else []
)
SAMPLERS = {"ic": sample_world_ic, "lt": sample_world_lt}


class TestSampleWorldIC:
    def test_world_edges_subset_of_graph(self, diamond_graph):
        probabilities = {edge: 0.5 for edge in diamond_graph.edges()}
        world = sample_world_ic(diamond_graph, probabilities, 1, 0)
        for edge in world.edges():
            assert diamond_graph.has_edge(*edge)

    def test_probability_one_keeps_all_edges(self, diamond_graph):
        probabilities = {edge: 1.0 for edge in diamond_graph.edges()}
        world = sample_world_ic(diamond_graph, probabilities, 1, 0)
        assert world.num_edges == diamond_graph.num_edges

    def test_probability_zero_keeps_no_edges(self, diamond_graph):
        world = sample_world_ic(diamond_graph, {}, 1, 0)
        assert world.num_edges == 0

    def test_all_nodes_preserved(self, diamond_graph):
        world = sample_world_ic(diamond_graph, {}, 1, 0)
        assert world.num_nodes == diamond_graph.num_nodes


class TestSampleWorldLT:
    def test_at_most_one_incoming_edge_per_node(self, diamond_graph):
        weights = {(0, 1): 1.0, (0, 2): 1.0, (1, 3): 0.5, (2, 3): 0.5}
        for index in range(50):
            world = sample_world_lt(diamond_graph, weights, 0, index)
            for node in world.nodes():
                assert world.in_degree(node) <= 1

    def test_edge_selected_with_weight_frequency(self):
        graph = SocialGraph.from_edges([(1, 3), (2, 3)])
        weights = {(1, 3): 0.7, (2, 3): 0.2}
        from_one = sum(
            1
            for index in range(5000)
            if sample_world_lt(graph, weights, 7, index).has_edge(1, 3)
        )
        assert 0.65 < from_one / 5000 < 0.75


class TestSpreadEquivalence:
    def test_ic_world_estimate_matches_simulation(self, diamond_graph):
        """Eq. 1 (possible worlds) and direct simulation agree exactly."""
        probabilities = {edge: 0.4 for edge in diamond_graph.edges()}
        via_worlds = estimate_spread_via_worlds(
            diamond_graph, probabilities, [0], model="ic",
            num_worlds=2000, seed=8,
        )
        for backend in BACKENDS:
            assert via_worlds == estimate_spread_ic(
                diamond_graph, probabilities, [0], num_simulations=2000,
                seed=8, backend=backend,
            )

    def test_lt_live_edge_equivalence(self, diamond_graph):
        """Kempe et al.'s live-edge construction equals threshold LT.

        On the diamond, 1 and 2 activate independently, so threshold LT
        gives node 3 probability ``b(1,3) p(1) + b(2,3) p(2)``.
        """
        weights = {(0, 1): 0.6, (0, 2): 0.4, (1, 3): 0.5, (2, 3): 0.3}
        threshold_spread = 1 + 0.6 + 0.4 + (0.5 * 0.6 + 0.3 * 0.4)
        via_worlds = estimate_spread_via_worlds(
            diamond_graph, weights, [0], model="lt", num_worlds=20000, seed=10
        )
        assert via_worlds == pytest.approx(threshold_spread, rel=0.05)
        assert via_worlds == estimate_spread_lt(
            diamond_graph, weights, [0], num_simulations=20000, seed=10
        )

    def test_spread_in_world_counts_reachable(self, chain_graph):
        assert spread_in_world(chain_graph, [0]) == 4
        assert spread_in_world(chain_graph, [2]) == 2

    def test_unknown_model_raises(self, diamond_graph):
        with pytest.raises(ValueError, match="model"):
            estimate_spread_via_worlds(diamond_graph, {}, [0], model="nope")

    def test_invalid_world_count_raises(self, diamond_graph):
        with pytest.raises(ValueError):
            estimate_spread_via_worlds(diamond_graph, {}, [0], num_worlds=0)


@pytest.fixture(scope="module")
def network(flixster_mini):
    from repro.api import SelectionContext

    context = SelectionContext(flixster_mini.graph, flixster_mini.log)
    graph = flixster_mini.graph
    seeds = sorted(graph.nodes(), key=lambda n: -graph.out_degree(n))[:4]
    values = {"ic": context.ic_probabilities("EM"), "lt": context.lt_weights()}
    return graph, values, seeds


class TestEnginesWalkTheWorlds:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_world_by_world(self, network, model, backend):
        graph, values, seeds = network
        engine = SpreadEstimator(
            graph, values[model], model, backend=backend
        ).engine()
        for index in range(25):
            world = SAMPLERS[model](graph, values[model], 5, index)
            assert engine.active_count(
                seeds, 5, range(index, index + 1)
            ) == spread_in_world(world, seeds)

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_estimate_equals_worlds(self, network, model):
        graph, values, seeds = network
        assert estimate_spread_via_worlds(
            graph, values[model], seeds, model=model, num_worlds=30, seed=2
        ) == SpreadEstimator(graph, values[model], model, 30, seed=2).spread(
            seeds
        )

    def test_unbounded_sketch_is_reverse_reach_in_its_world(self, network):
        graph, values, _ = network
        probabilities = values["ic"]
        sketches = generate_sketches(graph, probabilities, 30, seed=17)
        for index in range(sketches.num_sketches):
            world = sample_world_ic(graph, probabilities, 17, index)
            target = sketches.label_of(sketches.targets[index])
            reaching = {
                node for node in graph.nodes()
                if target in world.reachable_from([node])
            }
            members = {
                sketches.label_of(node) for node in sketches.members_of(index)
            }
            assert members == reaching
