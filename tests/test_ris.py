"""Tests for reverse-influence sampling: RR sketch generation, the RR
spread estimator (:meth:`SketchSet.estimate_spread`) and ``ris_maximize``."""

import dataclasses

import pytest

import repro.kernels as kernels
from repro.core.sketch import generate_sketches
from repro.diffusion.ic import estimate_spread_ic
from repro.graphs.digraph import SocialGraph
from repro.graphs.generators import erdos_renyi_graph
from repro.maximization.ris import ris_maximize
from repro.probabilities.static import uniform_probabilities


@pytest.fixture()
def chain():
    return SocialGraph.from_edges([(0, 1), (1, 2), (2, 3)])


def _numpy_sketches(graph, probabilities, num_sketches, **kwargs):
    from repro.kernels.sketch_numpy import CompiledSketcher

    return CompiledSketcher.from_graph(graph, probabilities).generate(
        num_sketches, **kwargs
    )


def _member_labels(sketches, index):
    return {sketches.label_of(node) for node in sketches.members_of(index)}


def _target_label(sketches, index):
    return sketches.label_of(sketches.targets[index])


@pytest.mark.parametrize(
    "generate",
    [
        generate_sketches,
        pytest.param(
            _numpy_sketches,
            marks=pytest.mark.skipif(
                "numpy" not in kernels.available_backends(),
                reason="NumPy unavailable",
            ),
        ),
    ],
    ids=["python", "numpy"],
)
class TestGenerateSketches:
    def test_every_sketch_contains_its_target(self, generate, chain):
        probabilities = uniform_probabilities(chain, 0.5)
        sketches = generate(chain, probabilities, 50, seed=7)
        for index in range(sketches.num_sketches):
            assert sketches.targets[index] in list(sketches.members_of(index))

    def test_certain_world_gives_all_ancestors(self, generate, chain):
        probabilities = {edge: 1.0 for edge in chain.edges()}
        sketches = generate(chain, probabilities, 40, seed=3)
        for index in range(sketches.num_sketches):
            target = _target_label(sketches, index)
            assert _member_labels(sketches, index) == set(range(target + 1))

    def test_one_hop_keeps_only_the_direct_parent(self, generate, chain):
        probabilities = {edge: 1.0 for edge in chain.edges()}
        sketches = generate(chain, probabilities, 40, hops=1, seed=3)
        for index in range(sketches.num_sketches):
            target = _target_label(sketches, index)
            assert _member_labels(sketches, index) == {
                max(target - 1, 0), target
            }

    def test_zero_probability_gives_singletons(self, generate, chain):
        sketches = generate(chain, {}, 30, seed=0)
        for index in range(sketches.num_sketches):
            assert _member_labels(sketches, index) == {
                _target_label(sketches, index)
            }

    def test_count_respected(self, generate, chain):
        sketches = generate(chain, {}, 17, seed=0)
        assert sketches.num_sketches == 17
        assert len(sketches.indptr) - 1 == 17

    def test_invalid_count_raises(self, generate, chain):
        with pytest.raises(ValueError):
            generate(chain, {}, 0)

    def test_empty_graph(self, generate):
        assert generate(SocialGraph(), {}, 5, seed=0).num_sketches == 0

    def test_deterministic_with_seed(self, generate, chain):
        probabilities = uniform_probabilities(chain, 0.4)
        first = generate(chain, probabilities, 50, seed=11)
        second = generate(chain, probabilities, 50, seed=11)
        assert list(first.targets) == list(second.targets)
        assert list(first.indptr) == list(second.indptr)
        assert list(first.members) == list(second.members)


class TestRISSpread:
    def test_agrees_with_monte_carlo(self):
        """The RIS and forward-MC estimators target the same sigma_IC."""
        graph = erdos_renyi_graph(25, 0.15, seed=4)
        probabilities = uniform_probabilities(graph, 0.3)
        seeds = [0, 1]
        sketches = generate_sketches(graph, probabilities, 6000, seed=1)
        ris = sketches.estimate_spread(seeds)
        forward = estimate_spread_ic(
            graph, probabilities, seeds, num_simulations=3000, seed=2
        )
        assert ris == pytest.approx(forward, rel=0.15)

    def test_full_seed_set_covers_everything(self, chain):
        sketches = generate_sketches(chain, {}, 40, seed=0)
        assert sketches.estimate_spread(list(chain.nodes())) == 4.0

    def test_empty_seed_set(self, chain):
        sketches = generate_sketches(chain, {}, 10, seed=0)
        assert sketches.estimate_spread([]) == 0.0

    def test_no_sketches(self):
        sketches = generate_sketches(SocialGraph(), {}, 5, seed=0)
        assert sketches.estimate_spread([0]) == 0.0

    def test_seeds_outside_the_universe_are_skipped(self, chain):
        """Like the MC estimators, a seed that is no node adds nothing."""
        probabilities = uniform_probabilities(chain, 0.5)
        sketches = generate_sketches(chain, probabilities, 20, seed=1)
        expected = sketches.estimate_spread([0])
        assert expected > 0.0
        assert sketches.estimate_spread([0, 99]) == expected
        assert sketches.estimate_spread(["0"]) == 0.0
        # Raw-CSR path: ids are their own labels; ids outside
        # [0, num_nodes) are skipped the same way.
        raw = dataclasses.replace(sketches, nodes=None)
        assert raw.estimate_spread([0, 99, -1]) == expected
        assert raw.estimate_spread([4]) == 0.0


class TestRISMaximize:
    def test_chain_source_is_best_single_seed(self, chain):
        probabilities = {edge: 1.0 for edge in chain.edges()}
        result = ris_maximize(chain, probabilities, 1, num_rr_sets=500, seed=0)
        assert result.seeds == [0]
        assert result.spread == pytest.approx(4.0)

    def test_covers_disconnected_components(self):
        graph = SocialGraph.from_edges([(0, 1), (0, 2), (10, 11), (10, 12)])
        probabilities = {edge: 1.0 for edge in graph.edges()}
        result = ris_maximize(graph, probabilities, 2, num_rr_sets=800, seed=3)
        assert set(result.seeds) == {0, 10}

    def test_k_zero(self, chain):
        result = ris_maximize(chain, {}, 0, num_rr_sets=10, seed=0)
        assert result.seeds == []

    def test_gains_non_increasing(self):
        graph = erdos_renyi_graph(30, 0.12, seed=8)
        probabilities = uniform_probabilities(graph, 0.2)
        result = ris_maximize(graph, probabilities, 5, num_rr_sets=2000, seed=5)
        assert result.gains == sorted(result.gains, reverse=True)

    def test_stops_when_everything_covered(self, chain):
        probabilities = {edge: 1.0 for edge in chain.edges()}
        # One seed covers every RR set; further picks add zero gain and
        # the loop must stop early rather than pad with useless seeds.
        result = ris_maximize(chain, probabilities, 4, num_rr_sets=300, seed=1)
        assert len(result.seeds) == 1

    def test_negative_k_raises(self, chain):
        with pytest.raises(ValueError):
            ris_maximize(chain, {}, -1, num_rr_sets=10)

    def test_quality_matches_celf_on_small_instance(self):
        """RIS seeds reach (near-)greedy spread under forward MC."""
        from repro.maximization.celf import celf_maximize
        from repro.runtime import SpreadEstimator

        graph = erdos_renyi_graph(20, 0.2, seed=6)
        probabilities = uniform_probabilities(graph, 0.25)
        oracle = SpreadEstimator(
            graph, probabilities, "ic", num_simulations=400, seed=0
        )
        celf = celf_maximize(oracle, 3)
        ris = ris_maximize(graph, probabilities, 3, num_rr_sets=5000, seed=7)
        ris_quality = oracle.spread(ris.seeds)
        assert ris_quality >= 0.9 * celf.spread
