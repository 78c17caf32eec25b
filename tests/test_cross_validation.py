"""Cross-algorithm consistency: independent implementations must agree.

The library implements each spread model several times via unrelated
algorithms (Monte Carlo, path enumeration, sampling, fixed points,
local DAGs).  Agreement between them on shared instances is strong
evidence none of them is subtly wrong — disagreement localises the bug.
Instances are kept small so the whole module stays fast.
"""

import pytest

from repro.graphs.digraph import SocialGraph
from repro.graphs.generators import erdos_renyi_graph
from repro.probabilities.static import uniform_probabilities


@pytest.fixture(scope="module")
def lt_instance():
    """A 20-node LT instance with admissible learned-style weights."""
    graph = erdos_renyi_graph(20, 0.18, seed=12)
    weights = {
        (source, target): 0.8 / graph.in_degree(target)
        for source, target in graph.edges()
    }
    return graph, weights


@pytest.fixture(scope="module")
def ic_instance():
    """A 20-node IC instance with uniform probabilities."""
    graph = erdos_renyi_graph(20, 0.18, seed=21)
    return graph, uniform_probabilities(graph, 0.2)


class TestLTFamily:
    def test_simpath_agrees_with_monte_carlo(self, lt_instance):
        from repro.diffusion.lt import estimate_spread_lt
        from repro.maximization.simpath import simpath_spread

        graph, weights = lt_instance
        seeds = list(graph.nodes())[:3]
        enumerated = simpath_spread(graph, weights, seeds, eta=1e-5)
        sampled = estimate_spread_lt(
            graph, weights, seeds, num_simulations=4000, seed=0
        )
        assert enumerated == pytest.approx(sampled, rel=0.08)

    def test_ldag_and_simpath_seed_quality_close(self, lt_instance):
        """Two unrelated LT heuristics land within a quality band."""
        from repro.maximization.ldag import LDAGModel
        from repro.maximization.simpath import (
            simpath_maximize,
            simpath_spread,
        )

        graph, weights = lt_instance
        ldag_seeds = LDAGModel(graph, weights).select_seeds(3).seeds
        simpath_seeds = simpath_maximize(graph, weights, 3, eta=1e-4).seeds
        # Score both sets with the same (SimPath) yardstick.
        ldag_quality = simpath_spread(graph, weights, ldag_seeds, eta=1e-5)
        simpath_quality = simpath_spread(
            graph, weights, simpath_seeds, eta=1e-5
        )
        assert ldag_quality >= 0.9 * simpath_quality

    def test_celf_over_mc_matches_simpath_selection_quality(self, lt_instance):
        from repro.maximization.celf import celf_maximize
        from repro.maximization.simpath import (
            simpath_maximize,
            simpath_spread,
        )
        from repro.runtime import SpreadEstimator

        graph, weights = lt_instance
        oracle = SpreadEstimator(
            graph, weights, "lt", num_simulations=300, seed=3
        )
        mc_seeds = celf_maximize(oracle, 3).seeds
        sp_seeds = simpath_maximize(graph, weights, 3, eta=1e-4).seeds
        mc_quality = simpath_spread(graph, weights, mc_seeds, eta=1e-5)
        sp_quality = simpath_spread(graph, weights, sp_seeds, eta=1e-5)
        assert mc_quality >= 0.85 * sp_quality
        assert sp_quality >= 0.85 * mc_quality


class TestICFamily:
    def test_four_spread_estimators_agree(self, ic_instance):
        """MC forward, RIS reverse, possible-world sampling and CTIC
        all estimate the same sigma_IC."""
        from repro.diffusion.ctic import estimate_spread_ctic
        from repro.diffusion.ic import estimate_spread_ic
        from repro.diffusion.worlds import estimate_spread_via_worlds
        from repro.core.sketch import generate_sketches

        graph, probabilities = ic_instance
        seeds = list(graph.nodes())[:2]
        forward = estimate_spread_ic(
            graph, probabilities, seeds, num_simulations=4000, seed=1
        )
        worlds = estimate_spread_via_worlds(
            graph, probabilities, seeds, num_worlds=4000, seed=2
        )
        reverse = generate_sketches(
            graph, probabilities, 8000, seed=3
        ).estimate_spread(seeds)
        continuous = estimate_spread_ctic(
            graph, probabilities, seeds, num_simulations=4000, seed=4
        )
        assert worlds == pytest.approx(forward, rel=0.08)
        assert reverse == pytest.approx(forward, rel=0.12)
        assert continuous == pytest.approx(forward, rel=0.08)

    def test_selector_quality_band(self, ic_instance):
        """PMIA, RIS, IRIE and DegreeDiscount all land within a band of
        MC-CELF on the same instance, scored by the same MC oracle."""
        from repro.maximization.celf import celf_maximize
        from repro.maximization.degree_discount import (
            degree_discount_ic_seeds,
        )
        from repro.maximization.irie import irie_seeds
        from repro.maximization.pmia import PMIAModel
        from repro.maximization.ris import ris_maximize
        from repro.runtime import SpreadEstimator

        graph, probabilities = ic_instance
        oracle = SpreadEstimator(
            graph, probabilities, "ic", num_simulations=600, seed=5
        )
        reference = celf_maximize(oracle, 3)
        selections = {
            "PMIA": PMIAModel(graph, probabilities).select_seeds(3).seeds,
            "RIS": ris_maximize(
                graph, probabilities, 3, num_rr_sets=6000, seed=6
            ).seeds,
            "IRIE": irie_seeds(graph, probabilities, 3),
            "DegreeDiscount": degree_discount_ic_seeds(
                graph, 3, probability=0.2
            ),
        }
        for name, seeds in selections.items():
            quality = oracle.spread(seeds)
            assert quality >= 0.8 * reference.spread, name


class TestCDFamily:
    def test_index_maximizer_vs_exact_evaluator_vs_queries(self):
        """Three CD implementations agree on the first seed's value:
        the Theorem-3 maximizer, the exact evaluator and the query API."""
        from repro.core.maximize import cd_maximize
        from repro.core.queries import most_influential
        from repro.core.scan import scan_action_log
        from repro.core.spread import CDSpreadEvaluator
        from tests.helpers import random_instance

        graph, log = random_instance(seed=31, num_nodes=12, num_actions=10)
        index = scan_action_log(graph, log, truncation=0.0)
        maximizer = cd_maximize(index, k=1, mutate=False)
        evaluator = CDSpreadEvaluator(graph, log)
        leaderboard = most_influential(index, limit=1)
        assert maximizer.spread == pytest.approx(
            evaluator.spread(maximizer.seeds), rel=1e-9
        )
        assert leaderboard[0][0] == maximizer.seeds[0]
        assert leaderboard[0][1] + 1.0 == pytest.approx(
            maximizer.spread, rel=1e-9
        )
