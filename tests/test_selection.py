"""Tests for repro.evaluation.selection (the paper's method names) and the
selection task's CD-proxy scoring (Table 2, Figures 5-6)."""

import pytest

from repro.api import ExperimentConfig, SelectionContext, run_experiment
from repro.data.split import train_test_split
from repro.evaluation.metrics import seed_set_intersections
from repro.evaluation.selection import method_selector


@pytest.fixture(scope="module")
def train(flixster_mini):
    return train_test_split(flixster_mini.log)[0]


@pytest.fixture(scope="module")
def context(flixster_mini, train):
    return SelectionContext(flixster_mini.graph, train, num_simulations=20)


def _seeds(context, method, k, **algorithms):
    return method_selector(method, **algorithms).select(context, k).seeds


ALL_METHODS = ["UN", "TV", "WC", "EM", "PT", "IC", "LT", "CD", "HighDegree", "PageRank"]


class TestSeedSelector:
    """Seed selection by method name: ``method_selector`` over one
    shared :class:`SelectionContext`."""

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_returns_k_distinct_seeds(self, context, method, flixster_mini):
        seeds = _seeds(context, method, 5)
        assert len(seeds) == 5
        assert len(set(seeds)) == 5
        assert all(seed in flixster_mini.graph for seed in seeds)

    def test_ic_aliases_em(self, context):
        assert _seeds(context, "IC", 5) == _seeds(context, "EM", 5)

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            method_selector("Oracle")

    def test_em_probabilities_cached(self, context):
        first = context.ic_probabilities("EM")
        second = context.ic_probabilities("EM")
        assert first is second

    def test_pt_close_to_em(self, context):
        em = context.ic_probabilities("EM")
        pt = context.ic_probabilities("PT")
        assert set(pt) == set(em)
        for edge in em:
            assert abs(pt[edge] - em[edge]) <= 0.2 * em[edge] + 1e-12

    def test_invalid_algorithm_choices_raise(self):
        with pytest.raises(ValueError, match="ic_algorithm"):
            method_selector("EM", ic_algorithm="magic")
        with pytest.raises(ValueError, match="lt_algorithm"):
            method_selector("LT", lt_algorithm="magic")

    def test_celf_backends_work(self, flixster_mini, train):
        context = SelectionContext(
            flixster_mini.graph, train, num_simulations=5
        )
        algorithms = {"ic_algorithm": "celf", "lt_algorithm": "celf"}
        assert method_selector("EM", **algorithms).spec.name == "celf"
        assert method_selector("LT", **algorithms).spec.name == "celf"
        assert len(_seeds(context, "EM", 2, **algorithms)) == 2
        assert len(_seeds(context, "LT", 2, **algorithms)) == 2

    def test_one_shot_helper(self, flixster_mini):
        # Structural methods need no training log.
        seeds = _seeds(SelectionContext(flixster_mini.graph), "HighDegree", 4)
        assert len(seeds) == 4


class TestSeedOverlap:
    def test_matrix_complete(self, context):
        seed_sets = {
            method: _seeds(context, method, 5) for method in ("WC", "CD")
        }
        matrix = seed_set_intersections(seed_sets)
        assert matrix[("WC", "WC")] == 5
        assert matrix[("CD", "CD")] == 5
        assert 0 <= matrix[("WC", "CD")] <= 5

    def test_em_pt_overlap_high(self, context):
        """The paper's robustness finding: PT barely changes EM's seeds."""
        seed_sets = {
            method: _seeds(context, method, 10) for method in ("EM", "PT")
        }
        assert seed_set_intersections(seed_sets)[("EM", "PT")] >= 7


class TestSpreadAchieved:
    """Figure 6 through the selection task: every method's k-prefixes
    scored under the CD proxy."""

    KS = [1, 2, 4, 5, 8, 10]

    @pytest.fixture(scope="class")
    def series(self):
        result = run_experiment(
            ExperimentConfig(
                dataset="flixster",
                scale="mini",
                selectors=[
                    {"name": "cd", "label": "CD"},
                    {"name": "high_degree", "label": "HighDegree"},
                    {"name": "pagerank", "label": "PageRank"},
                ],
                ks=self.KS,
            )
        )
        return result.spread_series()

    def test_series_structure(self, series):
        assert set(series) == {"CD", "HighDegree", "PageRank"}
        assert [k for k, _ in series["CD"]] == [float(k) for k in self.KS]

    def test_spread_non_decreasing_in_k(self, series):
        for points in series.values():
            values = [spread for _, spread in points]
            assert values == sorted(values)

    def test_cd_dominates_at_every_k(self, series):
        """By construction CD greedy maximizes sigma_cd, so its own seeds
        must score at least as high as any other method's under sigma_cd
        (up to greedy suboptimality, which is bounded in practice)."""
        for index, (_, cd_value) in enumerate(series["CD"]):
            for method in ("HighDegree", "PageRank"):
                assert cd_value >= series[method][index][1] - 1e-9

    def test_precomputed_seed_sets_accepted(self, context, train):
        # Any seed list scores on the same CD proxy the evaluate stage
        # uses.
        seeds = list(train.users())[:5]
        evaluator = context.cd_evaluator()
        spreads = [evaluator.spread(seeds[:k]) for k in (2, 5)]
        assert spreads == sorted(spreads)
        assert spreads[0] > 0.0

    def test_empty_ks_raises(self):
        with pytest.raises(ValueError, match="ks"):
            ExperimentConfig(dataset="flixster", ks=[])
