"""End-to-end integration tests: the full paper pipeline on mini data.

Each test exercises a complete multi-module path:
generate -> split -> learn -> scan/maximize -> evaluate.
"""

import pytest

from repro import (
    CDSpreadEvaluator,
    TimeDecayCredit,
    cd_maximize,
    celf_maximize,
    learn_influenceability,
    learn_ic_probabilities_em,
    learn_lt_weights,
    scan_action_log,
    train_test_split,
)
from repro.maximization.ldag import LDAGModel
from repro.maximization.pmia import PMIAModel
from repro.runtime import SpreadEstimator


class TestFullCDPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self, flixster_mini_cls):
        dataset = flixster_mini_cls
        train, test = train_test_split(dataset.log)
        params = learn_influenceability(dataset.graph, train)
        credit = TimeDecayCredit(params)
        index = scan_action_log(dataset.graph, train, credit=credit)
        result = cd_maximize(index, k=8)
        return dataset, train, test, credit, result

    @pytest.fixture(scope="class")
    def flixster_mini_cls(self):
        from repro.data.datasets import flixster_like

        return flixster_like("mini")

    def test_selects_requested_seeds(self, pipeline):
        _, _, _, _, result = pipeline
        assert len(result.seeds) == 8

    def test_spread_consistent_with_evaluator(self, pipeline):
        dataset, train, _, credit, result = pipeline
        evaluator = CDSpreadEvaluator(dataset.graph, train, credit=credit)
        exact = evaluator.spread(result.seeds)
        # The scan truncates at 0.001; allow a matching tolerance.
        assert result.spread == pytest.approx(exact, rel=0.05)

    def test_seeds_beat_random_users(self, pipeline):
        dataset, train, _, credit, result = pipeline
        evaluator = CDSpreadEvaluator(dataset.graph, train, credit=credit)
        users = sorted(train.users(), key=repr)[:8]
        assert evaluator.spread(result.seeds) >= evaluator.spread(users)

    def test_seeds_are_active_users(self, pipeline):
        _, train, _, _, result = pipeline
        assert all(train.activity(seed) > 0 for seed in result.seeds)


class TestStandardApproachPipeline:
    """The light-blue path of the paper's Figure 1: learn probabilities,
    then MC greedy (here with tiny simulation counts)."""

    def test_em_to_celf(self, flixster_mini):
        train, _ = train_test_split(flixster_mini.log)
        em = learn_ic_probabilities_em(flixster_mini.graph, train)
        oracle = SpreadEstimator(
            flixster_mini.graph, em.probabilities, "ic", num_simulations=10,
            seed=1,
        )
        result = celf_maximize(oracle, k=3)
        assert len(result.seeds) == 3
        assert result.spread >= 3.0 - 1e-9

    def test_em_to_pmia(self, flixster_mini):
        train, _ = train_test_split(flixster_mini.log)
        em = learn_ic_probabilities_em(flixster_mini.graph, train)
        model = PMIAModel(flixster_mini.graph, em.probabilities)
        result = model.select_seeds(3)
        assert len(result.seeds) == 3

    def test_lt_weights_to_ldag(self, flixster_mini):
        train, _ = train_test_split(flixster_mini.log)
        weights = learn_lt_weights(flixster_mini.graph, train)
        model = LDAGModel(flixster_mini.graph, weights)
        result = model.select_seeds(3)
        assert len(result.seeds) == 3


class TestCrossModelConsistency:
    def test_cd_seeds_maximize_cd_spread_vs_other_models(self, flixster_mini):
        """CD greedy's own seeds dominate other models' seeds under
        sigma_cd — the invariant behind Figure 6."""
        train, _ = train_test_split(flixster_mini.log)
        params = learn_influenceability(flixster_mini.graph, train)
        credit = TimeDecayCredit(params)
        index = scan_action_log(flixster_mini.graph, train, credit=credit)
        cd_seeds = cd_maximize(index, k=5).seeds

        weights = learn_lt_weights(flixster_mini.graph, train)
        lt_seeds = LDAGModel(flixster_mini.graph, weights).select_seeds(5).seeds

        evaluator = CDSpreadEvaluator(flixster_mini.graph, train, credit=credit)
        assert evaluator.spread(cd_seeds) >= evaluator.spread(lt_seeds) - 1e-9

    def test_dataset_round_trip_preserves_cd_results(self, tmp_path, flixster_mini):
        """Saving and reloading the dataset must not change the analysis."""
        from repro.data.io import (
            load_action_log,
            load_graph,
            save_action_log,
            save_graph,
        )

        save_graph(flixster_mini.graph, tmp_path / "g.tsv")
        save_action_log(flixster_mini.log, tmp_path / "l.tsv")
        graph = load_graph(tmp_path / "g.tsv")
        log = load_action_log(tmp_path / "l.tsv")
        original = cd_maximize(
            scan_action_log(flixster_mini.graph, flixster_mini.log), k=5
        )
        reloaded = cd_maximize(scan_action_log(graph, log), k=5)
        assert original.seeds == reloaded.seeds
        assert original.spread == pytest.approx(reloaded.spread)
