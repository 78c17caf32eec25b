"""Tests for repro.evaluation.comparison (statistical model comparison)."""

import pytest

from repro.evaluation.comparison import compare_models
from repro.evaluation.prediction import PredictionExperiment, held_out_traces


@pytest.fixture(scope="module")
def experiment(flixster_mini):
    """A good model (CD) and two bad ones over the held-out traces."""
    from repro.core.credit import TimeDecayCredit
    from repro.core.params import learn_influenceability
    from repro.core.spread import CDSpreadEvaluator
    from repro.data.split import train_test_split

    graph = flixster_mini.graph
    train, test = train_test_split(flixster_mini.log)
    traces = held_out_traces(graph, test, max_test_traces=30)
    params = learn_influenceability(graph, train)
    predictors = {
        "CD": CDSpreadEvaluator(
            graph, train, credit=TimeDecayCredit(params)
        ).spread,
        "constant-0": lambda seeds: 0.0,
        "seed-count": lambda seeds: float(len(seeds)),
    }
    return PredictionExperiment.from_predictions(
        traces,
        {
            name: [predict(list(seeds)) for seeds, _ in traces]
            for name, predict in predictors.items()
        },
    )


@pytest.fixture(scope="module")
def comparison(experiment):
    return compare_models(experiment, tolerance=10.0, num_resamples=300)


class TestCompareModels:
    def test_one_report_per_model(self, comparison):
        assert {report.name for report in comparison.reports} == {
            "CD",
            "constant-0",
            "seed-count",
        }

    def test_ci_brackets_point(self, comparison):
        for report in comparison.reports:
            assert report.rmse_lower <= report.rmse <= report.rmse_upper

    def test_cd_ranks_first(self, comparison):
        assert comparison.ranking()[0] == "CD"

    def test_pairwise_antisymmetry(self, comparison):
        forward = comparison.pairwise[("CD", "constant-0")]
        backward = comparison.pairwise[("constant-0", "CD")]
        assert forward.difference == pytest.approx(-backward.difference)

    def test_cd_significantly_beats_constant(self, comparison):
        assert comparison.significantly_better("CD", "constant-0")
        assert not comparison.significantly_better("constant-0", "CD")

    def test_capture_rates_are_fractions(self, comparison):
        for report in comparison.reports:
            assert 0.0 <= report.capture_rate <= 1.0

    def test_render_contains_table_and_matrix(self, comparison):
        text = comparison.render()
        assert "model comparison over" in text
        assert "pairwise verdicts" in text
        assert "95% CI" in text
        # Diagonal marker appears once per model row.
        assert text.count(" -") >= 3

    def test_render_marks_significant_win(self, comparison):
        text = comparison.render()
        assert "<" in text or ">" in text

    def test_compares_a_prediction_run(self):
        from repro.api import ExperimentConfig, run_experiment

        result = run_experiment(
            ExperimentConfig(
                task="prediction",
                dataset="flixster",
                scale="mini",
                methods=["UN", "CD"],
                num_simulations=10,
                max_test_traces=10,
            )
        )
        comparison = compare_models(result.prediction, num_resamples=100)
        assert [report.name for report in comparison.reports] == ["UN", "CD"]
        assert comparison.num_test_traces == 10


class TestValidation:
    def test_needs_two_models(self):
        only = PredictionExperiment.from_predictions(
            [((1,), 1.0)], {"only": [0.0]}
        )
        with pytest.raises(ValueError, match="at least two"):
            compare_models(only)

    def test_tolerance_positive(self, experiment):
        with pytest.raises(ValueError, match="tolerance"):
            compare_models(experiment, tolerance=0.0)

    def test_too_few_resamples_rejected(self, experiment):
        with pytest.raises(ValueError, match="num_resamples"):
            compare_models(experiment, num_resamples=50)
