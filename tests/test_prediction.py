"""Tests for repro.evaluation.prediction and the prediction task
(Figures 2-4)."""

import pytest

from repro.api import ExperimentConfig, run_experiment
from repro.core.credit import TimeDecayCredit
from repro.core.params import learn_influenceability
from repro.core.spread import CDSpreadEvaluator
from repro.data.propagation import PropagationGraph
from repro.data.split import train_test_split
from repro.evaluation.prediction import PredictionExperiment, held_out_traces


@pytest.fixture(scope="module")
def split(flixster_mini):
    return train_test_split(flixster_mini.log)


def _prediction_run(**overrides):
    config = dict(
        task="prediction", dataset="flixster", scale="mini", num_simulations=10
    )
    config.update(overrides)
    return run_experiment(ExperimentConfig(**config))


class TestHeldOutTraces:
    def test_every_test_trace_largest_first(self, flixster_mini, split):
        _, test = split
        traces = held_out_traces(flixster_mini.graph, test)
        actuals = [actual for _, actual in traces]
        assert actuals == sorted(actuals, reverse=True)
        assert sorted(actuals) == sorted(
            float(test.trace_size(action)) for action in test.actions()
        )

    def test_seeds_are_the_trace_initiators(self, flixster_mini, split):
        _, test = split
        traces = held_out_traces(flixster_mini.graph, test)
        largest = max(test.actions(), key=test.trace_size)
        propagation = PropagationGraph.build(
            flixster_mini.graph, test, largest
        )
        assert traces[0] == (
            tuple(propagation.initiators()),
            float(propagation.num_nodes),
        )
        assert all(len(seeds) >= 1 for seeds, _ in traces)

    def test_stratified_cap_keeps_largest_trace(self, flixster_mini, split):
        _, test = split
        traces = held_out_traces(flixster_mini.graph, test, max_test_traces=8)
        largest = max(test.trace_size(action) for action in test.actions())
        assert len(traces) == 8
        assert traces[0][1] == float(largest)

    def test_cap_beyond_the_test_set_keeps_every_trace(
        self, flixster_mini, split
    ):
        _, test = split
        every = held_out_traces(flixster_mini.graph, test)
        capped = held_out_traces(
            flixster_mini.graph, test, max_test_traces=len(every) + 5
        )
        assert capped == every


class TestFromPredictions:
    TRACES = [((1,), 3.0), ((2, 3), 5.0)]

    def test_pairs_actuals_with_predictions(self):
        experiment = PredictionExperiment.from_predictions(
            self.TRACES, {"A": [2.5, 4.0], "B": [1.0, 1.0]}
        )
        assert experiment.methods == ["A", "B"]
        assert experiment.pairs("A") == [(3.0, 2.5), (5.0, 4.0)]
        assert experiment.pairs("B") == [(3.0, 1.0), (5.0, 1.0)]
        assert experiment.num_test_traces == 2

    def test_one_prediction_per_trace_required(self):
        with pytest.raises(ValueError, match="1 predictions for 2 traces"):
            PredictionExperiment.from_predictions(
                self.TRACES, {"A": [2.5, 4.0], "B": [1.0]}
            )


class TestBuildPredictors:
    """The prediction task's per-method predictors (Figures 2-3)."""

    METHODS = ["UN", "WC", "EM", "PT", "LT", "CD"]

    @pytest.fixture(scope="class")
    def experiment(self):
        result = _prediction_run(methods=self.METHODS, max_test_traces=6)
        return result.prediction

    @pytest.fixture(scope="class")
    def seed_sets(self, flixster_mini, split):
        _, test = split
        traces = held_out_traces(flixster_mini.graph, test, 6)
        return [seeds for seeds, _ in traces]

    def test_ic_predictors_cover_requested_methods(self, experiment):
        assert experiment.methods == self.METHODS

    def test_pt_implies_em_learning(self):
        result = _prediction_run(methods=["PT"], max_test_traces=3)
        assert result.prediction_methods() == ["PT"]

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig(task="prediction", methods=["XX"])

    def test_predictors_return_floats(
        self, experiment, seed_sets, flixster_mini
    ):
        for method in ("UN", "WC", "EM", "PT"):
            for seeds, (_, value) in zip(seed_sets, experiment.pairs(method)):
                assert isinstance(value, float)
                # Seeds in the graph always count.
                in_graph = sum(seed in flixster_mini.graph for seed in seeds)
                assert value >= in_graph - 1e-9

    def test_lt_predictor(self, experiment, seed_sets, flixster_mini):
        for seeds, (_, value) in zip(seed_sets, experiment.pairs("LT")):
            in_graph = sum(seed in flixster_mini.graph for seed in seeds)
            assert value >= in_graph - 1e-9

    def test_cd_predictor(self, experiment):
        assert all(value >= 0.0 for _, value in experiment.pairs("CD"))


class TestExperiment:
    """The default IC/LT/CD trio through the prediction task."""

    @pytest.fixture(scope="class")
    def experiment(self):
        return _prediction_run(max_test_traces=8).prediction

    def test_default_methods(self, experiment):
        assert experiment.methods == ["IC", "LT", "CD"]

    def test_one_record_per_test_trace(self, experiment):
        assert experiment.num_test_traces == 8
        for method in experiment.methods:
            assert len(experiment.pairs(method)) == experiment.num_test_traces

    def test_actuals_identical_across_methods(self, experiment):
        actuals = {
            method: [actual for actual, _ in experiment.pairs(method)]
            for method in experiment.methods
        }
        reference = actuals["CD"]
        assert all(values == reference for values in actuals.values())

    def test_actuals_are_trace_sizes(self, experiment, split):
        _, test = split
        sizes = {float(test.trace_size(action)) for action in test.actions()}
        actuals = {actual for actual, _ in experiment.pairs("CD")}
        assert actuals <= sizes

    def test_stratified_cap_keeps_largest_trace(self, experiment, split):
        _, test = split
        largest = max(test.trace_size(action) for action in test.actions())
        actuals = [actual for actual, _ in experiment.pairs("CD")]
        assert float(largest) in actuals

    def test_predictions_non_negative(self, experiment):
        for method in experiment.methods:
            assert all(
                predicted >= 0.0 for _, predicted in experiment.pairs(method)
            )

    def test_max_test_traces_cap(self):
        result = _prediction_run(methods=["CD"], max_test_traces=3)
        assert result.prediction.num_test_traces == 3


def test_custom_predictors_share_the_pipeline_protocol(flixster_mini, split):
    """A custom CD predictor scored over ``held_out_traces`` reproduces
    the prediction task's CD records pair for pair: both paths evaluate
    the same traces, with the same seeds and actual spreads."""
    cap = 12
    result = run_experiment(
        ExperimentConfig(
            task="prediction",
            dataset="flixster",
            scale="mini",
            methods=["CD"],
            max_test_traces=cap,
        ),
        dataset=flixster_mini,
    )
    train, test = split
    traces = held_out_traces(flixster_mini.graph, test, cap)
    params = learn_influenceability(flixster_mini.graph, train)
    evaluator = CDSpreadEvaluator(
        flixster_mini.graph, train, credit=TimeDecayCredit(params)
    )
    assert len(traces) == cap
    assert [actual for actual, _ in result.pairs("CD")] == [
        actual for _, actual in traces
    ]
    assert result.pairs("CD") == [
        (actual, evaluator.spread(list(seeds))) for seeds, actual in traces
    ]
