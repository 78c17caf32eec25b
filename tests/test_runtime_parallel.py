"""Executor parity: serial, thread and process runs are bit-identical.

The runtime's contract is that the executor seam changes *where* the
pipeline's independent units run, never *what* they compute: per-task
seeds are derived from labels (not execution order), every reduction
consumes results in submission order, and every Monte-Carlo coin is
keyed by its world, so a world's outcome does not depend on where it
runs.
These tests enforce that contract end to end — seed sets, gains,
spreads, evaluation curves and prediction RMSE tables must be equal as
exact floats across all three executors — plus the config surface
around it (JSON round-trips, env resolution, nested-parallelism
degradation).
"""

from __future__ import annotations

import pickle

import pytest

import repro.kernels as kernels
from repro.api import ExperimentConfig, run_experiment
from repro.runtime import (
    EXECUTOR_ENV_VAR,
    Executor,
    SpreadEstimator,
    as_executor,
    resolve_executor,
    split_chunks,
)

BACKENDS = ["python"] + (
    ["numpy"] if "numpy" in kernels.available_backends() else []
)
EXECUTOR_GRID = [
    {"executor": "serial"},
    {"executor": "thread", "max_workers": 4},
    {"executor": "process", "max_workers": 2},
]


def _selection_fingerprint(result):
    return [
        (
            run.label,
            run.trial,
            run.selection.seeds,
            run.selection.gains,
            run.selection.spread,
            run.curve,
        )
        for run in result.runs
    ]


class TestSelectionParity:
    @pytest.fixture(scope="class")
    def results(self, request):
        # celf/ic exercises the Monte-Carlo runtime protocol, ris the
        # stochastic per-trial seed fan-out, cd/high_degree the
        # deterministic paths.
        base = dict(
            dataset="flixster",
            scale="mini",
            selectors=[
                "cd",
                {"name": "celf", "params": {"model": "ic"}, "label": "IC"},
                {"name": "ris", "params": {"num_rr_sets": 400}, "label": "RIS"},
                "high_degree",
            ],
            ks=[2, 4],
            num_simulations=100,
        )
        return [
            run_experiment(ExperimentConfig(**base, **grid))
            for grid in EXECUTOR_GRID
        ]

    def test_seed_sets_spreads_and_curves_identical(self, results):
        serial, thread, process = map(_selection_fingerprint, results)
        assert serial == thread
        assert serial == process

    def test_trials_fan_out_identically(self):
        base = dict(
            dataset="flixster",
            scale="mini",
            selectors=[{"name": "ris", "params": {"num_rr_sets": 200}}],
            ks=[3],
            trials=3,
            evaluate_spread=False,
        )
        fingerprints = [
            _selection_fingerprint(run_experiment(ExperimentConfig(**base, **grid)))
            for grid in EXECUTOR_GRID
        ]
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]


class TestPredictionParity:
    def test_records_identical_across_executors(self):
        base = dict(
            task="prediction",
            dataset="flixster",
            scale="mini",
            methods=["UN", "IC", "LT", "CD"],
            num_simulations=60,
            max_test_traces=10,
        )
        results = [
            run_experiment(ExperimentConfig(**base, **grid))
            for grid in EXECUTOR_GRID
        ]
        serial = results[0]
        for other in results[1:]:
            assert other.prediction.records == serial.prediction.records
            assert other.rmse_table() == serial.rmse_table()
        assert serial.prediction.num_test_traces == 10
        assert serial.prediction_methods() == ["UN", "IC", "LT", "CD"]


class TestSpreadEstimator:
    @pytest.fixture(scope="class")
    def network(self):
        from repro.data.datasets import flixster_like

        data = flixster_like("mini")
        probabilities = {edge: 0.08 for edge in data.graph.edges()}
        seeds = sorted(
            data.graph.nodes(), key=lambda n: -data.graph.out_degree(n)
        )[:4]
        return data.graph, probabilities, seeds

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_identical_across_executors(self, network, model):
        graph, values, seeds = network
        estimates = [
            SpreadEstimator(
                graph, values, model=model, num_simulations=100, seed=5,
                backend=backend,
                executor=Executor(
                    grid["executor"], max_workers=grid.get("max_workers")
                ),
            ).spread_many([seeds, seeds[:1]])
            for grid in EXECUTOR_GRID
            for backend in BACKENDS
        ]
        assert all(estimate == estimates[0] for estimate in estimates)

    def test_seed_set_order_canonicalised(self, network):
        graph, values, seeds = network
        estimator = SpreadEstimator(graph, values, num_simulations=50, seed=5)
        assert estimator.spread(seeds) == estimator.spread(seeds[::-1])

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_any_world_chunking_sums_to_one_count(self, network, model):
        graph, values, seeds = network
        for backend in BACKENDS:
            engine = SpreadEstimator(
                graph, values, model=model, backend=backend
            ).engine()
            whole = engine.active_count(seeds, 5, range(110))
            for cuts in ([37], [1, 2, 50], list(range(10, 110, 10))):
                bounds = [0, *cuts, 110]
                assert whole == sum(
                    engine.active_count(seeds, 5, range(start, stop))
                    for start, stop in zip(bounds, bounds[1:])
                )

    def test_pinned_engine_survives_pickling(self, network):
        graph, values, seeds = network
        estimator = SpreadEstimator(graph, values, num_simulations=50, seed=5)
        clone = pickle.loads(pickle.dumps(estimator))
        assert clone.spread(seeds) == estimator.spread(seeds)


class TestExecutor:
    def test_map_preserves_order(self):
        executor = Executor("thread", max_workers=4)
        assert executor.map(str, list(range(20))) == [
            str(i) for i in range(20)
        ]

    def test_unpickled_executor_degrades_to_serial(self):
        executor = Executor("process", max_workers=2)
        clone = pickle.loads(pickle.dumps(executor))
        assert clone.kind == "serial"
        assert clone.map(str, [1, 2]) == ["1", "2"]

    def test_nested_map_runs_serially(self):
        executor = Executor("thread", max_workers=2)

        def outer(value):
            # A task issuing a map on its own executor must not deadlock.
            return sum(executor.map(lambda x: x + 1, [value, value]))

        assert executor.map(outer, [1, 2, 3]) == [4, 6, 8]

    def test_pool_reused_across_maps_and_recreated_after_close(self):
        executor = Executor("thread", max_workers=2)
        assert executor.map(str, [1, 2]) == ["1", "2"]
        pool = executor._pool
        assert pool is not None
        assert executor.map(str, [3, 4]) == ["3", "4"]
        assert executor._pool is pool  # reused, not respawned per map
        executor.close()
        assert executor._pool is None
        assert executor.map(str, [5, 6]) == ["5", "6"]  # lazily recreated
        executor.close()

    def test_split_chunks_balanced_and_ordered(self):
        chunks = split_chunks(list(range(10)), 3)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert split_chunks([1], 5) == [[1]]
        assert split_chunks([], 3) == []

    def test_as_executor_passthrough_and_coercion(self, monkeypatch):
        executor = Executor("thread")
        assert as_executor(executor) is executor
        assert as_executor("serial").kind == "serial"
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        assert as_executor(None).kind == "serial"


class TestResolution:
    def test_explicit_requests(self):
        assert resolve_executor("serial") == "serial"
        assert resolve_executor("thread") == "thread"
        assert resolve_executor("process") == "process"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "thread")
        assert resolve_executor(None) == "thread"
        assert resolve_executor("auto") == "thread"
        assert resolve_executor("serial") == "serial"  # explicit wins

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        assert resolve_executor(None) == "serial"

    def test_env_auto_means_default(self, monkeypatch):
        # REPRO_EXECUTOR=auto is a documented way to say "the default".
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "auto")
        assert resolve_executor(None) == "serial"
        assert resolve_executor("auto") == "serial"

    def test_invalid_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            resolve_executor("gpu")


class TestPredictionConfig:
    def test_json_round_trip(self):
        config = ExperimentConfig(
            task="prediction",
            dataset="flickr",
            scale="mini",
            methods=["EM", "CD"],
            num_simulations=40,
            max_test_traces=15,
            executor="thread",
            max_workers=3,
        )
        restored = ExperimentConfig.from_dict(config.to_dict())
        assert restored.to_dict() == config.to_dict()
        assert restored.task == "prediction"
        assert restored.methods == ["EM", "CD"]
        assert restored.max_test_traces == 15
        assert restored.executor == "thread"
        assert restored.max_workers == 3

    def test_from_json_file(self, tmp_path):
        import json

        payload = {
            "task": "prediction",
            "dataset": "flixster",
            "scale": "mini",
            "methods": ["IC", "CD"],
            "max_test_traces": 5,
        }
        path = tmp_path / "prediction.json"
        path.write_text(json.dumps(payload))
        config = ExperimentConfig.from_json_file(str(path))
        assert config.task == "prediction"
        assert config.methods == ["IC", "CD"]

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"task": "forecast"}, "task"),
            ({"executor": "gpu"}, "executor"),
            ({"max_workers": 0}, "max_workers"),
            ({"task": "prediction", "methods": []}, "non-empty"),
            ({"task": "prediction", "methods": ["XX"]}, "unknown prediction"),
            ({"task": "prediction", "methods": ["CD", "CD"]}, "unique"),
            ({"task": "prediction", "max_test_traces": 0}, "max_test_traces"),
            ({"task": "prediction", "dataset": "toy"}, "toy"),
            ({"task": "prediction", "split": False}, "split"),
            ({"task": "prediction", "budget": 3.0}, "budget"),
        ],
    )
    def test_invalid_configs_rejected(self, overrides, match):
        base = dict(dataset="flixster", scale="mini")
        base.update(overrides)
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**base)

    def test_prediction_rejects_prebuilt_context(self, toy):
        from repro.api import ConfigError, SelectionContext

        config = ExperimentConfig(
            task="prediction", dataset="flixster", scale="mini"
        )
        context = SelectionContext(toy.graph, toy.log)
        with pytest.raises(ConfigError, match="dataset"):
            run_experiment(config, context=context)

    def test_prediction_result_shape_and_json(self):
        config = ExperimentConfig(
            task="prediction",
            dataset="flixster",
            scale="mini",
            methods=["UN", "CD"],
            num_simulations=20,
            max_test_traces=6,
        )
        result = run_experiment(config)
        assert result.runs == []
        assert {"dataset_s", "split_s", "learn_s", "predict_s",
                "evaluate_s"} <= set(result.timings)
        assert len(result.pairs("UN")) == 6
        assert set(result.rmse_table()) == {"UN", "CD"}
        payload = result.to_dict()
        assert payload["prediction"]["methods"] == ["UN", "CD"]
        assert len(payload["prediction"]["records"]["CD"]) == 6
        rendered = result.render()
        assert "RMSE" in rendered and "UN" in rendered and "CD" in rendered

    def test_selection_result_has_no_prediction(self, toy):
        result = run_experiment(
            ExperimentConfig(dataset="toy", selectors=["cd"], ks=[1])
        )
        assert result.prediction is None
        with pytest.raises(ValueError, match="no prediction"):
            result.pairs("CD")
