"""Warm-start parity: a store hit reproduces the cold run bit for bit.

The contract under test (ISSUE 5 acceptance): with
``ExperimentConfig(store=...)``, the second run of the same config
loads every artifact from the store, *skips learning entirely*, and
returns results identical to the cold run — for selection and
prediction tasks, under the serial and process executors.  A corrupted
store entry falls back to re-learning with a warning and still produces
the identical result.
"""

from __future__ import annotations

import json

import pytest

import repro.api.context as context_module
from repro.api import ExperimentConfig, SelectionContext, run_experiment
from repro.store import ArtifactStore, artifact_key
from repro.store.warm import required_artifacts

SELECTION = dict(
    dataset="flixster",
    scale="mini",
    selectors=["cd", "high_degree"],
    ks=[2, 4],
    seed=11,
)
PREDICTION = dict(
    dataset="flixster",
    scale="mini",
    task="prediction",
    methods=["IC", "LT", "CD"],
    max_test_traces=8,
    num_simulations=20,
    seed=11,
)


def _comparable(result):
    """The result's deterministic payload (timing/telemetry stripped)."""
    payload = result.to_dict()
    payload.pop("config")  # the knob under test (executor, warm_start) varies
    payload.pop("timings")
    payload.pop("store")
    for run in payload["runs"]:
        run["selection"].pop("wall_time_s")
        run["selection"].get("metadata", {}).pop("time_log", None)
    return payload


def _context_for(config, dataset):
    """The context the learn stage would bind ``config``'s selectors to."""
    return SelectionContext(
        dataset.graph, probability_method=config.probability_method
    )


def _forbid_learning(monkeypatch):
    """Make every learn/compile entry point explode if touched."""

    def _boom(name):
        def _fail(*args, **kwargs):
            raise AssertionError(f"{name} ran during a warm-start run")

        return _fail

    # scan_action_log and CDSpreadEvaluator are bound into the context
    # module at import time; the EM/LT/params learners are imported
    # lazily inside the accessors, so their home modules are the seam.
    monkeypatch.setattr(
        context_module, "scan_action_log", _boom("scan_action_log")
    )
    monkeypatch.setattr(
        context_module, "CDSpreadEvaluator", _boom("CDSpreadEvaluator")
    )
    import repro.core.params
    import repro.probabilities.em
    import repro.probabilities.lt_weights

    monkeypatch.setattr(
        repro.core.params, "learn_influenceability",
        _boom("learn_influenceability"),
    )
    monkeypatch.setattr(
        repro.probabilities.em, "learn_ic_probabilities_em",
        _boom("learn_ic_probabilities_em"),
    )
    monkeypatch.setattr(
        repro.probabilities.lt_weights, "learn_lt_weights",
        _boom("learn_lt_weights"),
    )


class TestSelectionParity:
    def test_cold_then_warm_identical_and_learning_skipped(
        self, tmp_path, monkeypatch
    ):
        store_dir = str(tmp_path / "store")
        cold = run_experiment(ExperimentConfig(**SELECTION, store=store_dir))
        assert cold.store_events["misses"]
        assert not cold.store_events["hits"]
        assert "credit_index" in cold.store_events["saved"]

        _forbid_learning(monkeypatch)
        warm = run_experiment(ExperimentConfig(**SELECTION, store=store_dir))
        assert not warm.store_events["misses"]
        assert set(warm.store_events["hits"]) >= {
            "credit_index", "cd_evaluator", "influence_params"
        }
        assert warm.store_events["context_key"] == (
            cold.store_events["context_key"]
        )
        assert _comparable(warm) == _comparable(cold)

    def test_warm_hit_under_process_executor(self, tmp_path, monkeypatch):
        store_dir = str(tmp_path / "store")
        cold = run_experiment(ExperimentConfig(**SELECTION, store=store_dir))
        _forbid_learning(monkeypatch)
        warm = run_experiment(
            ExperimentConfig(
                **SELECTION, store=store_dir, executor="process", max_workers=2
            )
        )
        assert not warm.store_events["misses"]
        assert _comparable(warm) == _comparable(cold)

    def test_store_runs_match_storeless_runs(self, tmp_path):
        store_dir = str(tmp_path / "store")
        plain = run_experiment(ExperimentConfig(**SELECTION))
        stored = run_experiment(ExperimentConfig(**SELECTION, store=store_dir))
        warm = run_experiment(ExperimentConfig(**SELECTION, store=store_dir))
        assert _comparable(stored) == _comparable(plain)
        assert _comparable(warm) == _comparable(plain)

    def test_warm_start_false_relearns_but_matches(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = run_experiment(ExperimentConfig(**SELECTION, store=store_dir))
        primed = run_experiment(
            ExperimentConfig(**SELECTION, store=store_dir, warm_start=False)
        )
        assert primed.store_events["misses"]  # consulted nothing
        assert not primed.store_events["hits"]
        assert _comparable(primed) == _comparable(cold)

    def test_different_seed_is_a_different_namespace(self, tmp_path):
        store_dir = str(tmp_path / "store")
        run_experiment(ExperimentConfig(**SELECTION, store=store_dir))
        other = run_experiment(
            ExperimentConfig(**{**SELECTION, "seed": 99}, store=store_dir)
        )
        assert other.store_events["misses"]  # no cross-seed reuse

    def test_numpy_relearn_reads_the_stored_compiled_log(
        self, tmp_path, monkeypatch
    ):
        # A kernel-built artifact that misses is relearned from the
        # stored compiled_log; compiling the log again must not happen.
        pytest.importorskip("numpy")
        from repro.kernels.interning import CompiledLog

        config = dict(SELECTION, backend="numpy", store=str(tmp_path / "store"))
        cold = run_experiment(ExperimentConfig(**config))
        store = ArtifactStore(config["store"])
        ckey = cold.store_events["context_key"]
        relearned = ("credit_index", "cd_evaluator")
        cold_bytes = {}
        for name in relearned:
            key = artifact_key(ckey, name)
            cold_bytes[name] = _payload_bytes(store, key)
            store.delete(key)

        def _no_compile(*args, **kwargs):
            raise AssertionError("the log was compiled again")

        monkeypatch.setattr(CompiledLog, "__init__", _no_compile)
        warm = run_experiment(ExperimentConfig(**config))
        assert "compiled_log" in warm.store_events["hits"]
        assert sorted(warm.store_events["misses"]) == sorted(relearned)
        for name in relearned:
            assert name in warm.store_events["saved"]
            key = artifact_key(ckey, name)
            assert _payload_bytes(store, key) == cold_bytes[name]
        assert _comparable(warm) == _comparable(cold)


def _payload_bytes(store, key):
    entry_dir = store.root / "objects" / key[:2] / key
    return (entry_dir / store.entry(key).payload_name).read_bytes()


class TestPredictionParity:
    def test_cold_then_warm_identical_and_learning_skipped(
        self, tmp_path, monkeypatch
    ):
        store_dir = str(tmp_path / "store")
        cold = run_experiment(ExperimentConfig(**PREDICTION, store=store_dir))
        assert cold.store_events["misses"]

        _forbid_learning(monkeypatch)
        warm = run_experiment(ExperimentConfig(**PREDICTION, store=store_dir))
        assert not warm.store_events["misses"]
        assert cold.rmse_table() == warm.rmse_table()
        assert _comparable(warm) == _comparable(cold)

    def test_warm_hit_under_process_executor(self, tmp_path, monkeypatch):
        store_dir = str(tmp_path / "store")
        cold = run_experiment(ExperimentConfig(**PREDICTION, store=store_dir))
        _forbid_learning(monkeypatch)
        warm = run_experiment(
            ExperimentConfig(
                **PREDICTION, store=store_dir, executor="process",
                max_workers=2,
            )
        )
        assert cold.rmse_table() == warm.rmse_table()

    def test_selection_and_prediction_share_the_namespace(self, tmp_path):
        # Same dataset, same split spec, same learn spec: the artifacts
        # a selection run saved serve the prediction run's CD model.
        store_dir = str(tmp_path / "store")
        run_experiment(ExperimentConfig(**SELECTION, store=store_dir))
        prediction = run_experiment(
            ExperimentConfig(**PREDICTION, store=store_dir)
        )
        assert "cd_evaluator" in prediction.store_events["hits"]


class TestCorruptionFallback:
    def test_corrupted_manifest_warns_and_relearns(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = run_experiment(ExperimentConfig(**SELECTION, store=store_dir))
        key = artifact_key(cold.store_events["context_key"], "credit_index")
        store = ArtifactStore(store_dir)
        manifest = store.root / "objects" / key[:2] / key / "manifest.json"
        manifest.write_text("{definitely not json")

        with pytest.warns(RuntimeWarning, match="corrupt"):
            warm = run_experiment(
                ExperimentConfig(**SELECTION, store=store_dir)
            )
        assert "credit_index" in warm.store_events["corrupt"]
        assert "credit_index" in warm.store_events["misses"]
        assert _comparable(warm) == _comparable(cold)

    def test_corrupted_payload_warns_and_relearns(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = run_experiment(ExperimentConfig(**SELECTION, store=store_dir))
        key = artifact_key(cold.store_events["context_key"], "cd_evaluator")
        payload = (
            ArtifactStore(store_dir).root / "objects" / key[:2] / key
            / "payload.bin"
        )
        payload.write_bytes(b"scrambled")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            warm = run_experiment(
                ExperimentConfig(**SELECTION, store=store_dir)
            )
        assert "cd_evaluator" in warm.store_events["misses"]
        assert _comparable(warm) == _comparable(cold)


class TestConfigSurface:
    def test_required_artifacts_selection(self, toy):
        config = ExperimentConfig(
            selectors=["cd", "pmia", "ldag"], probability_method="EM"
        )
        needed = required_artifacts(config, _context_for(config, toy))
        assert "credit_index" in needed
        assert "ic_probabilities/EM" in needed
        assert "lt_weights" in needed
        assert "cd_evaluator" in needed  # evaluate_spread default
        assert "influence_params" in needed

    def test_required_artifacts_prediction(self, toy):
        config = ExperimentConfig(
            task="prediction", methods=["UN", "IC", "LT", "CD"]
        )
        needed = required_artifacts(config, _context_for(config, toy))
        assert "ic_probabilities/UN" in needed
        assert "ic_probabilities/EM" in needed  # the IC entry
        assert "lt_weights" in needed
        assert "cd_evaluator" in needed

    def test_required_artifacts_pt_pulls_em(self, toy):
        config = ExperimentConfig(
            selectors=["pmia"], probability_method="PT", evaluate_spread=False
        )
        needed = required_artifacts(config, _context_for(config, toy))
        assert "ic_probabilities/PT" in needed
        assert "ic_probabilities/EM" in needed

    def test_config_round_trips_store_fields(self):
        config = ExperimentConfig(
            **SELECTION, store="/tmp/somewhere", warm_start=False
        )
        payload = json.loads(json.dumps(config.to_dict()))
        restored = ExperimentConfig.from_dict(payload)
        assert restored.store == "/tmp/somewhere"
        assert restored.warm_start is False

    def test_store_events_serialized_in_result(self, tmp_path):
        result = run_experiment(
            ExperimentConfig(**SELECTION, store=str(tmp_path / "store"))
        )
        payload = json.loads(result.to_json())
        assert payload["store"]["context_key"] == (
            result.store_events["context_key"]
        )

    def test_invalid_store_config_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(**SELECTION, store=123)
        with pytest.raises(ValueError):
            ExperimentConfig(**SELECTION, warm_start="yes")


class TestOnlyReadSlotsAreStored:
    def test_routing_reads_the_context_method_and_scheme(
        self, tmp_path, flixster_mini
    ):
        context = SelectionContext(
            flixster_mini.graph,
            flixster_mini.log,
            probability_method="UN",
            credit_scheme="uniform",
        )
        config = ExperimentConfig(
            selectors=["cd", "pmia"], ks=[2], store=str(tmp_path / "store")
        )
        saved = run_experiment(config, context=context).store_events["saved"]
        assert "ic_probabilities/UN" in saved  # what pmia reads
        assert "ic_probabilities/EM" not in saved
        assert "influence_params" not in saved  # uniform credits

    def test_sketch_run_stores_no_sketch_batch(self, tmp_path):
        # Every hop cell draws its own per-trial batch, which is no
        # artifact slot.
        config = dict(
            SELECTION,
            selectors=[{"name": "hop", "params": {"num_sketches": 200}}],
            trials=2,
            store=str(tmp_path / "store"),
        )
        cold = run_experiment(ExperimentConfig(**config))
        assert "sketches" not in cold.store_events["saved"]
        warm = run_experiment(ExperimentConfig(**config))
        assert not warm.store_events["misses"]
        assert _comparable(warm) == _comparable(cold)

    def test_pt_method_alone_stores_no_em(self, tmp_path):
        config = ExperimentConfig(
            **SELECTION, probability_method="PT", store=str(tmp_path / "store")
        )
        saved = run_experiment(config).store_events["saved"]
        assert "ic_probabilities/EM" not in saved


class TestRepairAndPriming:
    def test_corrupt_payload_with_healthy_manifest_is_repaired(self, tmp_path):
        # The manifest stays valid, so a contains() check alone would
        # skip the rewrite forever; the warm pass must repair it.
        store_dir = str(tmp_path / "store")
        cold = run_experiment(ExperimentConfig(**SELECTION, store=store_dir))
        key = artifact_key(cold.store_events["context_key"], "credit_index")
        store = ArtifactStore(store_dir)
        payload = store.root / "objects" / key[:2] / key / "payload.bin"
        payload.write_bytes(b"bit rot")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            repairing = run_experiment(
                ExperimentConfig(**SELECTION, store=store_dir)
            )
        assert "credit_index" in repairing.store_events["saved"]
        # The repaired entry now loads cleanly: no warning, no misses.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            healed = run_experiment(
                ExperimentConfig(**SELECTION, store=store_dir)
            )
        assert not healed.store_events["misses"]
        assert _comparable(healed) == _comparable(cold)

    def test_priming_mode_rewrites_existing_entries(self, tmp_path):
        # warm_start=False is the documented refresh pass: stale (here:
        # corrupt) payloads must be overwritten even though their keys
        # already exist.
        store_dir = str(tmp_path / "store")
        cold = run_experiment(ExperimentConfig(**SELECTION, store=store_dir))
        key = artifact_key(cold.store_events["context_key"], "cd_evaluator")
        store = ArtifactStore(store_dir)
        payload = store.root / "objects" / key[:2] / key / "payload.bin"
        payload.write_bytes(b"stale")
        primed = run_experiment(
            ExperimentConfig(**SELECTION, store=store_dir, warm_start=False)
        )
        assert "cd_evaluator" in primed.store_events["saved"]
        store.get(key)  # the rewritten entry loads cleanly again

    def test_corrupt_graph_payload_is_rewritten(self, tmp_path):
        # Warm runs never *read* the graph artifact (only `repro serve`
        # does), so its health is probed byte-wise and repaired.
        store_dir = str(tmp_path / "store")
        cold = run_experiment(ExperimentConfig(**SELECTION, store=store_dir))
        key = artifact_key(cold.store_events["context_key"], "graph")
        store = ArtifactStore(store_dir)
        payload = store.root / "objects" / key[:2] / key / "payload.bin"
        payload.write_bytes(b"torn graph")
        repairing = run_experiment(
            ExperimentConfig(**SELECTION, store=store_dir)
        )
        assert "graph" in repairing.store_events["saved"]
        assert store.verify(key)
