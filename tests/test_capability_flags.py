"""The registry capability flags are load-bearing, one test per flag.

The registry declares the flags and the runtime consumes them:
``bind_selector`` / ``ExperimentConfig`` reject budget workloads on selectors without
``supports_budget``, and the pipeline's learn stage validates the
``needs_*`` flags against the bound context *before* anything runs,
raising :class:`~repro.api.ConfigError` with the missing artifact named.
``stochastic`` drives the per-trial seed fan-out and
``supports_time_log`` the Figure-7 instrumentation, as before — asserted
here alongside the new routing so every flag has a dedicated test.
"""

from __future__ import annotations

import pytest

from repro.api import (
    ConfigError,
    ExperimentConfig,
    SelectionContext,
    get_selector,
    run_experiment,
)


@pytest.fixture()
def structural_context(toy):
    """A context with a graph but no training log."""
    return SelectionContext(toy.graph)


def selection_config(**overrides):
    base = dict(dataset="toy", ks=[2])
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSupportsBudget:
    def test_budget_workload_rejected_without_flag(self):
        with pytest.raises(ConfigError, match="supports_budget"):
            selection_config(selectors=["cd"], budget=2.0)

    def test_budget_workload_rejected_at_bind_time(self, toy):
        # A config mutated after construction still cannot smuggle a
        # budget past bind_selector.
        config = selection_config(selectors=["cd"])
        config.budget = 2.0
        with pytest.raises(ConfigError, match="supports_budget"):
            run_experiment(config)

    def test_budget_injected_into_budget_aware_selector(self):
        config = selection_config(selectors=["cd_budget"], budget=2.0)
        result = run_experiment(config)
        selection = result.selections("cd_budget")[0]
        assert selection.params["budget"] == 2.0
        assert selection.metadata["spent"] <= 2.0
        assert selection.metadata["rule"] in ("benefit", "ratio")

    def test_pinned_budget_param_wins_over_workload(self):
        config = selection_config(
            selectors=[{"name": "cd_budget", "params": {"budget": 1.0}}],
            budget=3.0,
        )
        result = run_experiment(config)
        assert result.selections("cd_budget")[0].params["budget"] == 1.0

    def test_budget_default_is_k(self, toy):
        from repro.core.budget import cd_budget_maximize

        context = SelectionContext(toy.graph, toy.log)
        selection = get_selector("cd_budget").select(context, 2)
        direct = cd_budget_maximize(context.credit_index(), budget=2.0)
        assert selection.seeds == direct.seeds


class TestNeedsIndex:
    def test_rejected_up_front_without_log(self, structural_context):
        config = selection_config(selectors=["cd"])
        with pytest.raises(ConfigError, match="credit_index"):
            run_experiment(config, context=structural_context)


class TestNeedsOracle:
    def test_cd_oracle_needs_log(self, structural_context):
        config = selection_config(selectors=["celf"])
        with pytest.raises(ConfigError, match="cd_evaluator"):
            run_experiment(config, context=structural_context)

    def test_learned_ic_oracle_needs_log(self, structural_context):
        config = selection_config(
            selectors=[{"name": "celf", "params": {"model": "ic"}}],
        )
        with pytest.raises(ConfigError, match="ic_probabilities/EM"):
            run_experiment(config, context=structural_context)

    def test_static_ic_oracle_runs_without_log(self, structural_context):
        config = selection_config(
            selectors=[
                {"name": "celf", "params": {"model": "ic", "method": "UN"}}
            ],
            evaluate_spread=False,
            num_simulations=10,
        )
        result = run_experiment(config, context=structural_context)
        assert len(result.runs) == 1


class TestNeedsProbabilities:
    def test_learned_method_needs_log(self, structural_context):
        config = selection_config(selectors=["pmia"])  # method defaults EM
        with pytest.raises(ConfigError, match="ic_probabilities/EM"):
            run_experiment(config, context=structural_context)

    def test_static_method_runs_without_log(self, structural_context):
        config = selection_config(
            selectors=[{"name": "pmia", "params": {"method": "UN"}}],
            evaluate_spread=False,
        )
        result = run_experiment(config, context=structural_context)
        assert len(result.runs[0].selection.seeds) == 2

    def test_context_method_routes_without_log(self, toy):
        # The context's own assignment is the one pmia reads, not the
        # config's default EM.
        context = SelectionContext(toy.graph, probability_method="UN")
        config = selection_config(selectors=["pmia"], evaluate_spread=False)
        result = run_experiment(config, context=context)
        direct = get_selector("pmia").select(context, 2)
        assert result.runs[0].selection.seeds == direct.seeds


class TestNeedsWeights:
    def test_rejected_up_front_without_log(self, structural_context):
        config = selection_config(selectors=["ldag"])
        with pytest.raises(ConfigError, match="lt_weights"):
            run_experiment(config, context=structural_context)


class TestNeedsSketches:
    def test_learned_method_needs_log(self, structural_context):
        config = selection_config(
            selectors=["hop"], evaluate_spread=False
        )  # method defaults EM
        with pytest.raises(ConfigError, match="ic_probabilities/EM"):
            run_experiment(config, context=structural_context)

    def test_static_method_runs_without_log(self, structural_context):
        config = selection_config(
            selectors=[
                {"name": "hop", "params": {"method": "WC", "num_sketches": 150}}
            ],
            evaluate_spread=False,
        )
        result = run_experiment(config, context=structural_context)
        assert len(result.runs[0].selection.seeds) == 2

    def test_parallel_run_equals_serial(self):
        config = selection_config(
            selectors=[{"name": "ris", "params": {"num_rr_sets": 100}}],
            executor="thread",
            trials=2,
            evaluate_spread=False,
        )
        result = run_experiment(config)
        assert len(result.runs) == 2
        serial = run_experiment(
            selection_config(
                selectors=[{"name": "ris", "params": {"num_rr_sets": 100}}],
                trials=2,
                evaluate_spread=False,
            )
        )
        assert [run.selection.seeds for run in result.runs] == [
            run.selection.seeds for run in serial.runs
        ]


class TestParallelPrefetch:
    def test_learn_stage_builds_exactly_the_required_artifacts(
        self, monkeypatch
    ):
        # A per-trial sketch batch or oracle is read by one cell only,
        # so the cell builds it; the parent builds the shared slots.
        import repro.runtime.pipeline as pipeline
        from repro.store.warm import required_artifacts

        calls = []
        for name in ("sketches", "oracle"):
            original = getattr(SelectionContext, name)

            def spy(self, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(SelectionContext, name, spy)
        learned = {}

        def record(state):
            learned["context"] = state.context
            learned["names"] = state.context.artifact_names()

        monkeypatch.setattr(pipeline, "_stage_select", record)
        # What the rule asks for before the learn stage: once the slots
        # are held, their riders are no longer required.
        required = []

        def requiring(config, context):
            required.append(required_artifacts(config, context))
            return required[-1]

        monkeypatch.setattr(
            "repro.store.warm.required_artifacts", requiring
        )
        config = selection_config(
            selectors=[
                {"name": "ris", "params": {"num_rr_sets": 50}},
                {"name": "celf", "params": {"model": "ic"}},
            ],
            executor="thread",
            trials=2,
        )
        run_experiment(config)
        built = [name for name in learned["names"] if name != "compiled_log"]
        assert len(required) == 1
        assert sorted(built) == sorted(required[0])
        assert calls == []


class TestStochastic:
    def test_trial_seeds_derived_only_for_stochastic_selectors(self):
        config = selection_config(
            selectors=[
                {"name": "ris", "params": {"num_rr_sets": 50}},
                "high_degree",
            ],
            trials=2,
            evaluate_spread=False,
        )
        result = run_experiment(config)
        ris_seeds = {
            run.selection.params["seed"]
            for run in result.runs
            if run.label == "ris"
        }
        assert len(ris_seeds) == 2  # distinct derived child seeds
        for run in result.runs:
            if run.label == "high_degree":
                assert "seed" not in run.selection.params


class TestSupportsTimeLog:
    def test_only_flagged_selectors_record_curves(self):
        config = selection_config(selectors=["cd", "high_degree"])
        result = run_experiment(config)
        curves = result.runtime_curves()
        assert "cd" in curves and "high_degree" not in curves


class TestValidationHappensBeforeSelection:
    def test_no_selector_runs_when_any_entry_is_invalid(
        self, structural_context
    ):
        # high_degree alone would succeed; the invalid cd entry must
        # abort the experiment before anything is selected.
        config = selection_config(selectors=["high_degree", "cd"])
        with pytest.raises(ConfigError):
            run_experiment(config, context=structural_context)

    def test_evaluation_without_log_rejected_before_selection(
        self, structural_context, monkeypatch
    ):
        import repro.runtime.pipeline as pipeline

        def no_selection(state):
            raise AssertionError("a selector ran before validation")

        monkeypatch.setattr(pipeline, "_stage_select", no_selection)
        config = selection_config(selectors=["high_degree"])
        with pytest.raises(ConfigError, match="cd_evaluator"):
            run_experiment(config, context=structural_context)
