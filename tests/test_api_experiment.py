"""Tests for repro.api.experiment: config validation and the runner."""

import json

import pytest

from repro.api import (
    ExperimentConfig,
    SelectionContext,
    SelectorConfig,
    get_selector,
    run_experiment,
)


def toy_config(**overrides):
    base = dict(dataset="toy", selectors=["cd", "high_degree"], ks=[1, 2])
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert [s.name for s in config.selectors] == ["cd"]

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"dataset": "twitter"}, "dataset"),
            ({"scale": "huge"}, "scale"),
            ({"selectors": []}, "non-empty"),
            ({"selectors": ["cd", "cd"]}, "unique"),
            ({"selectors": [{"params": {}}]}, "name"),
            ({"selectors": [{"name": "cd", "extra": 1}]}, "unknown key"),
            ({"selectors": [{"name": "warp"}]}, "unknown selector"),
            ({"selectors": [{"name": "cd", "params": {"bad": 1}}]},
             "unknown parameter"),
            ({"ks": []}, "non-empty"),
            ({"ks": [0]}, ">= 1"),
            ({"trials": 0}, "trials"),
            ({"probability_method": "XYZ"}, "probability_method"),
            ({"split_every": 1}, "split_every"),
            ({"num_simulations": 0}, "num_simulations"),
            ({"truncation": -0.5}, "truncation"),
            ({"truncation": float("nan")}, "truncation"),
        ],
    )
    def test_invalid_configs_rejected(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            toy_config(**overrides)

    def test_same_selector_twice_needs_labels(self):
        config = toy_config(
            selectors=[
                {"name": "celf", "params": {"model": "ic"}, "label": "IC"},
                {"name": "celf", "params": {"model": "lt"}, "label": "LT"},
            ]
        )
        assert [s.display() for s in config.selectors] == ["IC", "LT"]

    def test_ks_sorted_and_deduplicated(self):
        config = toy_config(ks=[2, 1, 2])
        assert config.ks == [1, 2]

    def test_toy_is_never_split(self):
        assert toy_config(split=True).split is False

    def test_dict_round_trip(self):
        config = toy_config(trials=2, seed=11)
        restored = ExperimentConfig.from_dict(config.to_dict())
        assert restored.to_dict() == config.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown key"):
            ExperimentConfig.from_dict({"dataset": "toy", "turbo": True})

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(toy_config().to_dict()))
        config = ExperimentConfig.from_json_file(str(path))
        assert config.dataset == "toy"

    def test_selector_config_coerce_rejects_garbage(self):
        with pytest.raises(ValueError, match="selector entry"):
            SelectorConfig.coerce(42)


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(toy_config())

    def test_one_run_per_selector_trial(self, result):
        assert [run.label for run in result.runs] == ["cd", "high_degree"]
        assert all(run.trial == 0 for run in result.runs)

    def test_selects_at_max_k(self, result):
        for run in result.runs:
            assert len(run.selection.seeds) == 2

    def test_curves_cover_the_grid(self, result):
        for run in result.runs:
            assert [k for k, _ in run.curve] == [1, 2]
            spreads = [spread for _, spread in run.curve]
            assert spreads == sorted(spreads)  # monotone in k

    def test_stage_timings_recorded(self, result):
        assert {"dataset_s", "split_s", "select_s", "evaluate_s"} <= set(
            result.timings
        )

    def test_spread_series_and_finals(self, result):
        series = result.spread_series()
        finals = result.final_spreads()
        assert set(series) == {"cd", "high_degree"}
        assert finals["cd"] >= finals["high_degree"]

    def test_runtime_curves_only_for_supporting_selectors(self, result):
        curves = result.runtime_curves()
        assert "cd" in curves
        assert "high_degree" not in curves

    def test_render_mentions_every_label(self, result):
        text = result.render()
        assert "cd" in text and "high_degree" in text

    def test_result_json_round_trips(self, result):
        payload = json.loads(result.to_json())
        assert payload["dataset"] == "toy"
        assert len(payload["runs"]) == 2
        assert payload["config"]["selectors"][0]["name"] == "cd"

    def test_unknown_label_raises(self, result):
        with pytest.raises(ValueError, match="no runs"):
            result.selections("nope")

    def test_parity_with_direct_call_through_full_pipeline(self, toy):
        """The acceptance check: run_experiment == pre-registry direct call."""
        from repro.core.maximize import cd_maximize

        result = run_experiment(toy_config())
        ctx = SelectionContext(toy.graph, toy.log)
        direct = cd_maximize(ctx.credit_index(), 2, mutate=False)
        assert result.selections("cd")[0].seeds == direct.seeds

    def test_every_selector_parity_via_run_experiment(self, toy):
        """Acceptance: run_experiment dispatch == pre-refactor direct call,
        for every registered selector, on the toy example."""
        from repro.api import selector_names
        from repro.core.maximize import cd_maximize
        from repro.maximization.celf import celf_maximize
        from repro.maximization.degree_discount import (
            degree_discount_ic_seeds,
            single_discount_seeds,
        )
        from repro.maximization.greedy import greedy_maximize
        from repro.maximization.heuristics import (
            high_degree_seeds,
            pagerank_seeds,
        )
        from repro.maximization.irie import irie_seeds
        from repro.maximization.ldag import LDAGModel
        from repro.maximization.pmia import PMIAModel
        from repro.maximization.ris import ris_maximize
        from repro.maximization.simpath import simpath_maximize

        from repro.core.budget import cd_budget_maximize

        k = 2
        config = ExperimentConfig(
            dataset="toy",
            selectors=[
                {"name": name, "params": {"num_rr_sets": 300}}
                if name == "ris"
                else name
                for name in selector_names()
            ],
            ks=[k],
        )
        result = run_experiment(config)

        # Mirror the runner: same context construction, same derived seeds.
        ctx = SelectionContext(
            toy.graph,
            toy.log,
            probability_method=config.probability_method,
            num_simulations=config.num_simulations,
            truncation=config.truncation,
            seed=config.seed,
        )
        em = ctx.ic_probabilities("EM")
        weights = ctx.lt_weights()
        direct = {
            "cd": cd_maximize(ctx.credit_index(), k, mutate=False).seeds,
            "cd_budget": cd_budget_maximize(
                ctx.credit_index(), budget=float(k)
            ).seeds,
            "greedy": greedy_maximize(ctx.cd_evaluator(), k).seeds,
            "celf": celf_maximize(ctx.cd_evaluator(), k).seeds,
            "ris": ris_maximize(
                toy.graph, em, k,
                num_rr_sets=300, seed=ctx.derive_seed("ris", 0),
            ).seeds,
            "hop": ris_maximize(
                toy.graph, em, k,
                num_rr_sets=10_000, seed=ctx.derive_seed("hop", 0), hops=2,
            ).seeds,
            "simpath": simpath_maximize(toy.graph, weights, k).seeds,
            "pmia": PMIAModel(toy.graph, em).select_seeds(k).seeds,
            "ldag": LDAGModel(toy.graph, weights).select_seeds(k).seeds,
            "irie": irie_seeds(toy.graph, em, k),
            "high_degree": high_degree_seeds(toy.graph, k),
            "pagerank": pagerank_seeds(toy.graph, k),
            "single_discount": single_discount_seeds(toy.graph, k),
            "degree_discount": degree_discount_ic_seeds(toy.graph, k),
        }
        assert set(direct) == set(selector_names())
        from repro.api import SeedSelection

        for name, expected in direct.items():
            selection = result.selections(name)[0]
            assert isinstance(selection, SeedSelection)
            assert selection.seeds == expected, name

    def test_same_config_same_selection(self):
        config = toy_config(
            selectors=[{"name": "ris", "params": {"num_rr_sets": 200}}],
        )
        first = run_experiment(config)
        second = run_experiment(config)
        assert (
            first.selections("ris")[0].seeds
            == second.selections("ris")[0].seeds
        )

    def test_trials_fan_out_deterministically(self):
        config = toy_config(
            selectors=[{"name": "ris", "params": {"num_rr_sets": 50}}],
            trials=2,
        )
        result = run_experiment(config)
        seeds_used = [
            run.selection.params["seed"] for run in result.runs
        ]
        assert len(set(seeds_used)) == 2  # distinct derived child seeds
        repeat = run_experiment(config)
        assert seeds_used == [
            run.selection.params["seed"] for run in repeat.runs
        ]

    def test_pinned_seed_is_respected_across_trials(self):
        config = toy_config(
            selectors=[
                {"name": "ris", "params": {"num_rr_sets": 50, "seed": 9}}
            ],
            trials=2,
        )
        result = run_experiment(config)
        assert all(
            run.selection.params["seed"] == 9 for run in result.runs
        )

    def test_evaluate_spread_off_skips_curves(self):
        result = run_experiment(toy_config(evaluate_spread=False))
        assert all(run.curve == [] for run in result.runs)
        assert "evaluate_s" not in result.timings

    def test_prebuilt_dataset_and_context_are_used(self, toy):
        context = SelectionContext(toy.graph, toy.log)
        result = run_experiment(
            toy_config(), dataset=toy, context=context
        )
        assert result.dataset_name == toy.name
        assert "dataset_s" not in result.timings  # stages skipped
        direct = get_selector("cd")(context, 2)
        assert result.selections("cd")[0].seeds == direct.seeds

    def test_mini_dataset_runs_with_split(self, flixster_mini):
        config = ExperimentConfig(
            dataset="flixster",
            scale="mini",
            selectors=["cd", "degree_discount"],
            ks=[3],
        )
        result = run_experiment(config, dataset=flixster_mini)
        assert result.dataset_name == "flixster_mini"
        for run in result.runs:
            assert len(run.selection.seeds) == 3
