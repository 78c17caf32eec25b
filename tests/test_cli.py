"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main
from repro.data.io import load_action_log, load_graph, save_action_log, save_graph


@pytest.fixture()
def dataset_files(tmp_path, flixster_mini):
    graph_path = tmp_path / "graph.tsv"
    log_path = tmp_path / "log.tsv"
    save_graph(flixster_mini.graph, graph_path)
    save_action_log(flixster_mini.log, log_path)
    return str(graph_path), str(log_path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dance"])

    def test_generate_defaults(self):
        args = build_parser().parse_args(
            ["generate", "--graph", "g.tsv", "--log", "l.tsv"]
        )
        assert args.dataset == "flixster"
        assert args.scale == "small"


class TestGenerate:
    def test_writes_both_files(self, tmp_path, capsys):
        graph_path = tmp_path / "g.tsv"
        log_path = tmp_path / "l.tsv"
        code = main(
            [
                "generate", "--dataset", "flixster", "--scale", "mini",
                "--graph", str(graph_path), "--log", str(log_path),
            ]
        )
        assert code == 0
        assert "wrote flixster_mini" in capsys.readouterr().out
        graph = load_graph(graph_path)
        log = load_action_log(log_path)
        assert graph.num_nodes > 0
        assert log.num_tuples > 0

    def test_seed_override_changes_data(self, tmp_path):
        paths = [
            (tmp_path / f"g{i}.tsv", tmp_path / f"l{i}.tsv") for i in (0, 1)
        ]
        for (graph_path, log_path), seed in zip(paths, ("1", "2")):
            main(
                [
                    "generate", "--scale", "mini", "--seed", seed,
                    "--graph", str(graph_path), "--log", str(log_path),
                ]
            )
        first = load_action_log(paths[0][1])
        second = load_action_log(paths[1][1])
        assert sorted(map(repr, first.tuples())) != sorted(
            map(repr, second.tuples())
        )


class TestStats:
    def test_prints_table(self, dataset_files, capsys, flixster_mini):
        graph_path, log_path = dataset_files
        code = main(["stats", "--graph", graph_path, "--log", log_path])
        assert code == 0
        output = capsys.readouterr().out
        assert str(flixster_mini.graph.num_nodes) in output
        assert "#tuples" in output


class TestSplit:
    def test_partitions_log(self, dataset_files, tmp_path, capsys, flixster_mini):
        _, log_path = dataset_files
        train_path = tmp_path / "train.tsv"
        test_path = tmp_path / "test.tsv"
        code = main(
            [
                "split", "--log", log_path,
                "--train", str(train_path), "--test", str(test_path),
            ]
        )
        assert code == 0
        train = load_action_log(train_path)
        test = load_action_log(test_path)
        total = flixster_mini.log.num_actions
        assert train.num_actions + test.num_actions == total


class TestMaximize:
    def test_cd_method(self, dataset_files, capsys):
        graph_path, log_path = dataset_files
        code = main(
            [
                "maximize", "--graph", graph_path, "--log", log_path,
                "--method", "CD", "-k", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "CD seeds (k=3)" in output
        assert output.count("\n") >= 5  # title + header + 3 rows

    def test_high_degree_method(self, dataset_files, capsys):
        graph_path, log_path = dataset_files
        code = main(
            [
                "maximize", "--graph", graph_path, "--log", log_path,
                "--method", "HighDegree", "-k", "2",
            ]
        )
        assert code == 0
        assert "HighDegree seeds" in capsys.readouterr().out


class TestListSelectors:
    def test_lists_registry(self, capsys):
        code = main(["list-selectors"])
        assert code == 0
        output = capsys.readouterr().out
        from repro.api import selector_names

        for name in selector_names():
            assert name in output
        assert "registered selectors" in output

    def test_family_filter(self, capsys):
        code = main(["list-selectors", "--family", "heuristic"])
        assert code == 0
        output = capsys.readouterr().out
        assert "high_degree" in output
        assert "celf" not in output


class TestRun:
    def _write_config(self, tmp_path, payload):
        import json

        path = tmp_path / "exp.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_runs_experiment_from_json(self, tmp_path, capsys):
        config_path = self._write_config(
            tmp_path,
            {
                "dataset": "toy",
                "selectors": ["cd", "high_degree"],
                "ks": [1, 2],
            },
        )
        code = main(["run", "--config", config_path])
        assert code == 0
        output = capsys.readouterr().out
        assert "experiment on toy" in output
        assert "stage timings" in output

    def test_out_writes_full_result(self, tmp_path, capsys):
        import json

        config_path = self._write_config(
            tmp_path, {"dataset": "toy", "selectors": ["cd"], "ks": [2]}
        )
        out_path = tmp_path / "result.json"
        code = main(["run", "--config", config_path, "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["runs"][0]["selection"]["seeds"]

    def test_bad_config_reports_error(self, tmp_path, capsys):
        config_path = self._write_config(
            tmp_path, {"dataset": "toy", "selectors": ["warp"]}
        )
        code = main(["run", "--config", config_path])
        assert code == 2
        assert "bad experiment config" in capsys.readouterr().err

    def test_type_invalid_config_reports_error(self, tmp_path, capsys):
        # ks must be a list; a scalar raises TypeError inside validation
        # and must still surface as the friendly exit-2 message.
        config_path = self._write_config(
            tmp_path, {"dataset": "toy", "selectors": ["cd"], "ks": 5}
        )
        code = main(["run", "--config", config_path])
        assert code == 2
        assert "bad experiment config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        [
            {"num_simulations": 0},
            {"truncation": -0.5},
            {"truncation": float("nan")},  # written as JSON NaN
        ],
    )
    def test_bad_numbers_rejected_before_any_work(self, tmp_path, capsys, bad):
        config_path = self._write_config(
            tmp_path, {"dataset": "toy", "selectors": ["cd"], "ks": [1], **bad}
        )
        code = main(["run", "--config", config_path])
        assert code == 2
        assert "bad experiment config" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "bad experiment config" in capsys.readouterr().err


class TestPredict:
    def test_prints_rmse_table(self, dataset_files, capsys):
        graph_path, log_path = dataset_files
        code = main(
            [
                "predict", "--graph", graph_path, "--log", log_path,
                "--max-traces", "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "RMSE" in output
        assert "CD" in output


class TestAnalyze:
    def test_leaderboard_printed(self, dataset_files, capsys):
        graph_path, log_path = dataset_files
        code = main(
            ["analyze", "--graph", graph_path, "--log", log_path, "--top", "5"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "influencer leaderboard" in output
        assert "total credit" in output

    def test_user_report(self, dataset_files, capsys, flixster_mini):
        graph_path, log_path = dataset_files
        # Pick a user who definitely received influence: any non-initiator.
        log = load_action_log(log_path)
        graph = load_graph(graph_path)
        from repro.core.scan import scan_action_log
        from repro.core.queries import most_influential

        index = scan_action_log(graph, log, truncation=0.001)
        influencer = most_influential(index, limit=1)[0][0]
        from repro.core.queries import influence_vector

        target = next(iter(influence_vector(index, influencer)))
        code = main(
            [
                "analyze", "--graph", graph_path, "--log", log_path,
                "--user", str(target),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert f"top influencers of user {target}" in output

    def test_seed_explanation(self, dataset_files, capsys):
        graph_path, log_path = dataset_files
        code = main(
            ["analyze", "--graph", graph_path, "--log", log_path, "-k", "3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "selected seeds (k=3)" in output
        assert "redundancy" in output


class TestCover:
    def test_absolute_target(self, dataset_files, capsys):
        graph_path, log_path = dataset_files
        code = main(
            ["cover", "--graph", graph_path, "--log", log_path,
             "--target", "5.0"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "cover for target 5.0" in output
        assert "reached = yes" in output

    def test_fractional_target(self, dataset_files, capsys):
        graph_path, log_path = dataset_files
        code = main(
            ["cover", "--graph", graph_path, "--log", log_path,
             "--target-fraction", "0.25"]
        )
        assert code == 0
        assert "reached = yes" in capsys.readouterr().out

    def test_fraction_out_of_range_rejected(self, dataset_files, capsys):
        graph_path, log_path = dataset_files
        code = main(
            ["cover", "--graph", graph_path, "--log", log_path,
             "--target-fraction", "1.5"]
        )
        assert code == 2
        assert "must be in (0, 1]" in capsys.readouterr().err

    def test_unreachable_target_exit_code(self, dataset_files, capsys):
        graph_path, log_path = dataset_files
        code = main(
            ["cover", "--graph", graph_path, "--log", log_path,
             "--target", "1e9", "--max-seeds", "2"]
        )
        assert code == 1
        assert "reached = NO" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--target", "-1"], "cover: target must be non-negative, got -1.0"),
            (["--target", "5", "--max-seeds", "-1"],
             "cover: max_seeds must be non-negative, got -1"),
        ],
    )
    def test_bad_number_is_a_usage_error(
        self, dataset_files, capsys, flags, message
    ):
        graph_path, log_path = dataset_files
        code = main(["cover", "--graph", graph_path, "--log", log_path, *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_target_and_fraction_mutually_exclusive(self, dataset_files):
        graph_path, log_path = dataset_files
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cover", "--graph", graph_path, "--log", log_path,
                 "--target", "5", "--target-fraction", "0.5"]
            )


class TestBudget:
    def test_unit_costs(self, dataset_files, capsys):
        graph_path, log_path = dataset_files
        code = main(
            ["budget", "--graph", graph_path, "--log", log_path,
             "--budget", "3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "budget 3.0" in output
        assert "winning rule" in output

    def test_activity_costs_respect_budget(self, dataset_files, capsys):
        graph_path, log_path = dataset_files
        code = main(
            ["budget", "--graph", graph_path, "--log", log_path,
             "--budget", "6", "--cost-scale", "5"]
        )
        assert code == 0
        output = capsys.readouterr().out
        spent = float(output.split("spent ")[1].split(" ")[0])
        assert spent <= 6.0 + 1e-9

    @pytest.mark.parametrize("budget", ["inf", "nan", "-1"])
    def test_bad_budget_is_a_usage_error(self, dataset_files, capsys, budget):
        graph_path, log_path = dataset_files
        code = main(
            ["budget", "--graph", graph_path, "--log", log_path,
             "--budget", budget]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # A non-number fails the selector's parameter type, a negative
        # budget the maximizer's bound.
        assert captured.err.startswith(
            "budget: budget must be non-negative" if budget == "-1"
            else f"budget: selector 'cd_budget' got budget {budget}; "
            "budget must be a finite number"
        )
        assert len(captured.err.splitlines()) == 1


class TestGraphStats:
    def test_prints_structure_table(self, dataset_files, capsys):
        graph_path, _ = dataset_files
        code = main(["graphstats", "--graph", graph_path])
        assert code == 0
        output = capsys.readouterr().out
        assert "graph structure" in output
        assert "reciprocity" in output
        assert "largest component" in output


class TestLearn:
    @pytest.mark.parametrize(
        "model", ["em", "bernoulli", "jaccard", "partial-credits", "lt"]
    )
    def test_learn_writes_edge_values(
        self, dataset_files, tmp_path, capsys, model
    ):
        graph_path, log_path = dataset_files
        out_path = tmp_path / "learned.tsv"
        code = main(
            [
                "learn", "--graph", graph_path, "--log", log_path,
                "--model", model, "--out", str(out_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert f"model '{model}'" in output
        from repro.data.io import load_edge_values

        values = load_edge_values(out_path)
        assert values
        assert all(0.0 <= value <= 1.0 for value in values.values())

    def test_learned_values_lie_on_graph_edges(self, dataset_files, tmp_path):
        graph_path, log_path = dataset_files
        out_path = tmp_path / "learned.tsv"
        main(
            [
                "learn", "--graph", graph_path, "--log", log_path,
                "--model", "bernoulli", "--out", str(out_path),
            ]
        )
        from repro.data.io import load_edge_values

        graph = load_graph(graph_path)
        for edge in load_edge_values(out_path):
            assert graph.has_edge(*edge)


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_setup_py_agrees_with_package_version(self):
        # Single source of truth: the packaging metadata must track
        # repro.__version__ (and the CLI prints that same string).
        import re
        from pathlib import Path

        import repro

        setup_text = Path(__file__).parent.parent.joinpath(
            "setup.py"
        ).read_text(encoding="utf-8")
        match = re.search(r"version=\"([^\"]+)\"", setup_text)
        assert match, "setup.py has no version= field"
        assert match.group(1) == repro.__version__


class TestStoreCommands:
    @pytest.fixture()
    def store_dir(self, dataset_files, tmp_path, capsys):
        graph_path, log_path = dataset_files
        store_path = tmp_path / "store"
        code = main(
            [
                "learn", "--graph", graph_path, "--log", log_path,
                "--store", str(store_path),
            ]
        )
        assert code == 0
        assert "stored context" in capsys.readouterr().out
        return str(store_path)

    def test_learn_requires_out_or_store(self, dataset_files, capsys):
        graph_path, log_path = dataset_files
        code = main(["learn", "--graph", graph_path, "--log", log_path])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_store_ls_lists_artifacts(self, store_dir, capsys):
        code = main(["store", "ls", "--store", store_dir])
        assert code == 0
        output = capsys.readouterr().out
        for artifact in ("credit_index", "cd_evaluator", "lt_weights",
                         "ic_probabilities/EM", "graph", "__context__"):
            assert artifact in output
        assert "1 context(s)" in output

    def test_store_gc_clean_store_removes_nothing(self, store_dir, capsys):
        code = main(["store", "gc", "--store", store_dir])
        assert code == 0
        assert "removed 0 entries" in capsys.readouterr().out

    def test_store_gc_dry_run_reports_broken_entry(self, store_dir, capsys):
        from pathlib import Path

        payload = next(Path(store_dir).glob("objects/*/*/payload.bin"))
        payload.write_bytes(b"garbage")
        code = main(["store", "gc", "--store", store_dir, "--dry-run"])
        assert code == 0
        assert "would remove 1" in capsys.readouterr().out
        code = main(["store", "gc", "--store", store_dir])
        assert code == 0
        assert "removed 1" in capsys.readouterr().out

    def test_stored_bundle_serves_selection(self, store_dir):
        from repro.store.service import QueryService

        service = QueryService(store_dir)
        response = service.select({"selector": "cd", "k": 3})
        assert len(response["selection"]["seeds"]) == 3

    def test_prefix_precomputes_and_serves_lookups(self, store_dir, capsys):
        from repro.store.service import QueryService

        code = main(
            ["prefix", "--store", store_dir, "--selector", "cd",
             "--k-max", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "prefix cd: k_max=4 (resumable)" in out
        service = QueryService(store_dir)
        response = service.select({"selector": "cd", "k": 3})
        assert len(response["selection"]["seeds"]) == 3
        assert service._select_paths == {"prefix": 1, "resume": 0, "cold": 0}

    def test_default_bundle_is_what_serve_reads(self, store_dir):
        from repro.store import ArtifactStore
        from repro.store.warm import load_context_record

        from repro.kernels import resolve_backend

        record = load_context_record(ArtifactStore(store_dir))
        expected = [
            "cd_evaluator", "credit_index", "ic_probabilities/EM",
            "influence_params", "lt_weights",
        ]
        if resolve_backend(None) == "numpy":
            expected.append("compiled_log")  # the kernels' shared input
        assert sorted(record["artifacts"]) == sorted(expected)

    def test_learned_probability_method_keeps_every_predictor_servable(
        self, dataset_files, tmp_path, capsys
    ):
        # /predict IC reads the EM probabilities whatever the context's
        # method is, so a WC bundle stores both.
        from repro.store.service import QueryService

        graph_path, log_path = dataset_files
        store_path = str(tmp_path / "wc-store")
        code = main([
            "learn", "--graph", graph_path, "--log", log_path,
            "--store", store_path, "--probability-method", "WC",
        ])
        assert code == 0
        service = QueryService(store_path)
        seeds = service.select({"selector": "cd", "k": 2})["selection"]["seeds"]
        for method in ("IC", "LT", "CD"):
            response = service.predict({"seeds": seeds, "method": method})
            assert response["predicted_spread"] >= len(seeds)
        # The context's own method serves the probability selectors.
        response = service.select({"selector": "pmia", "k": 2})
        assert len(response["selection"]["seeds"]) == 2

    def test_prefix_rejects_unknown_selector(self, store_dir, capsys):
        code = main(
            ["prefix", "--store", store_dir, "--selector", "pagerank",
             "--k-max", "4"]
        )
        assert code == 2
        assert "no prefix support" in capsys.readouterr().err


class TestListSelectorCapabilities:
    def test_needs_and_flags_columns(self, capsys):
        code = main(["list-selectors"])
        assert code == 0
        output = capsys.readouterr().out
        assert "needs" in output and "flags" in output
        cd_row = next(
            line for line in output.splitlines()
            if line.startswith("cd ")
        )
        assert "index" in cd_row
        budget_row = next(
            line for line in output.splitlines()
            if line.startswith("cd_budget")
        )
        assert "budget" in budget_row
