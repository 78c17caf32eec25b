"""Tests for repro.evaluation.performance (Figures 8-9, Table 4) and the
Figure-7 runtime curves of the selection task."""

import pytest

from repro.api import ExperimentConfig, run_experiment
from repro.evaluation.performance import (
    scalability_experiment,
    truncation_experiment,
)


@pytest.fixture(scope="module")
def dataset():
    from repro.data.datasets import flixster_like

    return flixster_like("mini")


class TestRuntimeComparison:
    """Figure 7 through the selection task: cumulative seconds to reach
    each seed count under MC-CELF IC, MC-CELF LT and CD."""

    @pytest.fixture(scope="class")
    def curves(self):
        config = ExperimentConfig(
            dataset="flixster",
            scale="mini",
            selectors=[
                {"name": "celf", "params": {"model": "ic"}, "label": "IC"},
                {"name": "celf", "params": {"model": "lt"}, "label": "LT"},
                {"name": "cd", "label": "CD"},
            ],
            ks=[5],
            num_simulations=10,
            evaluate_spread=False,
        )
        return run_experiment(config).runtime_curves()

    def test_all_methods_present(self, curves):
        assert set(curves) == {"IC", "LT", "CD"}

    def test_curves_cover_every_k(self, curves):
        for method in curves:
            assert [count for count, _ in curves[method]] == [1, 2, 3, 4, 5]

    def test_times_non_decreasing(self, curves):
        for method, points in curves.items():
            times = [elapsed for _, elapsed in points]
            assert times == sorted(times), method

    def test_method_subset(self):
        config = ExperimentConfig(
            dataset="flixster",
            scale="mini",
            selectors=[{"name": "cd", "label": "CD"}],
            ks=[2],
            evaluate_spread=False,
        )
        assert set(run_experiment(config).runtime_curves()) == {"CD"}


class TestScalability:
    @pytest.fixture(scope="class")
    def rows(self, dataset):
        total = dataset.log.num_tuples
        return scalability_experiment(
            dataset.graph,
            dataset.log,
            tuple_counts=[total // 4, total // 2, total],
            k=5,
        )

    def test_row_per_count(self, rows):
        assert len(rows) == 3

    def test_tuples_non_decreasing(self, rows):
        counts = [row.num_tuples for row in rows]
        assert counts == sorted(counts)

    def test_memory_grows_with_tuples(self, rows):
        assert rows[0].memory_bytes <= rows[-1].memory_bytes

    def test_full_log_discovers_all_true_seeds(self, rows):
        # The last row *is* the full log, so its seeds are the true seeds.
        assert rows[-1].true_seed_overlap == len(rows[-1].seeds)

    def test_spread_non_trivial(self, rows):
        assert all(row.spread > 0 for row in rows)

    def test_seed_count(self, rows):
        assert all(len(row.seeds) == 5 for row in rows)

    def test_empty_counts_raise(self, dataset):
        with pytest.raises(ValueError):
            scalability_experiment(dataset.graph, dataset.log, tuple_counts=[])


class TestTruncation:
    @pytest.fixture(scope="class")
    def rows(self, dataset):
        return truncation_experiment(
            dataset.graph, dataset.log, truncations=[0.1, 0.01, 0.0001], k=5
        )

    def test_sorted_largest_lambda_first(self, rows):
        lambdas = [row.truncation for row in rows]
        assert lambdas == sorted(lambdas, reverse=True)

    def test_memory_grows_as_lambda_shrinks(self, rows):
        entries = [row.index_entries for row in rows]
        assert entries == sorted(entries)

    def test_reference_row_discovers_itself(self, rows):
        assert rows[-1].true_seeds_discovered == len(rows[-1].seeds)

    def test_quality_non_decreasing_roughly(self, rows):
        # Smaller lambda keeps more credit: spread should not get *worse*
        # by more than noise.
        assert rows[-1].spread >= rows[0].spread - 1e-9

    def test_empty_truncations_raise(self, dataset):
        with pytest.raises(ValueError):
            truncation_experiment(dataset.graph, dataset.log, truncations=[])
