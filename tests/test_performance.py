"""Figures 7-9 and Table 4 through run_experiment.

Figure 7 is the selection task's runtime curves.  A point of the
Figure 8-9 tuple sweep or the Table 4 truncation sweep is one traced
``cd`` run over its own SelectionContext: its scan and selection
seconds are the ``credit_index`` build and ``maximize.cd`` spans, its
memory the credit index's exact size (the benches in ``benchmarks/``
run the same protocol at scale).
"""

from types import SimpleNamespace

import pytest

from repro.api import ExperimentConfig, SelectionContext, run_experiment
from repro.core.credit import TimeDecayCredit
from repro.core.maximize import cd_maximize
from repro.core.params import learn_influenceability
from repro.core.scan import scan_action_log
from repro.obs import Trace

K = 5


@pytest.fixture(scope="module")
def dataset():
    from repro.data.datasets import flixster_like

    return flixster_like("mini")


def _cd_point(context, evaluate_spread=False):
    """One traced ``cd`` run over ``context``, as a sweep row."""
    config = ExperimentConfig(
        selectors=["cd"], ks=[K], evaluate_spread=evaluate_spread
    )
    with Trace().activate() as trace:
        result = run_experiment(config, context=context)

    def seconds(name, **attrs):
        (found,) = [
            recorded.duration_s
            for recorded in trace.spans
            if recorded.name == name
            and all(recorded.attrs.get(key) == value
                    for key, value in attrs.items())
        ]
        return found

    index = context.credit_index()
    run = result.runs[0]
    return SimpleNamespace(
        num_tuples=context.train_log.num_tuples,
        truncation=context.truncation,
        seeds=run.selection.seeds,
        scan_seconds=seconds("context.build", artifact="credit_index"),
        select_seconds=seconds("maximize.cd"),
        index_entries=index.total_entries,
        memory_bytes=index.nbytes,
        spread=run.final_spread(),
    )


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
        log = dataset.log
        total = log.num_tuples
        rows = []
        for count in (total // 4, total // 2, total):
            sublog = log if count >= total else log.head_tuples(count)
            context = SelectionContext(dataset.graph, sublog)
            rows.append(_cd_point(context))
        # The full-log point scores every point (Figure 9).
        evaluator = context.cd_evaluator()
        true_seeds = set(rows[-1].seeds)
        for row in rows:
            row.spread = evaluator.spread(row.seeds)
            row.true_seed_overlap = len(true_seeds & set(row.seeds))
        return rows

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
        assert all(len(row.seeds) == K for row in rows)

    def test_spans_time_the_scan_and_the_selection(self, rows):
        assert all(row.scan_seconds > 0 for row in rows)
        assert all(row.select_seconds > 0 for row in rows)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_point_matches_the_reference_pipeline(self, dataset, backend):
        if backend == "numpy":
            pytest.importorskip("numpy", exc_type=ImportError)
        graph = dataset.graph
        sublog = dataset.log.head_tuples(dataset.log.num_tuples // 2)
        truncation = 0.01
        row = _cd_point(
            SelectionContext(
                graph, sublog, truncation=truncation, backend=backend
            )
        )
        index = scan_action_log(
            graph,
            sublog,
            credit=TimeDecayCredit(learn_influenceability(graph, sublog)),
            truncation=truncation,
        )
        entries, nbytes = index.total_entries, index.nbytes
        assert row.seeds == cd_maximize(index, K, mutate=True).seeds
        assert (row.index_entries, row.memory_bytes) == (entries, nbytes)


class TestTruncation:
    @pytest.fixture(scope="class")
    def rows(self, dataset):
        # The lambda-independent slots are built once and injected into
        # every point, so a point's build span covers its scan alone.
        shared = SelectionContext(dataset.graph, dataset.log)
        shared.cd_evaluator()
        rows = []
        for value in (0.1, 0.01, 0.0001):
            context = SelectionContext(
                dataset.graph, dataset.log, truncation=value
            )
            for name in shared.artifact_names():
                context.set_artifact(name, shared.get_artifact(name))
            rows.append(_cd_point(context, evaluate_spread=True))
        reference = set(rows[-1].seeds)  # smallest lambda
        for row in rows:
            row.true_seeds_discovered = len(reference & set(row.seeds))
        return rows

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
