"""Failure-injection tests: malformed inputs fail loudly, never silently.

The Zen rule "errors should never pass silently" applied across the
library's entry points: corrupted files, inconsistent arguments,
impossible model parameters and misuse of stateful objects must raise
clear exceptions — not produce quietly wrong influence estimates.
"""

import pytest

from repro.data.actionlog import ActionLog
from repro.data.io import (
    load_action_log,
    load_edge_values,
    load_graph,
)
from repro.graphs.digraph import SocialGraph


class TestCorruptFiles:
    def test_graph_with_too_many_fields(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("1\t2\t3\t4\n")
        with pytest.raises(ValueError, match="expected 1 or 2 fields"):
            load_graph(path)

    def test_log_with_missing_column(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("1\ta\n")
        with pytest.raises(ValueError, match="expected 3 fields"):
            load_action_log(path)

    def test_log_with_non_numeric_time(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("1\ta\tnoon\n")
        with pytest.raises(ValueError):
            load_action_log(path)

    def test_log_with_duplicate_tuple(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("1\ta\t0.0\n1\ta\t5.0\n")
        with pytest.raises(ValueError, match="already performed"):
            load_action_log(path)

    def test_edge_values_with_non_numeric_value(self, tmp_path):
        path = tmp_path / "values.tsv"
        path.write_text("1\t2\thigh\n")
        with pytest.raises(ValueError):
            load_edge_values(path)

    @pytest.mark.parametrize("token", ["inf", "nan"])
    def test_edge_values_with_non_finite_value(self, tmp_path, token):
        path = tmp_path / "values.tsv"
        path.write_text(f"1\t2\t0.5\n2\t3\t{token}\n")
        with pytest.raises(ValueError, match="values.tsv:2: .*finite"):
            load_edge_values(path)

    def test_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_graph(tmp_path / "does-not-exist.tsv")


def _scan_numpy(graph, truncation):
    pytest.importorskip("numpy")
    from repro.kernels.scan_numpy import scan_action_log_numpy

    return scan_action_log_numpy(graph, ActionLog(), truncation=truncation)


class TestModelParameterValidation:
    def test_graph_rejects_self_loop(self):
        graph = SocialGraph()
        with pytest.raises(ValueError, match="self-loop"):
            graph.add_edge(1, 1)

    def test_lt_validation_rejects_overweight_node(self):
        from repro.diffusion.lt import validate_lt_weights

        graph = SocialGraph.from_edges([(1, 3), (2, 3)])
        with pytest.raises(ValueError, match="exceeds 1"):
            validate_lt_weights(graph, {(1, 3): 0.7, (2, 3): 0.7})

    def test_negative_lt_weight_rejected(self):
        from repro.diffusion.lt import validate_lt_weights

        graph = SocialGraph.from_edges([(1, 2)])
        with pytest.raises(ValueError, match="negative"):
            validate_lt_weights(graph, {(1, 2): -0.1})

    def test_scan_rejects_negative_truncation(self):
        from repro.core.scan import scan_action_log

        with pytest.raises(ValueError):
            scan_action_log(SocialGraph(), ActionLog(), truncation=-0.001)

    def test_numpy_scan_rejects_actions_beside_a_compiled_log(self):
        # A CompiledLog fixes the actions it holds; a subset is
        # compiled on its own, never sliced out of a larger log.
        pytest.importorskip("numpy")
        from repro.kernels.interning import CompiledGraph, CompiledLog
        from repro.kernels.scan_numpy import scan_action_log_numpy

        graph = SocialGraph.from_edges([(1, 2)])
        log = ActionLog.from_tuples(
            [(1, "a", 0.0), (2, "a", 1.0), (1, "b", 0.0)]
        )
        compiled = CompiledLog(CompiledGraph(graph, log.users()), log)
        with pytest.raises(ValueError, match="not both"):
            scan_action_log_numpy(
                graph, log, actions=["a"], compiled=compiled
            )

    def test_index_rejects_negative_truncation(self):
        from repro.core.index import CreditIndex

        with pytest.raises(ValueError):
            CreditIndex(truncation=-1.0)

    @pytest.mark.parametrize(
        "call",
        [
            "scan_python",
            "scan_numpy",
            "streaming_index",
            "credit_index",
            "cd_cover_target",
            "simpath_eta",
            "simpath_oracle_eta",
        ],
    )
    def test_nan_threshold_rejected(self, call):
        # ``value < 0`` is False for NaN; a NaN truncation would drop
        # every credit on one backend and keep them on the other.
        from repro.core.coverage import cd_cover
        from repro.core.index import CreditIndex
        from repro.core.scan import scan_action_log
        from repro.core.streaming import StreamingCreditIndex
        from repro.maximization.simpath import SimPathOracle, simpath_spread

        nan = float("nan")
        graph = SocialGraph.from_edges([(1, 2)])
        calls = {
            "scan_python": lambda: scan_action_log(
                graph, ActionLog(), truncation=nan
            ),
            "scan_numpy": lambda: _scan_numpy(graph, nan),
            "streaming_index": lambda: StreamingCreditIndex(
                graph, truncation=nan
            ),
            "credit_index": lambda: CreditIndex(truncation=nan),
            "cd_cover_target": lambda: cd_cover(CreditIndex(), nan),
            "simpath_eta": lambda: simpath_spread(graph, {}, [1], eta=nan),
            "simpath_oracle_eta": lambda: SimPathOracle(graph, {}, eta=nan),
        }
        with pytest.raises(ValueError, match="non-negative"):
            calls[call]()

    def test_time_decay_credit_rejects_bad_tau(self):
        from repro.core.credit import TimeDecayCredit
        from repro.core.params import InfluenceabilityParams

        params = InfluenceabilityParams(average_tau=1.0)
        with pytest.raises(ValueError, match="default_tau"):
            TimeDecayCredit(params, default_tau=0.0)

    def test_probability_validators(self):
        from repro.probabilities.static import (
            trivalency_probabilities,
            uniform_probabilities,
        )

        graph = SocialGraph.from_edges([(1, 2)])
        with pytest.raises(ValueError):
            uniform_probabilities(graph, probability=1.5)
        with pytest.raises(ValueError):
            trivalency_probabilities(graph, values=())


NON_FINITE = [float("inf"), float("nan")]
BACKENDS = ["python", "numpy"]


def _path_graph():
    return SocialGraph.from_edges([(1, 2), (2, 3), (3, 4)])


class TestNonFiniteEdgeValues:
    """A NaN or infinite IC probability / LT weight is rejected, by
    name, before any backend turns it into a spread or a sketch."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("model", ["ic", "lt"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spread_estimator(self, backend, model, value):
        from repro.runtime.estimator import SpreadEstimator

        if backend == "numpy":
            pytest.importorskip("numpy")
        values = {(1, 2): value, (2, 3): 0.5}
        with pytest.raises(ValueError, match=r"edge \(1, 2\) .*non-finite"):
            SpreadEstimator(
                _path_graph(), values, model=model, num_simulations=200,
                seed=1, backend=backend,
            ).spread([1])

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sketch_generators(self, backend, value):
        from repro.core.sketch import generate_sketches

        if backend == "numpy":
            pytest.importorskip("numpy")
            from repro.kernels.sketch_numpy import CompiledSketcher
        values = {(1, 2): 0.5, (2, 3): value}
        with pytest.raises(ValueError, match=r"edge \(2, 3\) .*non-finite"):
            if backend == "numpy":
                CompiledSketcher.from_graph(_path_graph(), values).generate(
                    50, seed=1
                )
            else:
                generate_sketches(_path_graph(), values, 50, seed=1)


class TestStatefulMisuse:
    def test_action_log_duplicate_add(self):
        log = ActionLog()
        log.add(1, "a", 0.0)
        with pytest.raises(ValueError, match="already performed"):
            log.add(1, "a", 1.0)

    def test_streaming_double_flush_of_same_action(self):
        from repro.core.streaming import StreamingCreditIndex

        stream = StreamingCreditIndex(SocialGraph.from_edges([(1, 2)]))
        stream.observe(1, "a", 0.0)
        stream.flush()
        # The buffer is empty now; re-flushing the same name is a no-op,
        # and re-observing the action is an error.
        assert stream.flush(actions=["a"]) == 0
        with pytest.raises(ValueError, match="frozen"):
            stream.observe(2, "a", 1.0)

    def test_queue_pop_empty(self):
        from repro.utils.pqueue import LazyQueue

        with pytest.raises(IndexError):
            LazyQueue().pop()

    def test_trace_of_unknown_action(self):
        log = ActionLog.from_tuples([(1, "a", 0.0)])
        with pytest.raises(KeyError, match="does not appear"):
            log.trace("b")

    def test_time_of_never_performed(self):
        log = ActionLog.from_tuples([(1, "a", 0.0)])
        with pytest.raises(KeyError, match="never performed"):
            log.time_of(2, "a")

    def test_remove_missing_edge(self):
        graph = SocialGraph.from_edges([(1, 2)])
        with pytest.raises(KeyError, match="not in graph"):
            graph.remove_edge(2, 1)


class TestDegenerateInputsAreHandled:
    """Degenerate-but-valid inputs must work, not crash."""

    def test_empty_graph_everywhere(self):
        from repro.core.scan import scan_action_log
        from repro.graphs.metrics import summarize_graph
        from repro.maximization.degree_discount import single_discount_seeds

        empty = SocialGraph()
        assert summarize_graph(empty).num_nodes == 0
        assert single_discount_seeds(empty, 5) == []
        index = scan_action_log(empty, ActionLog())
        assert index.total_entries == 0

    def test_log_user_missing_from_graph(self):
        """Containment violations degrade gracefully (isolated nodes)."""
        from repro.core.scan import scan_action_log

        graph = SocialGraph.from_edges([(1, 2)])
        log = ActionLog.from_tuples(
            [(1, "a", 0.0), (2, "a", 1.0), ("stranger", "a", 2.0)]
        )
        index = scan_action_log(graph, log, truncation=0.0)
        # The stranger participates (activity counted) but exchanges no
        # credit — it has no social ties.
        assert index.activity["stranger"] == 1
        assert index.credit(1, "a", "stranger") == 0.0

    def test_single_node_dataset(self):
        from repro.core.maximize import cd_maximize
        from repro.core.scan import scan_action_log

        graph = SocialGraph.from_edges([], nodes=[1])
        log = ActionLog.from_tuples([(1, "a", 0.0)])
        index = scan_action_log(graph, log)
        result = cd_maximize(index, k=3)
        assert result.seeds == [1]
        assert result.spread == pytest.approx(1.0)

    def test_simultaneous_activations_no_credit(self):
        """Equal timestamps: neither user influenced the other."""
        from repro.core.scan import scan_action_log

        graph = SocialGraph.from_edges([(1, 2), (2, 1)])
        log = ActionLog.from_tuples([(1, "a", 5.0), (2, "a", 5.0)])
        index = scan_action_log(graph, log, truncation=0.0)
        assert index.credit(1, "a", 2) == 0.0
        assert index.credit(2, "a", 1) == 0.0
