"""Tests for repro.core.streaming (incremental index maintenance)."""

import pytest

from repro.core.maximize import cd_maximize
from repro.core.scan import scan_action_log
from repro.core.streaming import StreamingCreditIndex
from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from tests.helpers import random_instance


@pytest.fixture()
def chain_graph():
    return SocialGraph.from_edges([(1, 2), (2, 3)])


class TestIngestion:
    def test_observe_buffers(self, chain_graph):
        stream = StreamingCreditIndex(chain_graph)
        stream.observe(1, "a", 0.0)
        assert stream.pending_actions() == ["a"]
        assert stream.pending_tuples() == 1
        assert stream.index.total_entries == 0  # nothing folded yet

    def test_duplicate_tuple_rejected(self, chain_graph):
        stream = StreamingCreditIndex(chain_graph)
        stream.observe(1, "a", 0.0)
        with pytest.raises(ValueError, match="already performed"):
            stream.observe(1, "a", 5.0)

    def test_late_tuple_for_flushed_action_rejected(self, chain_graph):
        stream = StreamingCreditIndex(chain_graph)
        stream.observe(1, "a", 0.0)
        stream.flush()
        with pytest.raises(ValueError, match="frozen"):
            stream.observe(2, "a", 1.0)

    def test_observe_many(self, chain_graph):
        stream = StreamingCreditIndex(chain_graph)
        stream.observe_many([(1, "a", 0.0), (2, "a", 1.0)])
        assert stream.pending_tuples() == 2

    def test_invalid_truncation_raises(self, chain_graph):
        with pytest.raises(ValueError):
            StreamingCreditIndex(chain_graph, truncation=-0.1)


class TestFlush:
    def test_flush_folds_trace(self, chain_graph):
        stream = StreamingCreditIndex(chain_graph, truncation=0.0)
        stream.observe_many([(1, "a", 0.0), (2, "a", 1.0), (3, "a", 2.0)])
        folded = stream.flush()
        assert folded == 1
        assert stream.flushed_actions == 1
        assert stream.pending_tuples() == 0
        assert stream.index.credit(1, "a", 2) == pytest.approx(1.0)

    def test_selective_flush(self, chain_graph):
        stream = StreamingCreditIndex(chain_graph)
        stream.observe(1, "a", 0.0)
        stream.observe(1, "b", 0.0)
        assert stream.flush(actions=["a"]) == 1
        assert stream.pending_actions() == ["b"]

    def test_flush_unknown_action_is_noop(self, chain_graph):
        stream = StreamingCreditIndex(chain_graph)
        assert stream.flush(actions=["nothing"]) == 0

    def test_flush_empty_buffer(self, chain_graph):
        stream = StreamingCreditIndex(chain_graph)
        assert stream.flush() == 0

    def test_out_of_order_tuples_within_trace(self, chain_graph):
        """Tuples may arrive in any order; folding sorts chronologically."""
        stream = StreamingCreditIndex(chain_graph, truncation=0.0)
        stream.observe(2, "a", 1.0)
        stream.observe(1, "a", 0.0)  # arrives late but happened first
        stream.flush()
        assert stream.index.credit(1, "a", 2) == pytest.approx(1.0)
        assert stream.index.credit(2, "a", 1) == 0.0


class TestBatchEquivalence:
    """Streamed folding must equal one batch scan of the full log."""

    def _random_stream_equals_batch(self, seed: int) -> None:
        graph, log = random_instance(seed=seed, num_nodes=10, num_actions=8)
        batch_index = scan_action_log(graph, log, truncation=0.0)

        stream = StreamingCreditIndex(graph, truncation=0.0)
        actions = list(log.actions())
        # Interleave: observe two traces, flush one, etc.
        for position, action in enumerate(actions):
            for user, time in log.trace(action):
                stream.observe(user, action, time)
            if position % 2 == 1:
                stream.flush(actions=[actions[position - 1], action])
        stream.flush()

        assert stream.index.total_entries == batch_index.total_entries
        assert stream.index.activity == batch_index.activity
        for influencer, action, influenced, value in batch_index.entries():
            assert stream.index.credit(
                influencer, action, influenced
            ) == pytest.approx(value)

    def test_equivalence_seed_0(self):
        self._random_stream_equals_batch(0)

    def test_equivalence_seed_7(self):
        self._random_stream_equals_batch(7)

    def test_same_seeds_as_batch(self):
        graph, log = random_instance(seed=21, num_nodes=12, num_actions=10)
        batch_index = scan_action_log(graph, log, truncation=0.0)
        expected = cd_maximize(batch_index, k=3)

        stream = StreamingCreditIndex(graph, truncation=0.0)
        for action in log.actions():
            for user, time in log.trace(action):
                stream.observe(user, action, time)
            stream.flush()
        result = stream.select_seeds(3)
        assert result.seeds == expected.seeds
        assert result.spread == pytest.approx(expected.spread)


class TestSelection:
    def test_select_is_non_destructive(self, chain_graph):
        stream = StreamingCreditIndex(chain_graph, truncation=0.0)
        stream.observe_many([(1, "a", 0.0), (2, "a", 1.0), (3, "a", 2.0)])
        stream.flush()
        entries_before = stream.index.total_entries
        first = stream.select_seeds(2)
        second = stream.select_seeds(2)
        assert stream.index.total_entries == entries_before
        assert first.seeds == second.seeds

    def test_seed_set_improves_as_data_arrives(self, chain_graph):
        """More folded traces can only add spread for a fixed seed user."""
        stream = StreamingCreditIndex(chain_graph, truncation=0.0)
        stream.observe_many([(1, "a", 0.0), (2, "a", 1.0)])
        stream.flush()
        early = stream.select_seeds(1).spread
        stream.observe_many([(1, "b", 0.0), (2, "b", 1.0), (3, "b", 2.0)])
        stream.flush()
        late = stream.select_seeds(1).spread
        assert late >= early

    def test_negative_k_raises(self, chain_graph):
        stream = StreamingCreditIndex(chain_graph)
        with pytest.raises(ValueError):
            stream.select_seeds(-1)

    def test_repr_mentions_state(self, chain_graph):
        stream = StreamingCreditIndex(chain_graph)
        stream.observe(1, "a", 0.0)
        assert "pending=1" in repr(stream)
