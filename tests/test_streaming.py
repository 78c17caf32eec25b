"""The in-memory streaming path: a growing action log folded through
:class:`~repro.stream.ActionLogDelta` and :func:`~repro.stream.fold_delta`.

Tuples arrive in deltas, a ``close`` marks a trace complete, and each
fold scans the newly closed traces into a copy of the standing credit
index while open tuples ride along as ``FoldResult.pending``.  The
store-backed path (``derive_bundle``, ``/ingest``) and the fold parity
suites are in ``tests/test_stream.py``.
"""

import pytest

from repro.api import SelectionContext, get_selector
from repro.core.maximize import cd_maximize
from repro.core.scan import scan_action_log
from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.stream import ActionLogDelta, fold_delta
from tests.helpers import random_instance


@pytest.fixture()
def chain_graph():
    return SocialGraph.from_edges([(1, 2), (2, 3)])


def empty_context(graph, truncation=0.001):
    """A uniform-credit context over an empty log, its index built."""
    context = SelectionContext(
        graph, ActionLog(), credit_scheme="uniform", truncation=truncation
    )
    context.credit_index()
    return context


def make_delta(tuples=(), closed=()):
    delta = ActionLogDelta()
    for user, action, time in tuples:
        delta.add(user, action, time)
    for action in closed:
        delta.close(action)
    return delta


def fold_traces(context, log, actions, pending=()):
    """Fold the whole traces of ``actions`` from ``log``, closing them."""
    delta = make_delta(closed=actions)
    for action in actions:
        for user, time in log.trace(action):
            delta.add(user, action, time)
    return fold_delta(context, delta, pending=pending)


class TestIngestion:
    def test_observe_buffers(self, chain_graph):
        fold = fold_delta(empty_context(chain_graph), make_delta([(1, "a", 0.0)]))
        assert fold.pending == [(1, "a", 0.0)]
        assert fold.report.closed_actions == 0
        assert fold.context.credit_index().total_entries == 0  # nothing folded yet

    def test_duplicate_tuple_rejected(self, chain_graph):
        fold = fold_delta(empty_context(chain_graph), make_delta([(1, "a", 0.0)]))
        with pytest.raises(ValueError, match="already performed"):
            fold_delta(
                fold.context, make_delta([(1, "a", 5.0)]), pending=fold.pending
            )

    def test_late_tuple_for_flushed_action_rejected(self, chain_graph):
        fold = fold_delta(
            empty_context(chain_graph), make_delta([(1, "a", 0.0)], ["a"])
        )
        with pytest.raises(ValueError, match="frozen"):
            fold_delta(fold.context, make_delta([(2, "a", 1.0)]))

    def test_observe_many(self, chain_graph):
        fold = fold_delta(
            empty_context(chain_graph),
            make_delta([(1, "a", 0.0), (2, "a", 1.0)]),
        )
        assert len(fold.pending) == 2
        assert fold.report.pending_tuples == 2

    def test_invalid_truncation_raises(self, chain_graph):
        # The standing index's threshold is the context's.
        with pytest.raises(ValueError, match="non-negative"):
            empty_context(chain_graph, truncation=-0.1)


class TestFlush:
    def test_flush_folds_trace(self, chain_graph):
        fold = fold_delta(
            empty_context(chain_graph, truncation=0.0),
            make_delta([(1, "a", 0.0), (2, "a", 1.0), (3, "a", 2.0)], ["a"]),
        )
        assert fold.report.closed_actions == 1
        assert "credit_index" in fold.report.updated
        assert fold.context.train_log.num_actions == 1
        assert fold.pending == []
        assert fold.context.credit_index().credit(1, "a", 2) == pytest.approx(1.0)

    def test_selective_flush(self, chain_graph):
        fold = fold_delta(
            empty_context(chain_graph),
            make_delta([(1, "a", 0.0), (1, "b", 0.0)], ["a"]),
        )
        assert fold.report.closed_actions == 1
        assert fold.pending == [(1, "b", 0.0)]

    def test_flush_unknown_action_is_rejected(self, chain_graph):
        # An action with no tuples in the delta or the pending state
        # cannot close.
        with pytest.raises(ValueError, match="no tuples"):
            fold_delta(empty_context(chain_graph), make_delta(closed=["nothing"]))

    def test_flush_empty_buffer(self, chain_graph):
        context = empty_context(chain_graph)
        fold = fold_delta(context, ActionLogDelta())
        assert fold.report.closed_actions == 0
        assert fold.report.carried == ["credit_index"]
        assert fold.context.credit_index() is context.credit_index()

    def test_out_of_order_tuples_within_trace(self, chain_graph):
        """Tuples may arrive in any order; folding sorts chronologically."""
        fold = fold_delta(
            empty_context(chain_graph, truncation=0.0),
            # User 1 arrives late but acted first.
            make_delta([(2, "a", 1.0), (1, "a", 0.0)], ["a"]),
        )
        index = fold.context.credit_index()
        assert index.credit(1, "a", 2) == 1.0
        assert index.credit(2, "a", 1) == 0.0


class TestBatchEquivalence:
    """Folding in waves must equal one batch scan of the full log."""

    def _random_stream_equals_batch(self, seed: int) -> None:
        graph, log = random_instance(seed=seed, num_nodes=10, num_actions=8)
        batch_index = scan_action_log(graph, log, truncation=0.0)

        context = empty_context(graph, truncation=0.0)
        actions = list(log.actions())
        # Two traces per fold.
        for start in range(0, len(actions), 2):
            context = fold_traces(context, log, actions[start : start + 2]).context
        index = context.credit_index()

        assert index.total_entries == batch_index.total_entries
        assert index.activity == batch_index.activity
        for influencer, action, influenced, value in batch_index.entries():
            assert index.credit(influencer, action, influenced) == pytest.approx(
                value
            )

    def test_equivalence_seed_0(self):
        self._random_stream_equals_batch(0)

    def test_equivalence_seed_7(self):
        self._random_stream_equals_batch(7)

    def test_same_seeds_as_batch(self):
        graph, log = random_instance(seed=21, num_nodes=12, num_actions=10)
        batch_index = scan_action_log(graph, log, truncation=0.0)
        expected = cd_maximize(batch_index, k=3)

        context = empty_context(graph, truncation=0.0)
        for action in log.actions():
            context = fold_traces(context, log, [action]).context
        result = get_selector("cd").select(context, 3)
        assert result.seeds == expected.seeds
        assert result.spread == pytest.approx(expected.spread)


class TestSelection:
    def test_select_is_non_destructive(self, chain_graph):
        fold = fold_delta(
            empty_context(chain_graph, truncation=0.0),
            make_delta([(1, "a", 0.0), (2, "a", 1.0), (3, "a", 2.0)], ["a"]),
        )
        entries_before = fold.context.credit_index().total_entries
        selector = get_selector("cd")
        first = selector.select(fold.context, 2)
        second = selector.select(fold.context, 2)
        assert fold.context.credit_index().total_entries == entries_before
        assert first.seeds == second.seeds

    def test_seed_set_improves_as_data_arrives(self, chain_graph):
        """More folded traces can only add spread for a fixed seed user."""
        selector = get_selector("cd")
        early = fold_delta(
            empty_context(chain_graph, truncation=0.0),
            make_delta([(1, "a", 0.0), (2, "a", 1.0)], ["a"]),
        ).context
        late = fold_delta(
            early,
            make_delta([(1, "b", 0.0), (2, "b", 1.0), (3, "b", 2.0)], ["b"]),
        ).context
        assert selector.select(late, 1).spread >= selector.select(early, 1).spread

    def test_negative_k_raises(self, chain_graph):
        with pytest.raises(ValueError, match="non-negative"):
            get_selector("cd").select(empty_context(chain_graph), -1)

    def test_repr_mentions_state(self):
        assert "tuples=1" in repr(make_delta([(1, "a", 0.0)]))
