"""The NumPy kernels' bounded-id numbering and EM's failure count.

``interning._first_seen`` numbers ids below a known bound through one
dense first-seen table; it must equal
``np.unique(ids, return_index=True, return_inverse=True)`` element for
element.  EM's ``_failure_counts`` counts failure episodes per chunk
of actions; it must equal a set-based per-action count whatever the
chunk size.  EM and the Eq.-9 parameters built on both must equal the
Python reference exactly, on logs with tied timestamps too.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.params import learn_influenceability
from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.kernels.em_numpy import (
    _failure_counts,
    learn_ic_probabilities_em_numpy,
)
from repro.kernels.interning import CompiledGraph, CompiledLog, _first_seen
from repro.kernels.params_numpy import learn_influenceability_numpy
from repro.probabilities.em import learn_ic_probabilities_em

from tests.test_properties import graph_and_log

IDS = {
    "empty": [],
    "one": [7],
    "all_equal": [3, 3, 3, 3],
    "sorted": [0, 1, 1, 2, 5, 5, 9],
    "reversed": [9, 5, 5, 2, 1, 1, 0],
    "random": random.Random(27).choices(range(50), k=400),
}


@pytest.mark.parametrize("dtype", ["int32", "int64"])
@pytest.mark.parametrize("name", sorted(IDS))
def test_first_seen_equals_np_unique(name, dtype):
    ids = np.array(IDS[name], dtype=dtype)
    expected = np.unique(ids, return_index=True, return_inverse=True)
    got = _first_seen(ids, 64)
    assert got[0].dtype == ids.dtype
    for got_part, expected_part in zip(got, expected):
        np.testing.assert_array_equal(got_part, expected_part)


# ---------------------------------------------------------------------------
# Failure episodes, chunk by chunk
# ---------------------------------------------------------------------------
def _oracle_failures(graph: SocialGraph, log: ActionLog) -> dict:
    """For each action, each performer's out-edges whose target did not
    perform it."""
    counts: dict = {}
    for action in log.actions():
        performed = {user for user, _ in log.trace(action)}
        for user in performed:
            if user not in graph:
                continue
            for target in graph.out_neighbors(user):
                if target not in performed:
                    counts[(user, target)] = counts.get((user, target), 0) + 1
    return counts


def _chunked_failures(graph: SocialGraph, log: ActionLog, per_chunk) -> dict:
    """``_failure_counts`` with ``per_chunk`` actions per chunk (``None``:
    all of them), as a ``{(source, target): count}`` dict."""
    compiled = CompiledLog(CompiledGraph(graph, log.users()), log)
    size = len(compiled.actions) if per_chunk is None else per_chunk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CompiledLog, "_MAX_CHUNK_ACTIONS", size)
        patch.setattr(
            CompiledLog, "_CHUNK_SLOT_BUDGET", size * compiled.graph.n
        )
        assert CompiledLog._chunk_size(compiled.graph.n) == size
        counts = _failure_counts(compiled)
    return dict(zip(
        compiled.graph.edges(np.flatnonzero(counts)),
        counts[counts > 0].tolist(),
    ))


CHUNKS = [1, 2, None]


@pytest.mark.parametrize("per_chunk", CHUNKS)
def test_failure_counts_on_flixster_mini(flixster_mini, per_chunk):
    graph, log = flixster_mini.graph, flixster_mini.log
    assert _chunked_failures(graph, log, per_chunk) == _oracle_failures(
        graph, log
    )


@pytest.mark.parametrize("per_chunk", CHUNKS)
def test_failure_counts_with_stray_users(per_chunk):
    # Node 2 has no out-edges and node 3 none at all; user 9 performs
    # actions but is missing from the graph (an isolated extra row).
    graph = SocialGraph.from_edges([(0, 1), (1, 2), (0, 2)])
    graph.add_node(3)
    log = ActionLog.from_tuples([
        (0, "a", 1.0), (1, "a", 2.0),
        (2, "b", 1.0), (3, "b", 1.0),
        (9, "c", 0.5), (0, "c", 1.0),
        (9, "d", 3.0),
    ])
    expected = {(0, 2): 2, (1, 2): 1, (0, 1): 1}
    assert _oracle_failures(graph, log) == expected
    assert _chunked_failures(graph, log, per_chunk) == expected


@given(data=graph_and_log(max_nodes=9, max_actions=6))
@settings(max_examples=40, deadline=None)
def test_failure_counts_on_random_instances(data):
    graph, log = data
    expected = _oracle_failures(graph, log)
    for per_chunk in CHUNKS:
        assert _chunked_failures(graph, log, per_chunk) == expected


# ---------------------------------------------------------------------------
# The learners, bit for bit against the reference
# ---------------------------------------------------------------------------
@st.composite
def tied_graph_and_log(draw, max_nodes=8, max_actions=6):
    """A random graph and a log whose times come from a few integer
    values, so most actions hold tied activations."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    graph = SocialGraph()
    for node in range(num_nodes):
        graph.add_node(node)
    for source in range(num_nodes):
        for target in range(num_nodes):
            if source != target and rng.random() < 0.45:
                graph.add_edge(source, target)
    log = ActionLog()
    for index in range(draw(st.integers(min_value=1, max_value=max_actions))):
        for user in rng.sample(range(num_nodes), rng.randint(1, num_nodes)):
            log.add(user, f"a{index}", float(rng.randint(0, 3)))
    return graph, log


@given(data=tied_graph_and_log())
@settings(max_examples=60, deadline=None)
def test_learners_equal_the_reference_with_ties(data):
    graph, log = data
    python = learn_ic_probabilities_em(graph, log)
    vectorized = learn_ic_probabilities_em_numpy(graph, log)
    assert list(vectorized.probabilities.items()) == list(
        python.probabilities.items()
    )
    assert vectorized.iterations == python.iterations
    assert vectorized.converged == python.converged

    python = learn_influenceability(graph, log)
    vectorized = learn_influenceability_numpy(graph, log)
    assert list(vectorized.tau.items()) == list(python.tau.items())
    assert list(vectorized.infl.items()) == list(python.infl.items())
    assert vectorized.average_tau == python.average_tau
