"""``cd_maximize``'s two engines: the python reference and the numpy
columnar engine (``repro.kernels.cd_numpy.CDEngine``).

* Both backends agree on seeds, gains, spread, oracle calls and
  checkpoints, and export ``CDState`` pickles of equal bytes.
* A state exported at k=5 by either backend and resumed to k=15 by
  either backend, in memory or after a pickle round trip, equals the
  cold k=15 run, exported bytes included.  On flixster_mini that
  state carries seed credit on pairs the compacted index no longer
  targets: some still own a segment, some have neither.
* The ``maximize.cd`` span counts Algorithm 3's work equally on both
  backends.
* The engine sums floats in the reference's order only.
"""

from __future__ import annotations

import ast
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.core.credit import TimeDecayCredit
from repro.core.maximize import cd_maximize
from repro.core.params import learn_influenceability
from repro.core.scan import scan_action_log
from repro.obs.trace import Trace

from tests.test_properties import graph_and_log

BACKENDS = kernels.available_backends()
needs_numpy = pytest.mark.skipif(
    "numpy" not in BACKENDS, reason="the numpy engine needs NumPy"
)
CD_NUMPY = Path(__file__).resolve().parent.parent / "src/repro/kernels/cd_numpy.py"


@pytest.fixture(scope="module")
def mini_index(flixster_mini):
    """flixster_mini's time-decay credit index at truncation 0.001."""
    credit = TimeDecayCredit(
        learn_influenceability(flixster_mini.graph, flixster_mini.log)
    )
    return scan_action_log(
        flixster_mini.graph, flixster_mini.log, credit=credit,
        truncation=0.001,
    )


def _run(index, k, backend, state=None):
    """``(result, checkpoints, exported state bytes)`` of one run."""
    checkpoints, state_out = [], []
    result = cd_maximize(
        index, k, backend=backend, checkpoints=checkpoints, state=state,
        state_out=state_out,
    )
    return result, checkpoints, pickle.dumps(state_out[0])


def _same_run(one, two, skipped=0):
    """Two runs agree exactly; ``two`` may have resumed past ``skipped``
    seeds, so it holds only the later checkpoints."""
    (first, first_checkpoints, first_bytes) = one
    (second, second_checkpoints, second_bytes) = two
    assert second.seeds == first.seeds
    assert second.gains == first.gains
    assert second.spread == first.spread
    assert second.oracle_calls == first.oracle_calls
    assert second_checkpoints == first_checkpoints[skipped:]
    assert second_bytes == first_bytes


def _assert_engines_agree(index):
    cold = {backend: _run(index, 15, backend) for backend in BACKENDS}
    _same_run(cold["python"], cold["numpy"])
    for exporter in BACKENDS:
        state_out = []
        cd_maximize(index, 5, backend=exporter, state_out=state_out)
        state_bytes = pickle.dumps(state_out[0])
        for resumer in BACKENDS:
            # In memory the state's index still holds its dead entries;
            # a pickle round trip compacts them away.
            for state in (state_out[0], pickle.loads(state_bytes)):
                resumed = _run(None, 15, resumer, state)
                _same_run(cold["python"], resumed, skipped=5)
        # Resuming leaves the state as it was.
        assert pickle.dumps(state_out[0]) == state_bytes


def _orphaned_pairs(state):
    """``(owned, neither)``: seed-credit pairs of ``state`` that no live
    entry targets, split by whether the user still has live entries
    on that action."""
    targets, owners = set(), set()
    for influencer, action, influenced, _ in state.index.entries():
        targets.add((action, influenced))
        owners.add((action, influencer))
    owned = neither = 0
    for user, by_action in state.seed_credits._credits.items():
        for action in by_action:
            if (action, user) in targets:
                continue
            if (action, user) in owners:
                owned += 1
            else:
                neither += 1
    return owned, neither


@needs_numpy
class TestBackendParity:
    def test_flixster_mini(self, mini_index):
        state = pickle.loads(_run(mini_index, 5, "python")[2])
        owned, neither = _orphaned_pairs(state)
        assert owned > 0 and neither > 0
        _assert_engines_agree(mini_index)

    @given(
        data=graph_and_log(),
        truncation=st.sampled_from([0.0, 0.05, 0.3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_instances(self, data, truncation):
        graph, log = data
        _assert_engines_agree(scan_action_log(graph, log, truncation=truncation))


def _maximize_span(index, k, backend, state=None):
    with Trace(trace_id="cd-work").activate() as trace:
        result = cd_maximize(index, k, backend=backend, state=state)
    (span,) = [span for span in trace.spans if span.name == "maximize.cd"]
    return result, span.attrs


@pytest.mark.parametrize("backend", BACKENDS)
class TestWorkCounters:
    def test_cold_run(self, mini_index, backend):
        result, attrs = _maximize_span(mini_index, 10, backend)
        assert attrs == {
            "k": 10,
            "resumed": False,
            "oracle_calls": 156,
            "seeds": 10,
            "lemma2_updates": 121,
            "lemma3_adds": 167,
        }
        assert result.oracle_calls == 156

    def test_resumed_run_counts_its_own_work(self, mini_index, backend):
        state_out = []
        cd_maximize(mini_index, 4, backend=backend, state_out=state_out)
        _, attrs = _maximize_span(None, 10, backend, state=state_out[0])
        assert attrs == {
            "k": 10,
            "resumed": True,
            "oracle_calls": 156,
            "seeds": 10,
            "lemma2_updates": 14,
            "lemma3_adds": 66,
        }


def test_engine_sums_in_reference_order():
    """``np.add.reduceat``, ``np.sum`` and ``np.add.reduce`` sum
    pairwise and change bits; ``.sum()`` on masks and lengths stays
    allowed."""
    found = []
    for node in ast.walk(ast.parse(CD_NUMPY.read_text(), filename=str(CD_NUMPY))):
        if not isinstance(node, ast.Attribute):
            continue
        dotted = ast.unparse(node)
        if node.attr == "reduceat" or dotted in (
            "np.sum", "numpy.sum", "np.add.reduce", "numpy.add.reduce",
        ):
            found.append(f"{CD_NUMPY.name}:{node.lineno} {dotted}")
    assert found == []
