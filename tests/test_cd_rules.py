"""The CD selectors' one CELF loop under its three stopping rules.

``cd_maximize`` stops at ``k`` seeds, ``cd_cover`` at a spread target
(capped by ``max_seeds``), and each ``cd_budget_maximize`` pass when
nothing affordable with a positive gain is left.  All three run the
loop of :mod:`repro.core.maximize` on either engine: the budget passes
on their ``backend=``, the cover on the one ``REPRO_BACKEND`` names.

* Budget and cover results equal digests recorded before the budget
  passes and the cover ran on that loop, on every backend: on
  flixster_mini (whole log and train split) and on fixed random
  instances that reach zero gains.
* On random instances every backend gives the same result, budget and
  cover picks have positive gains only, and ``mutate=True`` changes
  nothing but the index.
* Every run records a ``maximize.cd`` span with its rule and its work,
  equal on both backends.
* A python budget pass computes gains only for the users it can afford.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.maximize as maximize_module
from repro.api import SelectionContext
from repro.core.budget import cd_budget_maximize
from repro.core.coverage import cd_cover
from repro.core.maximize import cd_maximize
from repro.core.scan import scan_action_log
from repro.data.split import train_test_split
from repro.kernels import available_backends
from repro.obs.trace import Trace

from tests.helpers import random_instance
from tests.test_properties import graph_and_log

BACKENDS = available_backends()

# sha256 prefixes of the records below, recorded before the budget
# passes and the cover loop ran on the shared loop.
MINI_DIGESTS = {
    "whole": {
        "budget_unit": "f884bace53b4e439",
        "budget_activity": "a81a6d96ae2d6837",
        "budget_all": "735a123c0ea2f9d7",
        "cover": "fd5c9e7fb4997dbb",
        "cover_7": "00deba693d5a2be1",
        "cover_mutate": "fd5c9e7fb4997dbb",
    },
    "train": {
        "budget_unit": "232937b5c2d7e4a0",
        "budget_activity": "49685855c6cb97b1",
        "budget_all": "a96bbe223e2c6764",
        "cover": "bf6587d71301e850",
        "cover_7": "28c3be8727768b17",
        "cover_mutate": "bf6587d71301e850",
    },
}
RANDOM_DIGEST = "c6ef6fdb9a709d09"


def _budget_record(result) -> str:
    """The result's fields; ``spread`` and ``spent`` are ``sum()`` of
    ``gains`` and ``costs``, whose float rounding depends on the Python
    version, so they are checked against it rather than digested."""
    assert repr(result.spread) == repr(sum(result.gains))
    assert repr(result.spent) == repr(sum(result.costs))
    return repr((
        result.seeds, result.gains, result.costs, result.budget,
        result.rule, result.oracle_calls,
    ))


def _cover_record(result) -> str:
    return repr((
        result.seeds, result.gains, result.spread, result.target,
        result.reached, result.oracle_calls,
    ))


def _cover(index, target, backend, **options):
    """``cd_cover`` on ``backend``, which it resolves from ``REPRO_BACKEND``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_BACKEND", backend)
        return cd_cover(index, target, **options)


def _digest(records) -> str:
    return hashlib.sha256("\n".join(records).encode()).hexdigest()[:16]


def _activity_costs(index) -> dict:
    """``1 + activity/10``, the ``cd_budget`` selector at ``cost_scale=10``."""
    return {user: 1.0 + index.activity[user] / 10 for user in index.users()}


@pytest.fixture(scope="module", params=["whole", "train"])
def mini_index(request, flixster_mini):
    log = flixster_mini.log
    if request.param == "train":
        log = train_test_split(log, every=5)[0]
    context = SelectionContext(flixster_mini.graph, log, backend="python")
    return request.param, context.credit_index()


@pytest.mark.parametrize("backend", BACKENDS)
def test_mini_results_equal_recorded_digests(mini_index, backend):
    name, index = mini_index
    activity = _activity_costs(index)
    ceiling = len(index.activity)
    targets = [ceiling * step / 10 for step in range(16)]

    def budget(value, costs=None):
        return _budget_record(
            cd_budget_maximize(index, value, costs=costs, backend=backend)
        )

    def cover(target, **options):
        return _cover_record(_cover(index, target, backend, **options))

    digests = {
        "budget_unit": _digest([budget(float(b)) for b in range(33)]),
        "budget_activity": _digest(
            [budget(float(b), activity) for b in range(33)]
        ),
        "budget_all": _digest([budget(1e9), budget(1e9, activity)]),
        "cover": _digest([cover(target) for target in targets]),
        "cover_7": _digest([cover(target, max_seeds=7) for target in targets]),
        "cover_mutate": _digest([
            _cover_record(_cover(index.copy(), target, backend, mutate=True))
            for target in targets
        ]),
    }
    assert digests == MINI_DIGESTS[name]


@pytest.mark.parametrize("backend", BACKENDS)
def test_random_instances_equal_recorded_digest(backend):
    """Twelve small instances whose greedy runs reach zero gains, so the
    budget passes and the cover stop on the zero-gain rule."""
    records = []
    zero_gains = 0
    for seed in range(12):
        graph, log = random_instance(seed, num_nodes=6, num_actions=4)
        index = scan_action_log(graph, log, truncation=0.0)
        ceiling = len(index.activity)
        zero_gains += sum(
            gain <= 0.0 for gain in cd_maximize(index, ceiling).gains
        )
        ranked = sorted(index.users(), key=repr)
        costs = {user: 1.0 + (i % 3) for i, user in enumerate(ranked)}
        for budget in range(9):
            for cost_map in (None, costs):
                records.append(_budget_record(cd_budget_maximize(
                    index, float(budget), costs=cost_map, backend=backend
                )))
        for step in range(0, 16, 3):
            for cap in (None, 2):
                records.append(_cover_record(_cover(
                    index, ceiling * step / 10, backend, max_seeds=cap
                )))
    assert zero_gains == 12
    assert _digest(records) == RANDOM_DIGEST


@given(
    data=graph_and_log(),
    truncation=st.sampled_from([0.0, 0.05, 0.3]),
    budget=st.sampled_from([0.0, 1.0, 2.5, 4.0, 100.0]),
    fraction=st.sampled_from([0.0, 0.3, 0.7, 1.0, 1.5]),
    cap=st.sampled_from([None, 1, 3]),
)
@settings(max_examples=40, deadline=None)
def test_backends_agree_on_random_instances(
    data, truncation, budget, fraction, cap
):
    graph, log = data
    index = scan_action_log(graph, log, truncation=truncation)
    ranked = sorted(index.users(), key=repr)
    costs = {user: 0.5 + (i % 4) for i, user in enumerate(ranked)}
    target = len(index.activity) * fraction
    runs = {}
    for backend in BACKENDS:
        passes = [
            cd_budget_maximize(index, budget, costs=cost_map, backend=backend)
            for cost_map in (None, costs)
        ]
        covers = [
            _cover(index, target, backend, max_seeds=cap),
            _cover(index.copy(), target, backend, max_seeds=cap, mutate=True),
        ]
        for result in passes + covers:
            assert all(gain > 0.0 for gain in result.gains)
        assert _cover_record(covers[1]) == _cover_record(covers[0])
        runs[backend] = [_budget_record(result) for result in passes] + [
            _cover_record(covers[0])
        ]
    assert len(set(map(tuple, runs.values()))) == 1


def test_cover_stops_at_zero_gain_where_cd_maximize_goes_on():
    """``cd_maximize(k)`` picks past the useful seeds; the cover stops."""
    graph, log = random_instance(0, num_nodes=6, num_actions=4)
    index = scan_action_log(graph, log, truncation=0.0)
    everything = cd_maximize(index, len(index.activity))
    cover = cd_cover(index, 1e9)
    assert not cover.reached
    assert cover.seeds == everything.seeds[:len(cover.seeds)]
    assert len(cover.seeds) < len(everything.seeds)
    assert all(gain <= 0.0 for gain in everything.gains[len(cover.seeds):])


def _cd_spans(run):
    with Trace(trace_id="cd-rules").activate() as trace:
        run()
    return [span.attrs for span in trace.spans if span.name == "maximize.cd"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_run_records_its_rule_and_work(flixster_mini, backend):
    context = SelectionContext(
        flixster_mini.graph, flixster_mini.log, backend="python"
    )
    index = context.credit_index()
    activity = _activity_costs(index)
    assert _cd_spans(
        lambda: cd_budget_maximize(index, 5.0, costs=activity, backend=backend)
    ) == [
        {"budget": 5.0, "rule": "benefit", "oracle_calls": 141, "seeds": 2,
         "lemma2_updates": 21, "lemma3_adds": 48},
        {"budget": 5.0, "rule": "ratio", "oracle_calls": 143, "seeds": 4,
         "lemma2_updates": 5, "lemma3_adds": 31},
    ]
    assert _cd_spans(lambda: _cover(index, 20.0, backend)) == [
        {"target": 20.0, "oracle_calls": 174, "seeds": 16,
         "lemma2_updates": 132, "lemma3_adds": 218},
    ]


def test_python_budget_pass_sweeps_only_affordable_users(
    flixster_mini, monkeypatch
):
    """Each gain the python engine computes is one oracle call, and an
    unaffordable user costs none."""
    context = SelectionContext(
        flixster_mini.graph, flixster_mini.log, backend="python"
    )
    index = context.credit_index()
    activity = _activity_costs(index)
    computed = []
    gain = maximize_module.marginal_gain
    monkeypatch.setattr(
        maximize_module, "marginal_gain",
        lambda *args: computed.append(args[2]) or gain(*args),
    )
    result = cd_budget_maximize(index, 2.0, costs=activity, backend="python")
    affordable = sum(cost <= 2.0 for cost in activity.values())
    assert 0 < affordable < len(activity)
    assert len(computed) == result.oracle_calls
    assert set(computed) <= {u for u, cost in activity.items() if cost <= 2.0}
