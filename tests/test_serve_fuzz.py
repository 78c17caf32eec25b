"""Fuzzed request payloads for the query service's POST handlers.

Arbitrary JSON values — null, booleans, huge integers, floats with NaN
and infinities, strings, nested arrays and objects — are drawn into
the fields of ``/select``, ``/spread``, ``/predict`` and ``/ingest``
payloads, mixed with well-formed values so that the draws also reach
the checks behind the first ones; a ``cd_budget`` ``/select`` also
draws its ``params`` from ``budget`` and ``cost_scale`` values.  The invariant is the one
the HTTP handler relies on to never answer 5xx other than 503: each
call returns a body that is strict JSON (no ``NaN`` or ``Infinity``)
or raises :class:`ServiceError` with a 4xx or 503 status.  Any other
exception would be a 500.

The service is marked as already ingesting, so a well-formed
``/ingest`` stops at its 409 after parsing and no derive runs.

A second test draws, for every selector parameter, JSON values that
do not match the type its adapter annotates; each such ``/select``
must answer 400 naming the selector and the parameter.
"""

from __future__ import annotations

import json
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SelectionContext, list_selectors
from repro.store import ArtifactStore
from repro.store.prefix import precompute_prefix
from repro.store.service import QueryService, ServiceError
from repro.store.warm import load_context_record, load_serving_context, warm_start


@pytest.fixture(scope="module")
def fuzzed(tmp_path_factory, flixster_mini):
    """(service, context key, users) over a small store with a cd prefix."""
    root = str(tmp_path_factory.mktemp("fuzz") / "store")
    context = SelectionContext(
        flixster_mini.graph, flixster_mini.log, seed=3, num_simulations=10
    )
    warm_start(
        ArtifactStore(root),
        context,
        ["credit_index", "cd_evaluator", "ic_probabilities/EM", "lt_weights"],
    )
    store = ArtifactStore(root)
    record = load_context_record(store)
    precompute_prefix(
        store, record, load_serving_context(store, record), "cd", 5
    )
    service = QueryService(root)
    with service._lock:
        service._ingest_active = True
    return service, record["context_key"], sorted(flixster_mini.log.users())


JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 10**30, 10**400]),
    st.floats(),
    st.text(max_size=6),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=8,
)


def _payload(fields: dict) -> st.SearchStrategy:
    """Each field absent, well-formed, or any JSON value."""
    return st.fixed_dictionaries(
        {},
        optional={
            name: st.one_of(valid, JSON_VALUES)
            for name, valid in fields.items()
        },
    )


def _requests(key: str, users: list) -> st.SearchStrategy:
    ids = st.one_of(st.sampled_from(users[:20]), JSON_VALUES)
    seeds = st.lists(ids, min_size=1, max_size=4)
    context = st.sampled_from([key, key[:6]])
    return st.one_of(
        st.tuples(st.just("select"), _payload({
            "selector": st.sampled_from(["cd", "cd_budget", "high_degree"]),
            "k": st.integers(1, 8),
            "params": st.just({}),
            "trial": st.integers(0, 3),
            "budget": st.floats(0.0, 5.0),
            "context": context,
        })),
        st.tuples(st.just("select"), st.fixed_dictionaries({
            "selector": st.just("cd_budget"),
            "k": st.integers(1, 8),
            "params": _payload({
                "budget": st.floats(0.0, 5.0),
                "cost_scale": st.floats(0.0, 20.0),
            }),
        })),
        st.tuples(st.just("spread"), _payload({
            "seeds": seeds, "context": context,
        })),
        st.tuples(st.just("predict"), _payload({
            "seeds": seeds,
            "method": st.sampled_from(["CD", "IC", "LT"]),
            "context": context,
        })),
        st.tuples(st.just("ingest"), _payload({
            "tuples": st.lists(
                st.tuples(ids, ids, st.one_of(st.floats(), JSON_VALUES)).map(
                    list
                ),
                max_size=3,
            ),
            "closed": st.lists(ids, max_size=2),
            "context": context,
            "wait": st.booleans(),
            "verify": st.booleans(),
        })),
    )


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_every_answer_is_a_body_or_a_client_error(fuzzed, data):
    service, key, users = fuzzed
    endpoint, payload = data.draw(_requests(key, users), label="request")
    try:
        body = getattr(service, endpoint)(payload)
    except ServiceError as error:
        assert 400 <= error.status < 500 or error.status == 503, error
    else:
        assert isinstance(body, dict)
        json.dumps(body, allow_nan=False)


def _typed_params() -> list[tuple[str, str, type, bool]]:
    """(selector, param, annotated type, admits null) per adapter param."""
    typed = []
    for spec in list_selectors():
        hints = typing.get_type_hints(spec.func)
        for name in spec.param_names():
            args = typing.get_args(hints[name])
            kind = next((a for a in args if a is not type(None)), hints[name])
            typed.append((spec.name, name, kind, type(None) in args))
    return typed


def _mistyped(kind: type, nullable: bool) -> st.SearchStrategy:
    """JSON values that are not a bindable ``kind``."""
    wrong = [
        st.booleans(),
        st.lists(JSON_LEAVES, max_size=3),
        st.dictionaries(st.text(max_size=3), JSON_LEAVES, max_size=3),
    ]
    if not nullable:
        wrong.append(st.none())
    if kind is str:
        wrong += [st.integers(), st.floats()]
    else:
        wrong.append(st.text(max_size=6))
    if kind is int:
        wrong.append(st.floats())
    if kind is float:
        wrong.append(st.sampled_from(
            [float("nan"), float("inf"), float("-inf"), 10**400]
        ))
    return st.one_of(wrong)


TYPED_PARAMS = _typed_params()


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_mistyped_params_answer_400(fuzzed, data):
    service, key, _users = fuzzed
    selector, name, kind, nullable = data.draw(
        st.sampled_from(TYPED_PARAMS), label="param"
    )
    value = data.draw(_mistyped(kind, nullable), label="value")
    with pytest.raises(ServiceError) as error:
        service.select({
            "selector": selector, "k": 3, "params": {name: value},
            "context": key,
        })
    assert error.value.status == 400
    assert str(error.value).startswith(f"selector {selector!r} got {name} ")
