"""A store written while CELF++ was a selector still serves.

The fixture store holds a ``cd`` prefix and a ``celfpp`` prefix whose
resume state pickles a class of the removed
``repro.maximization.celfpp`` module, written while a stub of that
module sat in ``sys.modules``.  Without the module:

* the serving context loads, and ``/select cd`` is answered from its
  prefix, byte-identical to the cold path;
* ``/select celfpp`` answers 400 like any unknown selector, and the
  service stays healthy (the payload is never read);
* ``refresh_prefixes`` drops the ``celfpp`` row;
* a plain ``store verify`` is clean, and ``--deep`` reports the
  payload as ``undecodable-payload`` (and its row as
  ``dangling-prefix``).
"""

from __future__ import annotations

import json
import shutil
import sys
import types

import pytest

from repro.api import SelectionContext
from repro.store import ArtifactStore
from repro.store.keys import artifact_key
from repro.store.prefix import (
    SelectionPrefix,
    precompute_prefix,
    refresh_prefixes,
    save_prefix,
)
from repro.store.service import QueryService, ServiceError
from repro.store.verify import verify_store
from repro.store.warm import load_context_record, load_serving_context, warm_start

LEGACY_MODULE, LEGACY_CLASS = "repro.maximization.celfpp", "CELFPPState"


@pytest.fixture(scope="module")
def legacy_store(tmp_path_factory, flixster_mini):
    """``(root, name of the celfpp prefix artifact)``."""
    root = str(tmp_path_factory.mktemp("legacy") / "store")
    context = SelectionContext(flixster_mini.graph, flixster_mini.log, seed=3)
    warm_start(ArtifactStore(root), context, ["credit_index", "cd_evaluator"])
    store = ArtifactStore(root)
    record = load_context_record(store)
    precompute_prefix(store, record, load_serving_context(store, record), "cd", 5)
    record = load_context_record(store)
    stub = types.ModuleType(LEGACY_MODULE)
    state_class = type(LEGACY_CLASS, (), {"__module__": LEGACY_MODULE})
    setattr(stub, LEGACY_CLASS, state_class)
    state = state_class()
    state.seeds, state.gains = [1, 2, 3], [3.0, 2.0, 1.0]
    prefix = SelectionPrefix(
        selector="celfpp",
        params={"seed": context.derive_seed("celfpp", 0)},
        k_max=3,
        seeds=[1, 2, 3],
        gains=[3.0, 2.0, 1.0],
        checkpoints=[(10, 3.0), (12, 5.0), (14, 6.0)],
        state=state,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, LEGACY_MODULE, stub)
        save_prefix(store, record, prefix)
    assert LEGACY_MODULE not in sys.modules
    return root, prefix.artifact_name()


def _selectors(record) -> list[str]:
    return sorted(row["selector"] for row in record.get("prefixes", []))


def test_serving_context_loads(legacy_store):
    root, _ = legacy_store
    store = ArtifactStore(root, create=False)
    record = load_context_record(store)
    assert _selectors(record) == ["cd", "celfpp"]
    assert load_serving_context(store, record).credit_index() is not None


def test_cd_is_served_from_its_prefix(legacy_store):
    root, _ = legacy_store
    warm = QueryService(root)
    cold = QueryService(root)
    cold.slot(None).record.pop("prefixes", None)
    request = {"selector": "cd", "k": 3}
    served = warm.select(request)
    assert json.dumps(served, sort_keys=True) == json.dumps(
        cold.select(request), sort_keys=True
    )
    assert warm._select_paths["prefix"] == 1
    assert cold._select_paths["prefix"] == 0


def test_celfpp_select_is_an_unknown_selector(legacy_store):
    root, _ = legacy_store
    service = QueryService(root)
    with pytest.raises(ServiceError, match="unknown selector 'celfpp'") as info:
        service.select({"selector": "celfpp", "k": 3})
    assert info.value.status == 400
    assert service.healthz()["status"] == "ok"


def test_refresh_drops_the_celfpp_row(legacy_store, tmp_path):
    source, _ = legacy_store
    root = str(tmp_path / "store")
    shutil.copytree(source, root)
    store = ArtifactStore(root, create=False)
    record = load_context_record(store)
    updated, refreshed = refresh_prefixes(
        store, record, load_serving_context(store, record)
    )
    assert [prefix.selector for prefix in refreshed] == ["cd"]
    assert _selectors(updated) == ["cd"]
    assert _selectors(load_context_record(store)) == ["cd"]


def test_verify_is_clean_and_deep_names_the_payload(legacy_store):
    root, name = legacy_store
    store = ArtifactStore(root, create=False)
    assert verify_store(store).clean
    # The payload does not decode, and the record still lists it.
    deep = verify_store(store, deep=True)
    key = artifact_key(load_context_record(store)["context_key"], name)
    assert [(problem.kind, problem.key) for problem in deep.problems] == [
        ("undecodable-payload", key), ("dangling-prefix", key),
    ]
