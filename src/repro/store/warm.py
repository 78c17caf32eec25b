"""Warm-starting contexts from the store (learn once, reuse everywhere).

This module is the bridge between :class:`~repro.store.store.ArtifactStore`
and :class:`~repro.api.context.SelectionContext`:

* :func:`required_artifacts` maps an
  :class:`~repro.api.experiment.ExperimentConfig` and its context to
  the artifact slots its selectors / prediction methods / evaluation
  read — from :meth:`~repro.api.registry.Selector.reads`, the routing
  rule the runtime's learn stage also validates and prefetches by;
* :func:`warm_start` loads whatever the store holds for the context's
  key (hit), builds what is missing through the context's own lazy
  accessors (miss → learn), and saves every newly built artifact back —
  so the *next* run with the same key skips learning entirely;
* :func:`save_context`/:func:`load_context_record` persist the *context
  record*: the graph plus the learn parameters and artifact inventory
  the ``repro serve`` query service needs to rebuild a servable context
  without ever touching the raw action log.

Because stored payloads are the exact objects a cold run would have
built (see :mod:`repro.store.serialize`), a warm run's results are
byte-identical to the cold run's on every executor; the parity tests
pin this.
"""

from __future__ import annotations

import warnings
from typing import Any, Mapping

from repro.api.context import (
    ARTIFACT_NAMES,
    PREDICTION_ARTIFACTS,
    SelectionContext,
)
from repro.obs import trace as obs_trace
from repro.store.keys import artifact_key, context_key, fingerprint_dataset
from repro.store.store import ArtifactStore, StoreCorruption, StoreMiss

__all__ = [
    "GRAPH_ARTIFACT",
    "CONTEXT_RECORD",
    "TRAIN_LOG_ARTIFACT",
    "STREAM_STATS_ARTIFACT",
    "required_artifacts",
    "context_key_for",
    "artifact_source_key",
    "context_from_record",
    "warm_start",
    "load_context_record",
    "list_context_records",
]

# Extra store slots beyond the context's learned artifacts: the social
# graph (serving needs it to rebuild a context), the context record
# (the serving layer's table of contents), the training action log and
# the streaming sufficient statistics (both feed `repro ingest`, which
# validates deltas against the log and updates LT weights from the
# statistics — see :mod:`repro.stream`).
GRAPH_ARTIFACT = "graph"
CONTEXT_RECORD = "__context__"
TRAIN_LOG_ARTIFACT = "__train_log__"
STREAM_STATS_ARTIFACT = "__stream_stats__"


def artifact_source_key(record: Mapping[str, Any], name: str) -> str:
    """The context key artifact ``name`` actually lives under.

    Delta-derived bundles alias artifacts a delta cannot change (the
    graph, graph-only probabilities) instead of copying them; the
    record's ``artifact_sources`` maps those names to the ancestor
    bundle holding the bytes.  Base bundles have no sources — every
    artifact lives under the record's own key.
    """
    return record.get("artifact_sources", {}).get(name, record["context_key"])


def required_artifacts(config: Any, context: SelectionContext) -> list[str]:
    """The artifact slots ``config`` reads from ``context``, in order.

    Prediction reads the slot :data:`~repro.api.context.PREDICTION_ARTIFACTS`
    names for each method; selection reads what each selector's
    :meth:`~repro.api.registry.Selector.reads` returns, plus the
    evaluator when ``evaluate_spread``; then :func:`with_riders`.
    """
    from repro.api.registry import get_selector

    if config.task == "prediction":
        needed = [PREDICTION_ARTIFACTS[method] for method in config.methods]
    else:
        needed = [
            name
            for entry in config.selectors
            for name in get_selector(entry.name, **entry.params).reads(context)
        ]
        if config.evaluate_spread:
            needed.append("cd_evaluator")
    return with_riders(needed, context)


def with_riders(needed: list[str], context: SelectionContext) -> list[str]:
    """``needed`` plus the slots that ride along, deduped in order.

    Two slots ride along, so that a miss of the slot they feed does not
    learn them again: ``ic_probabilities/EM`` under a read PT (PT
    perturbs EM), and ``influence_params`` under a time-decay index or
    evaluator (their Eq.-9 credits).  A rider is added only while a
    slot it feeds is not already held by ``context``.
    """
    needed = list(needed)
    held = set(context.artifact_names())

    def unheld(*names: str) -> bool:
        return any(name in needed and name not in held for name in names)

    if unheld("ic_probabilities/PT"):
        needed.append("ic_probabilities/EM")
    if context.credit_scheme == "timedecay" and unheld(
        "credit_index", "cd_evaluator"
    ):
        needed.append("influence_params")
    return list(dict.fromkeys(needed))


def context_key_for(
    context: SelectionContext,
    dataset: Any | None = None,
    split: Mapping[str, Any] | None = None,
) -> str:
    """The store namespace key of ``context``.

    When the pipeline built the training fold itself, pass the raw
    ``dataset`` and its ``split`` spec — the fingerprint then covers the
    *full* log, so selection and prediction runs over the same dataset
    share entries.  A pre-built context (no dataset in hand)
    fingerprints its own graph/train-log under ``split="external"``.
    """
    if dataset is not None:
        fingerprint = fingerprint_dataset(dataset.graph, dataset.log)
        split_spec = dict(split or {"split": False})
    else:
        fingerprint = fingerprint_dataset(context.graph, context.train_log)
        split_spec = {"split": "external"}
    return context_key(fingerprint, split_spec, context.learn_spec())


def _load_one(
    store: ArtifactStore, key: str, events: dict, label: str
) -> Any | None:
    try:
        value = store.get(key)
    except StoreMiss:
        return None
    except StoreCorruption as error:
        warnings.warn(
            f"artifact store entry for {label!r} is corrupt and will be "
            f"re-learned: {error}",
            RuntimeWarning,
            stacklevel=3,
        )
        events["corrupt"].append(label)
        return None
    return value


def warm_start(
    store: ArtifactStore,
    context: SelectionContext,
    needed: list[str],
    *,
    consult: bool = True,
    dataset: Any | None = None,
    split: Mapping[str, Any] | None = None,
    dataset_name: str = "",
    num_simulations: int | None = None,
) -> dict[str, Any]:
    """Load hits, learn misses, save what was learned; returns the events.

    The returned mapping records the context key and, per artifact
    name, whether it was a ``hit`` (loaded), ``miss`` (learned) or
    ``corrupt`` (store entry discarded, then learned); ``saved`` lists
    what this call committed.  ``consult=False`` (``warm_start=False``
    on the config) skips the read side — every needed artifact is
    rebuilt and the store refreshed, a cache-priming mode.
    """
    with obs_trace.span("store.warm_start", consult=consult) as span:
        events = _warm_start(
            store,
            context,
            needed,
            consult=consult,
            dataset=dataset,
            split=split,
            dataset_name=dataset_name,
            num_simulations=num_simulations,
        )
        span.set(
            context=events["context_key"][:12],
            hits=len(events["hits"]),
            misses=len(events["misses"]),
            corrupt=len(events["corrupt"]),
            saved=len(events["saved"]),
        )
        return events


def _warm_start(
    store: ArtifactStore,
    context: SelectionContext,
    needed: list[str],
    *,
    consult: bool = True,
    dataset: Any | None = None,
    split: Mapping[str, Any] | None = None,
    dataset_name: str = "",
    num_simulations: int | None = None,
) -> dict[str, Any]:
    ckey = context_key_for(context, dataset=dataset, split=split)
    events: dict[str, Any] = {
        "context_key": ckey,
        "hits": [],
        "misses": [],
        "corrupt": [],
        "saved": [],
        "derived": None,
    }
    # The record comes first: a delta-derived bundle's record carries the
    # artifact_sources aliases the reads below must follow, and warm runs
    # report whether they hit a base or derived bundle through it.
    record_key = artifact_key(ckey, CONTEXT_RECORD)
    previous = _load_one(store, record_key, events, CONTEXT_RECORD) or {}
    sources: Mapping[str, str] = previous.get("artifact_sources", {})
    if previous.get("derived_from"):
        events["derived"] = {
            "derived_from": previous["derived_from"],
            "lineage_depth": int(previous.get("lineage_depth", 0)),
        }
    if consult:
        for name in needed:
            if context.get_artifact(name) is not None:
                continue
            key = artifact_key(sources.get(name, ckey), name)
            value = _load_one(store, key, events, name)
            if value is None:
                events["misses"].append(name)
            else:
                context.set_artifact(name, value)
                events["hits"].append(name)
        if events["misses"] and context.backend == "numpy":
            # A kernel-built artifact must be relearned: pulling the
            # interned CSR form (if stored) skips recompilation too.
            if context.get_artifact("compiled_log") is None:
                compiled = _load_one(
                    store, artifact_key(ckey, "compiled_log"), events,
                    "compiled_log",
                )
                if compiled is not None:
                    context.set_artifact("compiled_log", compiled)
                    events["hits"].append("compiled_log")
    else:
        events["misses"] = [
            name for name in needed if context.get_artifact(name) is None
        ]
    for name in needed:
        context.build_artifact(name)

    meta_base = {
        "context": ckey,
        "dataset": (
            dataset_name
            or (dataset.name if dataset is not None else "")
            or previous.get("dataset", "")
        ),
        "learn": context.learn_spec(),
    }
    stored_names = set()
    for name in context.artifact_names():
        key = artifact_key(ckey, name)
        stored_names.add(name)
        # Rewrite entries whose payload proved corrupt (the manifest may
        # still look healthy, so a plain contains() check would skip the
        # repair forever) and everything in the explicit cache-priming
        # mode; otherwise an existing entry is authoritative.
        refresh = (not consult) or name in events["corrupt"]
        source = sources.get(name)
        if source and not refresh and store.contains(artifact_key(source, name)):
            # The record aliases this artifact to an ancestor bundle and
            # the aliased entry is healthy — writing a copy under our own
            # key would only duplicate bytes.
            continue
        if store.contains(key) and not refresh:
            continue
        store.put(
            key,
            context.get_artifact(name),
            meta={**meta_base, "artifact": name},
            refresh=refresh,
        )
        events["saved"].append(name)
    # The graph is written for the serving layer but never *read* by
    # warm runs, so a corrupt payload would go unnoticed by the load
    # phase above; probe the bytes (no decode) and rewrite on any doubt.
    graph_key = artifact_key(
        sources.get(GRAPH_ARTIFACT, ckey), GRAPH_ARTIFACT
    )
    if not consult or not store.verify(graph_key):
        store.put(
            graph_key,
            context.graph,
            meta={**meta_base, "artifact": GRAPH_ARTIFACT},
            refresh=True,
        )
        events["saved"].append(GRAPH_ARTIFACT)
    # The training log and streaming statistics feed `repro ingest`
    # (delta validation, re-learn paths, incremental LT updates).  The
    # statistics are only computed when LT weights were learned in this
    # run — the propagation DAGs are then already memoized, so the tally
    # is nearly free; on a warm hit, recomputing would cost a full DAG
    # sweep for a by-definition-unchanged value.
    if context.train_log is not None:
        log_key = artifact_key(ckey, TRAIN_LOG_ARTIFACT)
        if not consult or not store.verify(log_key):
            store.put(
                log_key,
                context.train_log,
                meta={**meta_base, "artifact": TRAIN_LOG_ARTIFACT},
                refresh=True,
            )
            events["saved"].append(TRAIN_LOG_ARTIFACT)
        stats_key = artifact_key(ckey, STREAM_STATS_ARTIFACT)
        if "lt_weights" in stored_names and (
            "lt_weights" in events["misses"] or not consult
        ):
            if not consult or not store.contains(stats_key):
                from repro.stream.update import compute_stream_stats

                store.put(
                    stats_key,
                    compute_stream_stats(context),
                    meta={**meta_base, "artifact": STREAM_STATS_ARTIFACT},
                    refresh=not consult,
                )
                events["saved"].append(STREAM_STATS_ARTIFACT)

    # Refresh the context record (the serving layer's entry point) with
    # the union of everything now stored for this namespace.  Spreading
    # ``previous`` first preserves streaming fields (``derived_from``,
    # ``artifact_sources``, ``pending``, ...) a derive wrote earlier.
    artifacts = sorted(set(previous.get("artifacts", [])) | stored_names)
    record = {
        **previous,
        "context_key": ckey,
        "dataset": meta_base["dataset"],
        "learn": context.learn_spec(),
        "probability_method": context.probability_method,
        "num_simulations": (
            context.num_simulations
            if num_simulations is None
            else num_simulations
        ),
        "artifacts": artifacts,
    }
    if record != previous:
        store.put(
            record_key,
            record,
            meta={**meta_base, "artifact": CONTEXT_RECORD},
            refresh=True,
        )
    return events


# ----------------------------------------------------------------------
# Serving-side loading
# ----------------------------------------------------------------------
def list_context_records(store: ArtifactStore) -> list[dict[str, Any]]:
    """Every context record in the store (unreadable ones skipped)."""
    records = []
    for entry in store.entries():
        if entry.meta.get("artifact") != CONTEXT_RECORD:
            continue
        try:
            records.append(store.get(entry.key))
        except StoreMiss:
            continue
        except StoreCorruption as error:
            warnings.warn(
                f"skipping corrupt context record: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
    return sorted(records, key=lambda record: record["context_key"])


def load_context_record(
    store: ArtifactStore, context_key_or_prefix: str | None = None
) -> dict[str, Any]:
    """Resolve one context record by full key, unique prefix, or default.

    With ``None``, the store must hold exactly one context — the
    zero-configuration serving case.
    """
    records = list_context_records(store)
    if not records:
        raise StoreMiss("the store holds no context records; run "
                        "`repro learn --store` or a store-backed experiment")
    if context_key_or_prefix is None:
        if len(records) == 1:
            return records[0]
        keys = [record["context_key"] for record in records]
        raise StoreMiss(
            f"the store holds {len(records)} contexts; name one of {keys}"
        )
    matches = [
        record
        for record in records
        if record["context_key"].startswith(context_key_or_prefix)
    ]
    if not matches:
        raise StoreMiss(f"no context matches {context_key_or_prefix!r}")
    if len(matches) > 1:
        raise StoreMiss(
            f"context prefix {context_key_or_prefix!r} is ambiguous: "
            f"{[record['context_key'] for record in matches]}"
        )
    return matches[0]


def context_from_record(
    record: Mapping[str, Any], graph, train_log
) -> SelectionContext:
    """The context ``record`` describes, over ``graph`` and ``train_log``.

    Each parameter of :meth:`SelectionContext.learn_spec` is taken from
    the record's learn spec, and a field the spec no longer has is
    ignored.  So the context computes the record's own key only if the
    record was written under the current learn spec: a bundle from
    before its two sketch fields were dropped keys differently, and a
    derive from it lands on the key a cold learn computes today.  No
    artifact is loaded.  The serving load passes ``train_log=None``, a
    derive the base bundle's log.
    """
    learn = record["learn"]
    return SelectionContext(
        graph,
        train_log=train_log,
        probability_method=record.get("probability_method", "EM"),
        num_simulations=int(record.get("num_simulations", 100)),
        truncation=float(learn["truncation"]),
        seed=int(learn["seed"]),
        credit_scheme=str(learn["credit_scheme"]),
        backend=str(learn["backend"]),
    )


def serving_context(
    record: Mapping[str, Any], source: ArtifactStore | SelectionContext
) -> SelectionContext:
    """A query-ready context over ``record``'s artifacts, taken from ``source``.

    The returned context has **no training log** — every learned
    artifact named by the record is preloaded into its cache slots, so
    selectors and evaluators run purely from persisted state.  An
    artifact a query would need that is absent raises the context's
    usual "needs a training action log" error, which the service maps
    to a client-visible message.

    ``source`` is the store, for a cold load: the graph and every
    artifact are read and decoded.  Or it is the context a derive
    built the bundle from (``DeriveResult.context``), for the ingest
    swap: its graph and artifact objects are served as they are, and
    nothing is read back.  Only the record's artifacts are taken, so
    the served context keeps neither that context's log nor its
    propagation memo alive.
    """
    if isinstance(source, SelectionContext):
        graph, fetch = source.graph, source.get_artifact
    else:
        def fetch(name: str) -> Any:
            key = artifact_key(artifact_source_key(record, name), name)
            return source.get(key)

        graph = fetch(GRAPH_ARTIFACT)
    context = context_from_record(record, graph, None)
    for name in record.get("artifacts", []):
        if name in ARTIFACT_NAMES:
            context.set_artifact(name, fetch(name))
    return context


def load_serving_context(
    store: ArtifactStore, record: Mapping[str, Any]
) -> SelectionContext:
    """Rebuild a query-ready context from stored artifacts alone.

    The cold load of :func:`serving_context`: every artifact the
    record names is read from ``store`` and decoded.
    """
    return serving_context(record, store)
