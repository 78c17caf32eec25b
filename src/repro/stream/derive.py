"""Deriving stored bundles from deltas (lineage-linked, atomic).

:func:`derive_bundle` is the store-facing half of streaming: it loads a
base bundle (graph, training log, artifacts, streaming statistics),
folds a delta through :func:`~repro.stream.update.fold_delta`, and
writes the result as a *new* bundle keyed by the union dataset's
fingerprint — the exact key a cold ``repro learn --store`` over the
union log would compute, so later warm runs hit the derived bundle
as if it had been learned from scratch.

Atomicity follows the store's manifest-as-commit discipline one level
up: artifacts, the union training log and the refreshed statistics are
all written before the derived *context record*, and the record's
presence is what makes the bundle visible to serving and warm-start —
a crash mid-derive leaves orphaned (re-derivable) artifact entries,
never a half-visible bundle.

Lineage: artifacts a delta cannot change (the graph, the graph-only IC
probabilities) are not copied — the derived record's
``artifact_sources`` maps them to the context key they actually live
under, chained through to the *root* bundle when derives stack.  The
``derived_from`` link plus those sources are what ``repro store ls``
renders as lineage and what ``repro store gc`` refuses to collect out
from under a live derived bundle (see :func:`referenced_context_keys`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Mapping

from repro.api.context import ARTIFACT_NAMES, SelectionContext
from repro.obs import trace as obs_trace
from repro.store.keys import artifact_key, context_key, fingerprint_dataset
from repro.store.store import ArtifactStore, StoreCorruption, StoreMiss
from repro.store.warm import (
    CONTEXT_RECORD,
    GRAPH_ARTIFACT,
    STREAM_STATS_ARTIFACT,
    TRAIN_LOG_ARTIFACT,
    artifact_source_key,
    context_from_record,
    list_context_records,
    load_context_record,
)
from repro.store.prefix import refresh_prefixes
from repro.stream.delta import ActionLogDelta
from repro.stream.update import FoldReport, StreamStats, fold_delta

__all__ = [
    "DeriveResult",
    "load_base_state",
    "derive_bundle",
    "referenced_context_keys",
]


@dataclass
class DeriveResult:
    """What a derive produced: the new bundle's identity and contents."""

    base_key: str
    derived_key: str
    record: dict[str, Any]
    report: FoldReport
    context: SelectionContext

    def to_dict(self) -> dict[str, Any]:
        return {
            "base": self.base_key,
            "derived": self.derived_key,
            "lineage_depth": int(self.record.get("lineage_depth", 0)),
            "pending_tuples": len(self.record.get("pending", [])),
            "report": self.report.to_dict(),
        }


def load_base_state(
    store: ArtifactStore, record: Mapping[str, Any]
) -> tuple[SelectionContext, StreamStats | None, list]:
    """Rebuild (context, stream stats, pending tuples) from a bundle.

    Unlike :func:`~repro.store.warm.load_serving_context` the returned
    context carries the **training log** — deltas validate against it
    and re-learn paths scan it.  Bundles written before streaming
    support hold no log; the error says how to refresh them.

    Every learned artifact the record lists is a *stored* slot
    (:meth:`~repro.api.context.SelectionContext.set_artifact_loader`):
    it is read and decoded only if the fold reads it.  An artifact the
    fold carries over or updates is read; one it re-learns is not.
    """
    ckey = record["context_key"]
    graph = store.get(
        artifact_key(artifact_source_key(record, GRAPH_ARTIFACT), GRAPH_ARTIFACT)
    )
    try:
        log = store.get(artifact_key(ckey, TRAIN_LOG_ARTIFACT))
    except StoreMiss:
        raise StoreMiss(
            f"bundle {ckey[:12]} holds no training log (it was written "
            "before streaming support); re-run `repro learn --store` to "
            "refresh it, then ingest the delta"
        ) from None
    context = context_from_record(record, graph, log)
    for name in record.get("artifacts", []):
        if name in ARTIFACT_NAMES:
            key = artifact_key(artifact_source_key(record, name), name)
            context.set_artifact_loader(name, partial(store.get, key))
    try:
        stats = store.get(artifact_key(ckey, STREAM_STATS_ARTIFACT))
    except (StoreMiss, StoreCorruption):
        # Absent or untrustworthy statistics only cost performance: the
        # affected artifacts take the re-learn path.
        stats = None
    pending = [tuple(item) for item in record.get("pending", [])]
    return context, stats, pending


def derive_bundle(
    store: ArtifactStore,
    delta: ActionLogDelta,
    context: str | None = None,
    record: Mapping[str, Any] | None = None,
    dataset_name: str | None = None,
    verify: bool = False,
) -> DeriveResult:
    """Apply ``delta`` to a stored bundle; commit the derived bundle.

    ``context`` selects the base bundle by key/prefix (default: the
    store's only context); a pre-resolved ``record`` skips the lookup.
    ``verify=True`` additionally re-learns over the union and asserts
    equivalence for every incrementally updated artifact —
    byte-identity, except a numpy-backend ``credit_index``, which is
    held to the kernel parity contract (see
    :func:`repro.stream.update.fold_delta`).
    """
    with obs_trace.span("stream.derive", verify=verify) as span:
        result = _derive_bundle(
            store,
            delta,
            context=context,
            record=record,
            dataset_name=dataset_name,
            verify=verify,
        )
        span.set(
            base=result.base_key[:12],
            derived=result.derived_key[:12],
            lineage_depth=int(result.record.get("lineage_depth", 0)),
        )
        return result


def _derive_bundle(
    store: ArtifactStore,
    delta: ActionLogDelta,
    context: str | None = None,
    record: Mapping[str, Any] | None = None,
    dataset_name: str | None = None,
    verify: bool = False,
) -> DeriveResult:
    if record is None:
        record = load_context_record(store, context)
    base_ckey = record["context_key"]
    base_context, stats, pending = load_base_state(store, record)
    result = fold_delta(
        base_context, delta, pending=pending, stats=stats, verify=verify
    )
    union_log = result.context.train_log
    new_ckey = context_key(
        fingerprint_dataset(base_context.graph, union_log),
        {"split": "external"},
        result.context.learn_spec(),
    )
    dataset = record.get("dataset", "") if dataset_name is None else dataset_name

    if new_ckey == base_ckey:
        # No action closed: the learned log — and hence every artifact —
        # is unchanged.  Only the pending state moves, on the same record.
        updated_record = {**dict(record), "pending": result.pending}
        if not result.pending:
            updated_record.pop("pending", None)
        if updated_record != dict(record):
            store.put(
                artifact_key(base_ckey, CONTEXT_RECORD),
                updated_record,
                meta={
                    "context": base_ckey,
                    "dataset": dataset,
                    "learn": result.context.learn_spec(),
                    "artifact": CONTEXT_RECORD,
                },
                refresh=True,
            )
        return DeriveResult(
            base_key=base_ckey,
            derived_key=base_ckey,
            record=updated_record,
            report=result.report,
            context=result.context,
        )

    meta_base = {
        "context": new_ckey,
        "dataset": dataset,
        "learn": result.context.learn_spec(),
    }
    sources: dict[str, str] = {
        GRAPH_ARTIFACT: artifact_source_key(record, GRAPH_ARTIFACT)
    }
    artifacts: list[str] = []
    for name in result.context.artifact_names():
        artifacts.append(name)
        if name in result.report.carried:
            sources[name] = artifact_source_key(record, name)
            continue
        store.put(
            artifact_key(new_ckey, name),
            result.context.get_artifact(name),
            meta={**meta_base, "artifact": name},
        )
    store.put(
        artifact_key(new_ckey, TRAIN_LOG_ARTIFACT),
        union_log,
        meta={**meta_base, "artifact": TRAIN_LOG_ARTIFACT},
    )
    if result.stats is not None:
        store.put(
            artifact_key(new_ckey, STREAM_STATS_ARTIFACT),
            result.stats,
            meta={**meta_base, "artifact": STREAM_STATS_ARTIFACT},
        )

    derived_record: dict[str, Any] = {
        "context_key": new_ckey,
        "dataset": dataset,
        "learn": result.context.learn_spec(),
        "probability_method": result.context.probability_method,
        "num_simulations": result.context.num_simulations,
        "artifacts": sorted(artifacts),
        "derived_from": base_ckey,
        "lineage_depth": int(record.get("lineage_depth", 0)) + 1,
        "artifact_sources": sources,
        "stream": result.report.to_dict(),
    }
    if result.pending:
        derived_record["pending"] = result.pending
    # The record is the commit point: until this put returns, nothing
    # lists or serves the derived bundle.
    store.put(
        artifact_key(new_ckey, CONTEXT_RECORD),
        derived_record,
        meta={**meta_base, "artifact": CONTEXT_RECORD},
        refresh=True,
    )
    # Prefix maintenance: the base's selection-prefix artifacts are
    # stale for the derived artifacts, so recompute each recorded
    # (selector, params, k_max) against the fresh context and commit
    # them under the derived key.  Runs after the record commit — a
    # crash here leaves a served bundle whose /select merely falls back
    # to the cold path.
    base_prefixes = list(record.get("prefixes", []))
    if base_prefixes:
        derived_record, _ = refresh_prefixes(
            store,
            {**derived_record, "prefixes": base_prefixes},
            result.context,
        )
    return DeriveResult(
        base_key=base_ckey,
        derived_key=new_ckey,
        record=derived_record,
        report=result.report,
        context=result.context,
    )


def referenced_context_keys(store: ArtifactStore) -> set[str]:
    """Context keys that live derived bundles still reference.

    The union, over every readable context record, of its
    ``derived_from`` link and its ``artifact_sources`` targets (minus
    the record's own key).  ``repro store gc`` treats entries under
    these keys as pinned: collecting them would tear artifacts out from
    under a bundle that aliases rather than copies them.
    """
    referenced: set[str] = set()
    for record in list_context_records(store):
        own = record.get("context_key")
        parent = record.get("derived_from")
        if parent and parent != own:
            referenced.add(parent)
        for source in record.get("artifact_sources", {}).values():
            if source != own:
                referenced.add(source)
    return referenced
