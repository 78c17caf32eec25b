"""Persisted selection prefixes: ``/select`` as a lookup, not a sweep.

The greedy family (``cd``, ``celf``, ``greedy``) shares one
structural property: the execution trace up to the j-th selection is
identical for every target ``k >= j`` — ``k`` is only a stopping bound.
A single run to ``K_max`` that records per-selection checkpoints
therefore answers *every* ``k <= K_max`` byte-identically to a cold run
at that ``k``; and for the lazy-queue maximizers the exported machine
state (:class:`~repro.maximization.celf.CELFState`,
:class:`~repro.core.maximize.CDState`) resumes
past ``K_max`` bit-identically too.

This module persists that trace as a store artifact — a
:class:`SelectionPrefix` keyed alongside the context bundle — so a
warm ``repro serve`` answers ``/select`` in microseconds:

* ``k <= k_max`` — slice the prefix (:func:`selection_at`), no
  algorithm runs at all;
* ``k > k_max`` and the prefix is resumable — restore the lazy queue
  and run only the missing selections (:func:`resume_selection`);
* anything else falls back to the cold path.

Prefixes are keyed by the *fully bound* selector parameters (after
:func:`~repro.api.registry.bind_selector`'s deterministic
per-(selector, trial) seed injection — the rule ``/select`` and the
experiment runner apply too), so a request only ever hits a prefix that
the cold path would have answered identically —
``tests/test_serve_prefix.py`` asserts the byte-identity.
Derived bundles (``repro ingest``) re-learn artifacts, so
:func:`refresh_prefixes` recomputes every recorded prefix against the
derived context as part of :func:`repro.stream.derive.derive_bundle`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.api.context import SelectionContext
from repro.api.registry import Selector, bind_selector, get_selector
from repro.obs import trace as obs_trace
from repro.api.results import SeedSelection
from repro.store.keys import artifact_key, canonical_json
from repro.store.store import ArtifactStore, StoreError, StoreMiss
from repro.store.warm import CONTEXT_RECORD

__all__ = [
    "PREFIXABLE_SELECTORS",
    "SelectionPrefix",
    "prefix_artifact_name",
    "bind_selector",
    "compute_prefix",
    "save_prefix",
    "load_prefix",
    "load_prefix_checked",
    "selection_at",
    "resume_selection",
    "precompute_prefix",
    "refresh_prefixes",
]

# Selector name -> whether its exported state supports resuming past
# k_max (greedy records checkpoints but has no resumable queue).
PREFIXABLE_SELECTORS: dict[str, bool] = {
    "cd": True,
    "celf": True,
    "greedy": False,
    "ris": False,
    "hop": False,
}

_DIGEST_SIZE = 16


@dataclass
class SelectionPrefix:
    """One persisted selection trace for ``(selector, bound params)``.

    ``checkpoints[i]`` is ``(oracle_calls, spread)`` immediately after
    the ``i+1``-th selection — exactly the terminal values of a cold run
    at ``k = i + 1`` (the maximizers' checkpoint contract).  ``state``
    is the resumable machine state after ``k_max`` selections, or
    ``None`` for checkpoint-only selectors.  ``metadata`` is the cold
    selection's deterministic metadata (``num_rr_sets`` for the sketch
    selectors; wall-clock ``time_log`` is excluded), replayed verbatim
    so a prefix hit is byte-identical to a cold response.
    """

    selector: str
    params: dict[str, Any]
    k_max: int
    seeds: list = field(default_factory=list)
    gains: list[float] = field(default_factory=list)
    checkpoints: list = field(default_factory=list)
    state: Any = None
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def resumable(self) -> bool:
        return self.state is not None

    def artifact_name(self) -> str:
        return prefix_artifact_name(self.selector, self.params)

    def record_entry(self) -> dict[str, Any]:
        """The row the context record's ``prefixes`` list carries."""
        return {
            "name": self.artifact_name(),
            "selector": self.selector,
            "params": dict(self.params),
            "k_max": self.k_max,
        }


def prefix_artifact_name(selector: str, params: Mapping[str, Any]) -> str:
    """The artifact slot name for one ``(selector, bound params)`` pair.

    ``params`` must be the fully bound set (including any injected
    ``seed``) — the same dict the cold path stamps into
    ``SeedSelection.params`` — so equal names imply byte-equal answers.
    """
    digest = hashlib.blake2b(
        canonical_json({"selector": selector, "params": dict(params)}).encode(
            "utf-8"
        ),
        digest_size=_DIGEST_SIZE,
    ).hexdigest()
    return f"__prefix__/{digest}"


def compute_prefix(
    context: SelectionContext, selector: Selector, k_max: int
) -> SelectionPrefix:
    """Run ``selector`` to ``k_max`` once, capturing the full trace."""
    name = selector.name
    if name not in PREFIXABLE_SELECTORS:
        raise ValueError(
            f"selector {name!r} has no prefix support; prefixable: "
            f"{sorted(PREFIXABLE_SELECTORS)}"
        )
    checkpoints: list = []
    extras: dict[str, Any] = {"checkpoints": checkpoints}
    state_out: list = []
    if PREFIXABLE_SELECTORS[name]:
        extras["state_out"] = state_out
    with obs_trace.span("prefix.compute", selector=name, k_max=k_max):
        selection = selector.select(context, k_max, extras=extras)
    return SelectionPrefix(
        selector=name,
        params=dict(selector.params),
        k_max=len(selection.seeds),
        seeds=list(selection.seeds),
        gains=list(selection.gains),
        checkpoints=[tuple(entry) for entry in checkpoints],
        state=state_out[0] if state_out else None,
        metadata={
            key: value
            for key, value in selection.metadata.items()
            if key != "time_log"
        },
    )


def selection_at(prefix: SelectionPrefix, k: int) -> SeedSelection:
    """The ``k``-seed selection, reconstructed from the prefix alone.

    Matches the cold selection field-for-field (seeds, gains, spread,
    oracle_calls, selector, params); only the instrumentation the
    service strips anyway (``wall_time_s``, ``metadata["time_log"]``)
    differs.
    """
    if not 1 <= k <= prefix.k_max:
        raise ValueError(
            f"k={k} is outside the prefix range 1..{prefix.k_max}"
        )
    oracle_calls, spread = prefix.checkpoints[k - 1]
    return SeedSelection(
        seeds=list(prefix.seeds[:k]),
        gains=list(prefix.gains[:k]),
        spread=spread,
        oracle_calls=int(oracle_calls),
        selector=prefix.selector,
        params=dict(prefix.params),
        metadata=dict(getattr(prefix, "metadata", {}) or {}),
    )


def resume_selection(
    context: SelectionContext, prefix: SelectionPrefix, k: int
) -> tuple[SeedSelection, SelectionPrefix]:
    """Continue a resumable prefix to ``k > k_max``.

    Runs only the ``k - k_max`` missing selections from the persisted
    machine state — bit-identical to a cold run at ``k`` — and returns
    both the selection and an extended prefix covering ``k`` (which the
    caller may cache or persist in place of the old one).
    """
    if prefix.state is None:
        raise ValueError(
            f"prefix for {prefix.selector!r} is not resumable"
        )
    selector = get_selector(prefix.selector, **prefix.params)
    checkpoints: list = []
    state_out: list = []
    with obs_trace.span(
        "prefix.resume", selector=prefix.selector,
        k_max=prefix.k_max, k=k,
    ):
        selection = selector.select(
            context,
            k,
            extras={
                "state": prefix.state,
                "checkpoints": checkpoints,
                "state_out": state_out,
            },
        )
    extended = SelectionPrefix(
        selector=prefix.selector,
        params=dict(prefix.params),
        k_max=len(selection.seeds),
        seeds=list(selection.seeds),
        gains=list(selection.gains),
        checkpoints=list(prefix.checkpoints)
        + [tuple(entry) for entry in checkpoints],
        state=state_out[0] if state_out else None,
        metadata={
            key: value
            for key, value in selection.metadata.items()
            if key != "time_log"
        },
    )
    return selection, extended


# ----------------------------------------------------------------------
# Store plumbing
# ----------------------------------------------------------------------
def save_prefix(
    store: ArtifactStore,
    record: Mapping[str, Any],
    prefix: SelectionPrefix,
) -> dict[str, Any]:
    """Commit ``prefix`` and list it on the context record.

    The artifact is written first, the record updated second (record-
    as-commit, like every other store mutation): a crash in between
    leaves an unreferenced artifact, never a dangling reference.
    Returns the updated record.
    """
    ckey = record["context_key"]
    name = prefix.artifact_name()
    store.put(
        artifact_key(ckey, name),
        prefix,
        meta={
            "context": ckey,
            "artifact": name,
            "dataset": record.get("dataset", ""),
            "selector": prefix.selector,
            "k_max": prefix.k_max,
        },
        refresh=True,
    )
    updated = dict(record)
    rows = [
        row
        for row in updated.get("prefixes", [])
        if row.get("name") != name
    ]
    rows.append(prefix.record_entry())
    updated["prefixes"] = sorted(rows, key=lambda row: row["name"])
    store.put(
        artifact_key(ckey, CONTEXT_RECORD),
        updated,
        meta={
            "context": ckey,
            "artifact": CONTEXT_RECORD,
            "dataset": record.get("dataset", ""),
        },
        refresh=True,
    )
    return updated


def load_prefix_checked(
    store: ArtifactStore,
    record: Mapping[str, Any],
    selector: str,
    params: Mapping[str, Any],
) -> tuple[SelectionPrefix | None, str | None]:
    """Like :func:`load_prefix`, but tells *absent* apart from *broken*.

    Returns ``(prefix, problem)``: ``(None, None)`` when the record
    simply lists no prefix for these bound params — the expected cold
    case — and ``(None, "<reason>")`` when the record **does** list one
    but the artifact would not load (corruption, concurrent gc, a
    payload of the wrong type).  The caller still serves the cold path
    either way; the ``problem`` string is what lets the service surface
    a ``degraded`` health marker instead of silently absorbing store
    damage request after request.
    """
    name = prefix_artifact_name(selector, params)
    if not any(
        row.get("name") == name for row in record.get("prefixes", [])
    ):
        return None, None
    try:
        value = store.get(artifact_key(record["context_key"], name))
    except StoreMiss as error:
        return None, f"prefix {name!r} listed on the record but gone: {error}"
    except StoreError as error:
        return None, f"prefix {name!r} unreadable: {error}"
    if not isinstance(value, SelectionPrefix):
        return None, (
            f"prefix {name!r} loaded as {type(value).__name__}, "
            "not SelectionPrefix"
        )
    return value, None


def load_prefix(
    store: ArtifactStore,
    record: Mapping[str, Any],
    selector: str,
    params: Mapping[str, Any],
) -> SelectionPrefix | None:
    """The stored prefix for ``(selector, bound params)``, or ``None``.

    Consults the record's ``prefixes`` list before touching disk, so a
    context without prefixes costs one dict lookup; a listed-but-
    unreadable artifact (corruption, concurrent gc) degrades to the
    cold path rather than failing the request.
    """
    value, _problem = load_prefix_checked(store, record, selector, params)
    return value


def precompute_prefix(
    store: ArtifactStore,
    record: Mapping[str, Any],
    context: SelectionContext,
    selector_name: str,
    k_max: int,
    params: Mapping[str, Any] | None = None,
    trial: int = 0,
) -> SelectionPrefix:
    """Compute and persist one prefix for a stored context (CLI entry)."""
    selector = bind_selector(context, selector_name, params, trial=trial)
    prefix = compute_prefix(context, selector, k_max)
    save_prefix(store, record, prefix)
    return prefix


def refresh_prefixes(
    store: ArtifactStore,
    record: Mapping[str, Any],
    context: SelectionContext,
) -> tuple[dict[str, Any], list[SelectionPrefix]]:
    """Recompute every prefix listed on ``record`` against ``context``.

    The ingest maintenance hook: a derived bundle's artifacts differ
    from its base's, so the base's traces are stale for it — each one
    is recomputed from the (already loaded) derived artifacts with the
    same selector, bound parameters and ``k_max``, and committed under
    the derived context's own key.  (The recorded parameters already
    include any injected seed; derivation keeps the learn-spec seed, so
    a live request against the derived bundle injects the same value.)

    Returns ``(updated record, refreshed prefixes)``.  Rows start
    stripped and re-enter the record only as their recomputed artifact
    commits — the record never references a prefix artifact that does
    not exist under its own context key.  A row whose recompute fails
    (e.g. the derived bundle lacks the needed artifacts) is dropped,
    which just means the cold path serves it.
    """
    refreshed: list[SelectionPrefix] = []
    current = dict(record)
    worklist = list(current.get("prefixes", []))
    current["prefixes"] = []
    for row in worklist:
        try:
            selector = bind_selector(
                context, row["selector"], row.get("params", {})
            )
            prefix = compute_prefix(context, selector, int(row["k_max"]))
        except (ValueError, KeyError, StoreMiss):
            continue
        current = save_prefix(store, current, prefix)
        refreshed.append(prefix)
    return current, refreshed
