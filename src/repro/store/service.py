"""``repro serve`` — a warm-start JSON query service over a store.

The paper's architecture splits expensive *offline* work (scan the
action log, learn probabilities/credits) from cheap *online* queries
(pick seeds, score a seed set).  This module is the online half: it
loads persisted artifacts from an :class:`~repro.store.store.ArtifactStore`
and answers maximization/prediction queries over plain HTTP — the raw
action log is never opened.

Endpoints (JSON in, JSON out)::

    GET  /healthz            liveness + store summary
    GET  /metrics            Prometheus text exposition (repro.obs)
    GET  /contexts           the store's context records
    GET  /selectors          the registry with capability flags
    GET  /ingest             status of past/running ingest jobs
    POST /select             {"selector", "k", "params"?, "trial"?,
                              "budget"?, "context"?}
    POST /spread             {"seeds", "context"?}        (CD proxy)
    POST /predict            {"seeds", "method"?, "context"?}
    POST /ingest             {"tuples": [[user, action, time], ...],
                              "closed"?, "context"?, "wait"?, "verify"?}

``context`` is a context key (or unique prefix); it may be omitted when
the store holds exactly one.  Loaded contexts live in a small LRU so
repeated queries hit warm in-memory state.

``/ingest`` applies an action-log delta (:mod:`repro.stream`): the
derived bundle is built in a background thread and, once committed,
the serving default is atomically swapped to it.  Queries keep being
served from the base context the whole time — serving slots are
immutable and the swap is one pointer flip under the service lock, so
there is no downtime and no torn read; in-flight requests finish on
whichever slot they resolved.  One ingest runs at a time (a concurrent
request gets HTTP 409); ``wait=true`` blocks until the job finishes
(the CLI's mode), otherwise the response returns a job id to poll via
``GET /ingest``.

Determinism: a stochastic selector that was not given an explicit
``seed`` parameter gets ``derive_seed(context seed, selector, trial)``
— exactly the experiment runner's per-(selector, trial) fan-out — and
the Monte-Carlo predictors derive per-(method, seed-set) streams the
same way the prediction pipeline does.  Identical requests therefore
return identical payloads, which the smoke tests assert.

Two production seams sit behind the handlers, both invisible in the
response bytes:

* ``/select`` consults the context's persisted
  :class:`~repro.store.prefix.SelectionPrefix` artifacts first — a
  warm ``k <= k_max`` answer is a slice of the stored trace, a larger
  ``k`` on a resumable prefix runs only the missing selections, and
  anything else falls back to the cold path.  All three produce the
  same payload (``tests/test_serve_prefix.py`` asserts byte-identity).
* ``/spread`` and ``/predict`` funnel their Monte-Carlo evaluations
  through a request coalescer: concurrent requests queue, a single
  worker drains the queue and dispatches each ``(context, method)``
  group as **one** :meth:`~repro.runtime.estimator.SpreadEstimator.spread_many`
  pass.  The queue is bounded; when it is full the service sheds load
  with HTTP 503 instead of stacking unbounded threads (explicit
  backpressure, measured by ``benchmarks/bench_serve_load.py``).

The server is stdlib ``http.server`` (threaded); it is an internal
query service, not an internet-facing deployment.
"""

from __future__ import annotations

import json
import logging
import queue as queue_module
import threading
import uuid
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Hashable, Mapping

from repro.api.context import SelectionContext
from repro.api.registry import get_selector, list_selectors
from repro.data.io import parse_id
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    EXPOSITION_CONTENT_TYPE,
    Registry,
    default_registry,
    render_exposition,
)
from repro.obs.trace import monotonic
from repro.runtime.estimator import SpreadEstimator
from repro.store.io import StoreIO
from repro.store.prefix import (
    PREFIXABLE_SELECTORS,
    SelectionPrefix,
    load_prefix_checked,
    resume_selection,
    selection_at,
)
from repro.store.store import ArtifactStore, StoreError, StoreMiss
from repro.store.warm import (
    CONTEXT_RECORD,
    load_context_record,
    load_serving_context,
)
from repro.utils.retry import RetryPolicy, with_retry
from repro.utils.rng import derive_seed

__all__ = ["QueryService", "ServiceError", "make_server", "serve"]

PREDICT_METHODS = ("CD", "IC", "LT")

logger = logging.getLogger("repro.serve")


class ServiceError(ValueError):
    """A client-visible request failure (mapped to HTTP 4xx/503).

    ``retry_after`` (seconds) is set on transient 503s — backpressure,
    a dead evaluation worker, a stalled engine — and surfaces as the
    HTTP ``Retry-After`` header so a well-behaved client backs off
    instead of hammering a degraded service.
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        retry_after: int | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def _parse_id(value: Any) -> Hashable:
    """Coerce a JSON seed id to the library's convention (ints stay ints).

    String ids go through :func:`repro.data.io.parse_id` — the exact
    rule the TSV loaders apply — so JSON-borne seeds match the ids
    stored artifacts are keyed by.
    """
    if isinstance(value, str):
        return parse_id(value)
    return value


class _ServingSlot:
    """One loaded context plus its lazily built prediction estimators."""

    def __init__(self, record: Mapping[str, Any], context: SelectionContext) -> None:
        self.record = dict(record)
        self.context = context
        self._estimators: dict[str, SpreadEstimator] = {}
        # name -> (SelectionPrefix | None, problem | None): the checked
        # load result, cached so a corrupt artifact costs one store
        # read, not one per request.  Resume-extended prefixes are
        # cached here too — in memory only; request threads never write
        # the store.
        self._prefixes: dict[str, tuple[SelectionPrefix | None, str | None]] = {}
        self._lock = threading.Lock()

    def prefix(
        self, store: ArtifactStore, selector: str, params: Mapping[str, Any]
    ) -> tuple[SelectionPrefix | None, str | None]:
        """The persisted (or slot-cached) prefix for bound params.

        Returns :func:`~repro.store.prefix.load_prefix_checked`'s
        ``(prefix, problem)`` pair; ``problem`` is non-``None`` exactly
        when the record lists a prefix these params should have hit but
        the artifact would not load — the caller's cue to degrade
        loudly rather than silently.
        """
        from repro.store.prefix import prefix_artifact_name

        name = prefix_artifact_name(selector, params)
        if not any(
            row.get("name") == name
            for row in self.record.get("prefixes", [])
        ):
            return None, None
        with self._lock:
            if name in self._prefixes:
                return self._prefixes[name]
        loaded = load_prefix_checked(store, self.record, selector, params)
        with self._lock:
            return self._prefixes.setdefault(name, loaded)

    def cache_prefix(self, prefix: SelectionPrefix) -> None:
        """Remember a resume-extended prefix (in-memory, this slot only)."""
        with self._lock:
            self._prefixes[prefix.artifact_name()] = (prefix, None)

    def estimator(self, method: str) -> SpreadEstimator:
        # ThreadingHTTPServer handles each request in its own thread;
        # estimator construction mutates the dict, so it is serialized.
        with self._lock:
            if method not in self._estimators:
                context = self.context
                if method == "LT":
                    edge_values, model = context.lt_weights(), "lt"
                else:  # "IC": the EM-learned IC model, as in the pipeline
                    edge_values, model = context.ic_probabilities("EM"), "ic"
                self._estimators[method] = SpreadEstimator(
                    context.graph,
                    edge_values,
                    model=model,
                    num_simulations=context.num_simulations,
                    seed=derive_seed(context.seed, "predict", method),
                    backend=context.backend,
                )
            return self._estimators[method]


class _BatchItem:
    """One queued Monte-Carlo evaluation awaiting its batch result."""

    __slots__ = ("slot", "method", "seeds", "event", "result", "error")

    def __init__(self, slot: _ServingSlot, method: str, seeds: list) -> None:
        self.slot = slot
        self.method = method
        self.seeds = seeds
        self.event = threading.Event()
        self.result: float | None = None
        self.error: Exception | None = None


class _Coalescer:
    """Bounded queue + single drain worker for ``/spread``/``/predict``.

    Request threads :meth:`submit` and block on a per-item event; the
    worker drains whatever is queued at that moment, groups items by
    ``(slot, method)`` and dispatches each IC/LT group as one
    :meth:`SpreadEstimator.spread_many` call — so N concurrent requests
    for the same context cost one engine pass, not N.  CD items are
    exact evaluator calls (no Monte-Carlo batching to share) and run
    per item.  ``spread_many``'s per-set bit-identity guarantees the
    coalesced answer equals the sequential one.

    The queue is bounded (``depth``): a submit against a full queue
    raises a 503 :class:`ServiceError` immediately — explicit
    backpressure instead of unbounded buffering.  The result wait is
    bounded too (``timeout``): a wedged engine turns into a 503 with
    ``Retry-After``, not a silently pinned HTTP thread.

    ``fire`` is the fault-injection hook (``StoreIO.fire``, a no-op in
    production): the worker consults ``serve.worker`` before each batch
    and ``serve.spread`` before each engine dispatch.  A worker killed
    mid-batch fails *that batch's* items and dies; the next submit
    restarts it (``worker_deaths`` counts the restarts for /healthz).
    """

    def __init__(
        self,
        depth: int = 64,
        timeout: float | None = 60.0,
        fire: Callable[..., None] | None = None,
        metrics: Registry | None = None,
    ) -> None:
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        self.depth = depth
        self.timeout = timeout
        self._fire = fire if fire is not None else (lambda site, **info: None)
        self._queue: "queue_module.Queue[_BatchItem]" = queue_module.Queue(
            maxsize=depth
        )
        self._worker: threading.Thread | None = None
        self._lock = threading.Lock()
        # Telemetry for /healthz, /metrics and the load harness: how
        # many items arrived, and how many engine dispatches they
        # collapsed into.  Registry counters (not plain ints) so the
        # exposition and the JSON report read the same cells.
        registry = metrics if metrics is not None else Registry()
        self._submitted = registry.counter(
            "repro_coalescer_submitted_total",
            "Evaluations accepted into the coalescing queue",
        )
        self._dispatches = registry.counter(
            "repro_coalescer_dispatches_total",
            "Engine dispatches ((context, method) groups, not items)",
        )
        self._rejected = registry.counter(
            "repro_coalescer_rejected_total",
            "Submissions shed with 503 against a full queue",
        )
        self._worker_deaths = registry.counter(
            "repro_coalescer_worker_deaths_total",
            "Evaluation worker deaths (the next submit restarts one)",
        )

    def submit(self, slot: _ServingSlot, method: str, seeds: list) -> float:
        """Enqueue one evaluation and block until its batch resolves."""
        self._ensure_worker()
        item = _BatchItem(slot, method, seeds)
        try:
            self._queue.put_nowait(item)
        except queue_module.Full:
            self._rejected.inc()
            raise ServiceError(
                f"evaluation queue is full ({self.depth} pending); "
                "retry later",
                status=503,
                retry_after=1,
            ) from None
        self._submitted.inc()
        if not item.event.wait(self.timeout):
            # The batch never resolved (wedged engine, dead worker that
            # lost the item).  Shedding with Retry-After beats pinning
            # the HTTP thread; the item stays owned by the worker, and
            # its late result is simply dropped.
            raise ServiceError(
                "evaluation timed out; the service is degraded",
                status=503,
                retry_after=5,
            )
        if item.error is not None:
            raise item.error
        return item.result  # type: ignore[return-value]

    def _ensure_worker(self) -> None:
        with self._lock:
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(
                    target=self._drain, daemon=True, name="repro-serve-coalesce"
                )
                self._worker.start()

    def _drain(self) -> None:
        while True:
            items = [self._queue.get()]
            while True:
                try:
                    items.append(self._queue.get_nowait())
                except queue_module.Empty:
                    break
            try:
                self._fire("serve.worker")
                self._run_batch(items)
            except BaseException as error:
                # The worker is dying (injected WorkerDied, or anything
                # _run_batch's per-group handler could not absorb).
                # Fail this batch's unresolved items so their request
                # threads get a 503 instead of a timeout, count the
                # death, and end the thread; the next submit restarts.
                for item in items:
                    if item.result is None and item.error is None:
                        item.error = error
                    item.event.set()
                self._worker_deaths.inc()
                logger.warning("evaluation worker died: %s", error)
                return

    def _run_batch(self, items: list[_BatchItem]) -> None:
        groups: "OrderedDict[tuple[int, str], list[_BatchItem]]" = OrderedDict()
        for item in items:
            groups.setdefault((id(item.slot), item.method), []).append(item)
        for (_, method), group in groups.items():
            slot = group[0].slot
            with obs_trace.span(
                "serve.coalesce.batch", method=method, items=len(group)
            ):
                try:
                    self._fire("serve.spread", method=method, items=len(group))
                    if method == "CD":
                        evaluator = slot.context.cd_evaluator()
                        for item in group:
                            item.result = evaluator.spread(item.seeds)
                    else:
                        estimator = slot.estimator(method)
                        values = estimator.spread_many(
                            [item.seeds for item in group]
                        )
                        for item, value in zip(group, values):
                            item.result = value
                except Exception as error:
                    for item in group:
                        if item.result is None:
                            item.error = error
                finally:
                    self._dispatches.inc()
                    for item in group:
                        item.event.set()

    def stats(self) -> dict[str, int]:
        return {
            "depth": self.depth,
            "submitted": int(self._submitted.value()),
            "dispatches": int(self._dispatches.value()),
            "rejected": int(self._rejected.value()),
            "worker_deaths": int(self._worker_deaths.value()),
        }


class QueryService:
    """The request handlers, independent of any HTTP plumbing."""

    def __init__(
        self,
        store_root: str,
        cache_size: int = 4,
        queue_depth: int = 64,
        ingest_timeout: float | None = 600.0,
        evaluation_timeout: float | None = 60.0,
        io: StoreIO | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        # Per-service registry: every counter this class keeps lives
        # here, /healthz reads the same cells back into its JSON
        # schema, and GET /metrics renders the whole thing (two
        # services in one process never mix telemetry).
        self.metrics = Registry()
        # io=None resolves through default_store_io(), so REPRO_FAULTS
        # in the server's environment injects faults here too; tests
        # pass a FaultInjector directly.
        self.store = ArtifactStore(
            store_root, create=False, io=io, metrics=self.metrics
        )
        self.cache_size = cache_size
        # How long a wait=true /ingest blocks before returning the
        # still-running job (None = unbounded, the pre-timeout behavior).
        self.ingest_timeout = ingest_timeout
        # Bounded retries for transient store reads (EIO that a re-read
        # survives); the jitter is seeded, so chaos runs replay exactly.
        self.retry = retry if retry is not None else RetryPolicy()
        self._slots: "OrderedDict[str, _ServingSlot]" = OrderedDict()
        # The LRU and the pinned default are shared across the
        # ThreadingHTTPServer's request threads.
        self._lock = threading.RLock()
        self._default_key: str | None = None
        self._coalescer = _Coalescer(
            depth=queue_depth,
            timeout=evaluation_timeout,
            fire=self.store.io.fire,
            metrics=self.metrics,
        )
        # /select path telemetry (prefix hit / resume / cold), for
        # /healthz and the load harness — never part of /select bodies.
        # Pre-touched to zeros so the exposition (and the legacy
        # `_select_paths` view) shows all three paths from the start.
        self._select_counter = self.metrics.counter(
            "repro_select_requests_total",
            "Answered /select requests by serving path",
            ("path",),
        )
        for path in ("prefix", "resume", "cold"):
            self._select_counter.inc(0, path=path)
        # Degradation telemetry: reason -> count of requests served in
        # a degraded way (cold fallback on a corrupt prefix, engine
        # failure shed as 503, ...).  Sticky until restart; /healthz
        # reports status "degraded" while non-empty, because each entry
        # means the store or engine needs operator attention even
        # though requests keep succeeding.
        self._degraded_counter = self.metrics.counter(
            "repro_degraded_total",
            "Degraded-mode events by reason (sticky until restart)",
            ("reason",),
        )
        # HTTP surface telemetry, recorded by the handler around every
        # routed request; strictly out-of-band (never in a body).
        self._requests = self.metrics.counter(
            "repro_requests_total",
            "HTTP requests by endpoint and status code",
            ("endpoint", "status"),
        )
        self._request_seconds = self.metrics.histogram(
            "repro_request_seconds",
            "HTTP request latency in seconds by endpoint",
            ("endpoint",),
        )
        self._last_ingest = self.metrics.gauge(
            "repro_last_ingest_seconds",
            "Derive duration of the most recent successful ingest",
        )
        # Ingest bookkeeping: one job at a time, history kept for
        # GET /ingest polling.
        self._ingests: "OrderedDict[int, dict[str, Any]]" = OrderedDict()
        self._ingest_seq = 0
        self._ingest_active = False

    @property
    def _select_paths(self) -> dict[str, int]:
        """The select-path counts as the pre-registry dict (all paths)."""
        counts = self._select_counter.by_label("path")
        return {
            path: int(counts.get(path, 0))
            for path in ("prefix", "resume", "cold")
        }

    @property
    def _degraded(self) -> dict[str, int]:
        """Degradation counts by reason — empty exactly when healthy."""
        return {
            reason: int(count)
            for reason, count in self._degraded_counter.by_label("reason").items()
        }

    def _note_degraded(self, reason: str, detail: str = "") -> None:
        """Count a degraded-mode event; warn once per distinct reason."""
        with self._lock:
            first = self._degraded_counter.value(reason=reason) == 0
            self._degraded_counter.inc(reason=reason)
        if first:
            logger.warning(
                "serving degraded (%s)%s", reason,
                f": {detail}" if detail else "",
            )

    def _read_with_retry(self, label: str, fn: Callable[[], Any]) -> Any:
        """A transient-fault-tolerant store read (see ``self.retry``)."""
        return with_retry(
            fn,
            self.retry,
            retry_on=(OSError,),
            label=label,
            on_retry=lambda attempt, error: self._note_degraded(
                "store_read_retry", f"{label}: {error}"
            ),
        )

    # ------------------------------------------------------------------
    # Context loading (LRU)
    # ------------------------------------------------------------------
    def slot(self, context_ref: str | None) -> _ServingSlot:
        """Resolve ``context_ref`` to a loaded context.

        Hot paths never rescan the store: a full context key hits the
        in-memory LRU directly, and an omitted ``context`` reuses the
        default pinned at its first resolution (a service restart — or
        an explicit key — picks up contexts stored later).  Prefixes
        and cache misses resolve through the store, where ambiguity is
        checked against *every* stored record, so a prefix never
        silently binds to whatever happens to be cached.
        """
        with self._lock:
            if context_ref is None and self._default_key is not None:
                context_ref = self._default_key
            if context_ref in self._slots:
                self._slots.move_to_end(context_ref)
                return self._slots[context_ref]
        # Resolve and load OUTSIDE the lock: pulling a cold context is
        # a multi-read unpickle of the whole bundle, and holding the
        # lock across it would stall every concurrent LRU hit.  Two
        # threads racing the same cold context both load it; the second
        # insert below wins nothing but wastes only its own work.
        try:
            record = self._read_with_retry(
                "load_context_record",
                lambda: load_context_record(self.store, context_ref),
            )
        except StoreMiss as error:
            raise ServiceError(str(error), status=404) from error
        except OSError as error:
            # Retries exhausted on a transient-looking store read: shed
            # with Retry-After rather than surfacing an internal error.
            self._note_degraded("store_read_failed", str(error))
            raise ServiceError(
                f"the store is temporarily unreadable: {error}",
                status=503,
                retry_after=2,
            ) from error
        key = record["context_key"]
        with self._lock:
            if context_ref is None:
                self._default_key = key
            if key in self._slots:
                self._slots.move_to_end(key)
                return self._slots[key]
        try:
            context = self._read_with_retry(
                "load_serving_context",
                lambda: load_serving_context(self.store, record),
            )
        except StoreError as error:
            raise ServiceError(
                f"context {key} cannot be loaded from the store: {error}",
                status=404,
            ) from error
        except OSError as error:
            self._note_degraded("store_read_failed", str(error))
            raise ServiceError(
                f"the store is temporarily unreadable: {error}",
                status=503,
                retry_after=2,
            ) from error
        slot = _ServingSlot(record, context)
        with self._lock:
            existing = self._slots.get(key)
            if existing is not None:
                self._slots.move_to_end(key)
                return existing
            self._slots[key] = slot
            self._evict_over_capacity()
            return slot

    def _evict_over_capacity(self) -> None:
        """Drop least-recently-used slots past ``cache_size``.

        The pinned default slot is exempt: it is the context every
        keyless request resolves to, so evicting it (the old
        ``popitem(last=False)`` behavior, which ignored the pin) forced
        a full bundle reload on the service's hottest path.  Caller
        holds ``self._lock``.
        """
        while len(self._slots) > self.cache_size:
            victim = next(
                (key for key in self._slots if key != self._default_key),
                None,
            )
            if victim is None:  # only the pinned default remains
                break
            del self._slots[victim]

    def _record_keys(self) -> list[str]:
        return [
            entry.meta.get("context", "")
            for entry in self.store.entries()
            if entry.meta.get("artifact") == CONTEXT_RECORD
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        # Liveness must never fail: if even the store scan is erroring,
        # the report *is* the degradation signal.
        try:
            contexts: int | None = len(
                self._read_with_retry("record_keys", self._record_keys)
            )
        except OSError as error:
            self._note_degraded("store_read_failed", str(error))
            contexts = None
        with self._lock:
            loaded = list(self._slots)
            select_paths = dict(self._select_paths)
            degraded = dict(self._degraded)
        return {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "store": str(self.store.root),
            "contexts": contexts,
            "loaded": loaded,
            "select_paths": select_paths,
            "queue": self._coalescer.stats(),
        }

    def contexts(self) -> dict[str, Any]:
        from repro.store.warm import list_context_records

        try:
            records = self._read_with_retry(
                "list_context_records",
                lambda: list_context_records(self.store),
            )
        except OSError as error:
            self._note_degraded("store_read_failed", str(error))
            raise ServiceError(
                f"the store is temporarily unreadable: {error}",
                status=503,
                retry_after=2,
            ) from error
        return {"contexts": records}

    def selectors(self) -> dict[str, Any]:
        return {
            "selectors": [
                {
                    "name": spec.name,
                    "family": spec.family,
                    "description": spec.description,
                    **spec.capabilities(),
                }
                for spec in list_selectors()
            ]
        }

    def select(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        name = payload.get("selector")
        if not isinstance(name, str):
            raise ServiceError("'selector' (a registry name) is required")
        try:
            k = int(payload.get("k", 0))
        except (TypeError, ValueError):
            raise ServiceError("'k' must be an integer") from None
        if k < 1:
            raise ServiceError("'k' must be >= 1")
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise ServiceError("'params' must be a JSON object")
        slot = self.slot(payload.get("context"))
        try:
            selector = get_selector(name, **params)
        except ValueError as error:
            raise ServiceError(str(error)) from None
        budget = payload.get("budget")
        if budget is not None:
            if not selector.spec.supports_budget:
                raise ServiceError(
                    f"selector {name!r} does not support budget workloads"
                )
            try:
                selector = selector.with_params(budget=float(budget))
            except (TypeError, ValueError):
                raise ServiceError("'budget' must be a number") from None
        try:
            trial = int(payload.get("trial", 0))
        except (TypeError, ValueError):
            raise ServiceError("'trial' must be an integer") from None
        if selector.spec.stochastic and "seed" not in selector.params:
            selector = selector.with_params(
                seed=slot.context.derive_seed(name, trial)
            )
        try:
            selection = self._run_select(slot, selector, k)
        except ValueError as error:
            raise ServiceError(
                f"selector {name!r} cannot be served from the stored "
                f"artifacts: {error}"
            ) from None
        body = selection.to_dict()
        # Responses are deterministic payloads (identical request →
        # identical bytes); wall-clock telemetry would break that.
        body.pop("wall_time_s", None)
        body.get("metadata", {}).pop("time_log", None)
        return {
            "context": slot.record["context_key"],
            "selector": name,
            "k": k,
            "trial": trial,
            "selection": body,
        }

    def _run_select(self, slot: _ServingSlot, selector, k: int):
        """Answer a bound selection, preferring the persisted prefix.

        Every branch returns a selection whose served payload (after
        the deterministic strip in :meth:`select`) is byte-identical —
        the prefix artifacts record the cold trace exactly, and resume
        continues it bit-identically — so which path answered is
        observable only in /healthz and /metrics telemetry (and the
        ``serve.select`` span's ``path`` attribute), never in the
        response.
        """
        with obs_trace.span(
            "serve.select", selector=selector.name, k=k
        ) as span:
            path, selection = self._select_on_path(slot, selector, k)
            span.set(path=path)
            self._select_counter.inc(path=path)
            return selection

    def _select_on_path(self, slot: _ServingSlot, selector, k: int):
        """The selection plus which path ("prefix"/"resume"/"cold") answered."""
        name = selector.name
        if name in PREFIXABLE_SELECTORS:
            # The whole warm path is best-effort: the cold path below
            # can always answer, byte-identically, so *no* prefix
            # problem — a corrupt artifact, a torn checkpoint list, a
            # resume that trips on damaged state — is allowed to turn
            # into a 500.  It degrades, and /healthz says so.
            try:
                prefix, problem = slot.prefix(
                    self.store, name, selector.params
                )
                if problem is not None:
                    self._note_degraded("prefix_corrupt", problem)
                if prefix is not None:
                    if k <= prefix.k_max:
                        return "prefix", selection_at(prefix, k)
                    if prefix.resumable:
                        selection, extended = resume_selection(
                            slot.context, prefix, k
                        )
                        slot.cache_prefix(extended)
                        return "resume", selection
            except Exception as error:
                self._note_degraded(
                    "prefix_fallback",
                    f"warm path for {name!r} k={k} failed: {error}",
                )
        return "cold", selector.select(slot.context, k)

    def _seeds(self, payload: Mapping[str, Any]) -> list[Hashable]:
        seeds = payload.get("seeds")
        if not isinstance(seeds, list) or not seeds:
            raise ServiceError("'seeds' (a non-empty list) is required")
        return [_parse_id(seed) for seed in seeds]

    def spread(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        slot = self.slot(payload.get("context"))
        seeds = self._seeds(payload)
        try:
            value = self._coalescer.submit(slot, "CD", seeds)
        except ServiceError:
            raise  # queue backpressure / timeout (503) passes through
        except ValueError as error:
            raise ServiceError(
                f"the stored artifacts lack the sigma_cd evaluator: {error}"
            ) from None
        except (RuntimeError, OSError) as error:
            self._note_degraded("engine_failure", str(error))
            raise ServiceError(
                f"evaluation engine failure: {error}",
                status=503,
                retry_after=1,
            ) from error
        return {
            "context": slot.record["context_key"],
            "seeds": payload["seeds"],
            "model": "cd",
            "spread": value,
        }

    def predict(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        method = str(payload.get("method", "CD"))
        if method not in PREDICT_METHODS:
            raise ServiceError(
                f"'method' must be one of {list(PREDICT_METHODS)}, got {method!r}"
            )
        slot = self.slot(payload.get("context"))
        seeds = self._seeds(payload)
        try:
            predicted = self._coalescer.submit(slot, method, seeds)
            if method == "CD":
                predicted = float(predicted)
        except ServiceError:
            raise  # queue backpressure / timeout (503) passes through
        except ValueError as error:
            raise ServiceError(
                f"method {method!r} cannot be served from the stored "
                f"artifacts: {error}"
            ) from None
        except (RuntimeError, OSError) as error:
            self._note_degraded("engine_failure", str(error))
            raise ServiceError(
                f"evaluation engine failure: {error}",
                status=503,
                retry_after=1,
            ) from error
        return {
            "context": slot.record["context_key"],
            "seeds": payload["seeds"],
            "method": method,
            "predicted_spread": predicted,
        }

    # ------------------------------------------------------------------
    # Streaming ingest (delta -> derived bundle -> atomic swap)
    # ------------------------------------------------------------------
    def ingest(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Apply an action-log delta; swap the serving default when done.

        The derive runs on a background thread (``wait=true`` joins it).
        The base context serves queries throughout; once the derived
        bundle is committed, the default context pointer flips to it
        under the service lock — an atomic swap, never a torn read,
        because serving slots are immutable once built.  A failed
        derive (bad delta, frozen action) leaves serving untouched and
        is reported on the job, not as a 5xx.
        """
        from repro.stream.delta import ActionLogDelta

        raw = payload.get("tuples", [])
        if not isinstance(raw, list):
            raise ServiceError(
                "'tuples' must be a list of [user, action, time] triples"
            )
        delta = ActionLogDelta()
        for item in raw:
            if not isinstance(item, (list, tuple)) or len(item) != 3:
                raise ServiceError(
                    "each tuple must be a [user, action, time] triple"
                )
            user, action, time = item
            try:
                delta.add(_parse_id(user), _parse_id(action), float(time))
            except (TypeError, ValueError):
                raise ServiceError("tuple times must be numbers") from None
        closed = payload.get("closed")
        if closed is None:
            # The common case: the delta's traces are complete batches.
            for action in delta.actions():
                delta.close(action)
        elif isinstance(closed, list):
            for action in closed:
                delta.close(_parse_id(action))
        else:
            raise ServiceError("'closed' must be a list of action ids")
        if not delta.tuples and not delta.closed:
            raise ServiceError("an ingest needs 'tuples' and/or 'closed'")
        # An omitted context is the pinned serving default, as in
        # slot(): after a swap the store holds several contexts, and
        # the keyless base is the one being served.
        context_ref = payload.get("context")
        if context_ref is None:
            with self._lock:
                context_ref = self._default_key
        try:
            record = self._read_with_retry(
                "ingest_load_context_record",
                lambda: load_context_record(self.store, context_ref),
            )
        except StoreMiss as error:
            raise ServiceError(str(error), status=404) from error
        except OSError as error:
            self._note_degraded("store_read_failed", str(error))
            raise ServiceError(
                f"the store is temporarily unreadable: {error}",
                status=503,
                retry_after=2,
            ) from error
        # Strict booleans: bool("false") is True in python, so a JSON
        # string like "false" used to silently flip these flags on.
        wait = payload.get("wait", False)
        if not isinstance(wait, bool):
            raise ServiceError("'wait' must be a JSON boolean")
        verify = payload.get("verify", False)
        if not isinstance(verify, bool):
            raise ServiceError("'verify' must be a JSON boolean")
        with self._lock:
            if self._ingest_active:
                raise ServiceError(
                    "another ingest is already in progress", status=409
                )
            self._ingest_active = True
            self._ingest_seq += 1
            job: dict[str, Any] = {
                "job": self._ingest_seq,
                "base": record["context_key"],
                "status": "running",
                "derived": None,
                "error": None,
                "report": None,
            }
            self._ingests[job["job"]] = job
        try:
            thread = threading.Thread(
                target=self._run_ingest,
                args=(job, record, delta, verify),
                daemon=True,
            )
            thread.start()
        except Exception as error:
            # A thread that never started will never run _run_ingest's
            # finally; release the one-at-a-time flag here or every
            # future ingest gets a permanent 409.
            with self._lock:
                self._ingest_active = False
                job["status"] = "failed"
                job["error"] = f"ingest worker failed to start: {error}"
            self._note_degraded("ingest_start_failed", str(error))
            raise ServiceError(
                "the ingest worker could not be started; retry later",
                status=503,
                retry_after=5,
            ) from error
        timed_out = False
        if wait:
            # A bounded join: a hung derive must not pin an HTTP thread
            # (and its client) forever.  On timeout the job keeps
            # running in the background and the response says so.
            thread.join(self.ingest_timeout)
            timed_out = thread.is_alive()
        with self._lock:
            snapshot = dict(job)
        if timed_out:
            snapshot["wait_timed_out"] = True
        return snapshot

    def _run_ingest(
        self,
        job: dict[str, Any],
        record: Mapping[str, Any],
        delta: Any,
        verify: bool,
    ) -> None:
        try:
            from repro.stream.derive import derive_bundle

            self.store.io.fire("serve.ingest", job=job["job"])
            started = monotonic()
            result = derive_bundle(
                self.store, delta, record=record, verify=verify
            )
            # The last-ingest gauge answers "how long does an ingest
            # take on this store right now" from a /metrics scrape; a
            # failed derive leaves the previous value standing.
            self._last_ingest.set(monotonic() - started)
            context = self._read_with_retry(
                "ingest_load_serving_context",
                lambda: load_serving_context(self.store, result.record),
            )
            slot = _ServingSlot(result.record, context)
            with self._lock:
                key = result.derived_key
                self._slots[key] = slot
                self._slots.move_to_end(key)
                if self._default_key in (None, job["base"]):
                    self._default_key = key
                # After the default swap, so the new default is already
                # pinned and the old base becomes evictable.
                self._evict_over_capacity()
                job["status"] = "done"
                job["derived"] = key
                job["lineage_depth"] = int(
                    result.record.get("lineage_depth", 0)
                )
                job["report"] = result.report.to_dict()
        except BaseException as error:
            # BaseException, not Exception: a worker killed by
            # SystemExit (or an injected WorkerDied wrapped in one)
            # must still leave the job marked failed — a job stuck
            # "running" forever with the flag released would report a
            # phantom in-flight ingest to every GET /ingest poll.
            with self._lock:
                job["status"] = "failed"
                job["error"] = str(error) or type(error).__name__
            self._note_degraded("ingest_failed", job["error"])
            if not isinstance(error, Exception):
                raise  # SystemExit/KeyboardInterrupt keep their semantics
        finally:
            # Unconditional: however the derive ended — clean commit,
            # bad delta, worker death — the one-at-a-time flag drops so
            # the next POST /ingest is a 202, never a permanent 409.
            with self._lock:
                self._ingest_active = False

    def ingest_status(self) -> dict[str, Any]:
        with self._lock:
            return {
                "ingests": [dict(job) for job in self._ingests.values()],
                "default": self._default_key,
            }


class _Handler(BaseHTTPRequestHandler):
    service: QueryService  # injected by make_server
    access_log = False  # set by make_server (`repro serve --access-log`)
    # Seconds any one socket read or write may block (socketserver
    # applies it to the connection).  A client that stalls mid-request,
    # e.g. sending fewer body bytes than its Content-Length, gets its
    # connection closed instead of pinning a handler thread for as long
    # as it holds the socket.  Waiting on the engine (a long /ingest
    # with "wait") is not socket I/O and is not bounded by it.
    timeout = 30.0
    # Largest POST body accepted, in bytes.  rfile.read(n) allocates
    # its n-byte buffer before any byte arrives, so a larger declared
    # Content-Length is refused unread.  Real bodies are far smaller:
    # a whole small-preset action log sent as one /ingest delta is
    # ~0.4 MB.
    max_body_bytes = 16 * 1024 * 1024

    # Quiet: http.server's own lines carry no request ids or latency;
    # the structured access log in _run replaces them when enabled.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _respond(
        self,
        status: int,
        body: dict[str, Any],
        headers: Mapping[str, str] | None = None,
    ) -> None:
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        self._send(status, data, "application/json", headers)

    def _send(
        self,
        status: int,
        data: bytes,
        content_type: str,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response.  There is nobody left to
            # answer; letting the exception escape used to crash the
            # request thread with a traceback on stderr.
            self.close_connection = True

    def _run(self, fn, *args) -> None:
        service = self.service
        trace = obs_trace.current_trace()
        request_id = trace.trace_id if trace is not None else uuid.uuid4().hex[:12]
        started = monotonic()
        status, headers = 200, None
        try:
            body = fn(*args)
        except ServiceError as error:
            status = error.status
            body = {"error": str(error)}
            if error.retry_after is not None:
                headers = {"Retry-After": str(int(error.retry_after))}
        except Exception as error:  # pragma: no cover - defensive
            status, body = 500, {"error": f"internal error: {error}"}
        self._respond(status, body, headers)
        duration_s = monotonic() - started
        # Out-of-band by construction: recorded after the response
        # bytes are already on the wire.
        service._requests.inc(endpoint=self.path, status=status)
        service._request_seconds.observe(duration_s, endpoint=self.path)
        if self.access_log:
            logger.info(
                '%s "%s %s" %d %.1fms id=%s',
                self.client_address[0],
                self.command,
                self.path,
                status,
                duration_s * 1000.0,
                request_id,
            )

    def _metrics(self) -> None:
        page = render_exposition(self.service.metrics, default_registry())
        self._send(200, page.encode("utf-8"), EXPOSITION_CONTENT_TYPE)

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        if self.path == "/metrics":
            # Not JSON and not counted in its own counters: a scrape
            # that moved the numbers it reports would never settle.
            self._metrics()
            return
        routes = {
            "/healthz": self.service.healthz,
            "/contexts": self.service.contexts,
            "/selectors": self.service.selectors,
            "/ingest": self.service.ingest_status,
        }
        handler = routes.get(self.path)
        if handler is None:
            self._respond(404, {"error": f"unknown path {self.path!r}"})
            return
        self._run(handler)

    def do_POST(self) -> None:  # noqa: N802
        routes = {
            "/select": self.service.select,
            "/spread": self.service.spread,
            "/predict": self.service.predict,
            "/ingest": self.service.ingest,
        }
        handler = routes.get(self.path)
        if handler is None:
            self._respond(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                # rfile.read(-1) would block until the client hangs up.
                raise ValueError(f"negative Content-Length {length}")
            if length > self.max_body_bytes:
                # The unread body must not be parsed as a next request.
                self.close_connection = True
                self._respond(
                    413,
                    {
                        "error": f"request body of {length} bytes exceeds "
                        f"the {self.max_body_bytes}-byte limit"
                    },
                )
                return
            payload = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, TypeError) as error:
            self._respond(400, {"error": f"bad request body: {error}"})
            return
        self._run(handler, payload)


def make_server(
    store_root: str,
    host: str = "127.0.0.1",
    port: int = 0,
    cache_size: int = 4,
    queue_depth: int = 64,
    ingest_timeout: float | None = 600.0,
    evaluation_timeout: float | None = 60.0,
    io: StoreIO | None = None,
    retry: RetryPolicy | None = None,
    access_log: bool = False,
) -> ThreadingHTTPServer:
    """A ready-to-run HTTP server over ``store_root`` (not yet serving).

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``server.server_address``.  ``access_log=True`` logs one line per
    request (client, route, status, latency, request id) on the
    ``repro.serve`` logger.
    """
    service = QueryService(
        store_root,
        cache_size=cache_size,
        queue_depth=queue_depth,
        ingest_timeout=ingest_timeout,
        evaluation_timeout=evaluation_timeout,
        io=io,
        retry=retry,
    )
    handler = type(
        "BoundHandler",
        (_Handler,),
        {"service": service, "access_log": access_log},
    )
    return ThreadingHTTPServer((host, port), handler)


def serve(
    store_root: str,
    host: str = "127.0.0.1",
    port: int = 8734,
    cache_size: int = 4,
    queue_depth: int = 64,
    ingest_timeout: float | None = 600.0,
    access_log: bool = False,
) -> None:
    """Run the query service until interrupted (the CLI entry point)."""
    if access_log and not logging.getLogger().handlers:
        logging.basicConfig(
            level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
        )
    server = make_server(
        store_root,
        host=host,
        port=port,
        cache_size=cache_size,
        queue_depth=queue_depth,
        ingest_timeout=ingest_timeout,
        access_log=access_log,
    )
    bound_host, bound_port = server.server_address[:2]
    print(f"repro serve: http://{bound_host}:{bound_port} over store {store_root}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
