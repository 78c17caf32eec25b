"""The pluggable parallel-executor seam of the experiment runtime.

Every embarrassingly parallel unit in the pipeline — (selector, trial)
cells of the selection stage, Monte-Carlo world ranges inside a
:class:`~repro.runtime.estimator.SpreadEstimator`, per-method predictor
evaluation, the greedy/CELF candidate sweeps — is dispatched through one
:class:`Executor` object instead of a bare ``for`` loop.  Swapping the
executor changes *where* tasks run, never *what* they compute:

* every task's randomness comes from a seed derived up front with the
  :func:`repro.utils.rng.derive_seed` fan-out (labels, not execution
  order), and
* every reduction consumes results in submission order (``map`` is
  order-preserving),

so the serial, thread and process executors are bit-identical — the
property ``tests/test_runtime_parallel.py`` enforces.

Executor selection mirrors the compute-backend policy of
:func:`repro.kernels.resolve_backend`:

* an explicit ``"serial"`` / ``"thread"`` / ``"process"`` request wins;
* ``None`` / ``"auto"`` defer to the ``REPRO_EXECUTOR`` environment
  variable, falling back to ``"serial"`` when it is unset.

Two safety rules keep nested parallelism sane:

* an :class:`Executor` that crosses a process boundary (pickled into a
  worker) degrades to serial — workers never spawn grandchildren;
* a ``map`` issued from inside one of this executor's own tasks (e.g.
  a CELF sweep inside a selector cell running on the thread pool) runs
  serially in place — tasks never deadlock waiting on their own pool.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

from repro.obs import trace as obs_trace
from repro.utils.validation import require

__all__ = [
    "EXECUTORS",
    "EXECUTOR_ENV_VAR",
    "Executor",
    "as_executor",
    "resolve_executor",
    "split_chunks",
]

T = TypeVar("T")

EXECUTORS = ("serial", "thread", "process")
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"


def resolve_executor(requested: str | None = None) -> str:
    """Resolve an executor request to one of :data:`EXECUTORS`.

    ``None`` / ``"auto"`` defer to the ``REPRO_EXECUTOR`` environment
    variable (default ``"serial"``; an explicit ``auto`` in the
    environment also means the default); anything else must name an
    executor kind explicitly.
    """
    if requested is None or requested == "auto":
        requested = os.environ.get(EXECUTOR_ENV_VAR, "") or "serial"
        if requested == "auto":
            requested = "serial"
    if requested not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS + ('auto',)}, "
            f"got {requested!r}"
        )
    return requested


def split_chunks(items: Sequence[T], parts: int) -> list[list[T]]:
    """Split ``items`` into at most ``parts`` contiguous, balanced chunks.

    Deterministic and order-preserving; used to group independent tasks
    for transport so a process worker amortises its per-task pickling
    over several units.  Results never depend on the chunking — every
    unit's output is a pure function of the unit itself.
    """
    require(parts >= 1, f"parts must be >= 1, got {parts}")
    items = list(items)
    parts = min(parts, len(items)) or 1
    base, extra = divmod(len(items), parts)
    chunks: list[list[T]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        if size == 0:
            break
        chunks.append(items[start:start + size])
        start += size
    return chunks


def _traced_call(payload):
    """Module-level (hence picklable) task wrapper for traced maps."""
    token, fn, item = payload
    return obs_trace.run_task(token, fn, item)


class Executor:
    """Ordered ``map`` over independent tasks: serial, thread or process.

    Parameters
    ----------
    kind:
        ``"serial"``, ``"thread"`` or ``"process"`` (or ``"auto"`` /
        ``None`` to defer to ``REPRO_EXECUTOR``).
    max_workers:
        Worker count for the parallel kinds; defaults to the CPU count.

    Notes
    -----
    * ``map`` preserves input order, so reductions over its results are
      executor-independent.
    * For the process kind, the callable and every item must be
      picklable (module-level functions with plain-data payloads).
    * The worker pool is created lazily on the first parallel ``map``
      and reused across calls — ``spread()``-shaped hot paths issue
      hundreds of small maps, and paying a pool spawn per call would
      swamp the fan-out.  :meth:`close` tears the pool down (a later
      ``map`` transparently recreates it), and the pool is also
      released when the executor is garbage-collected.
    """

    def __init__(self, kind: str | None = "serial",
                 max_workers: int | None = None) -> None:
        self.kind = resolve_executor(kind)
        require(
            max_workers is None or max_workers >= 1,
            f"max_workers must be >= 1, got {max_workers}",
        )
        self.max_workers = max_workers
        self._local = threading.local()
        self._pool = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def is_parallel(self) -> bool:
        """True iff this executor may run tasks concurrently."""
        return self.kind != "serial"

    def workers(self) -> int:
        """The effective worker count of the parallel kinds."""
        return self.max_workers or os.cpu_count() or 1

    def _get_pool(self):
        with self._pool_lock:
            if self._pool is None:
                if self.kind == "thread":
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.workers()
                    )
                else:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.workers()
                    )
            return self._pool

    def close(self) -> None:
        """Shut the worker pool down (a later ``map`` recreates it)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self):  # pragma: no cover - gc timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def map(self, fn: Callable[[Any], T], items: Sequence[Any]) -> list[T]:
        """Apply ``fn`` to every item, returning results in input order."""
        items = list(items)
        if not items:
            return []
        if obs_trace.trace_enabled():
            return self._map_traced(fn, items)
        if (
            self.kind == "serial"
            or len(items) == 1
            or getattr(self._local, "active", False)
        ):
            return [fn(item) for item in items]
        pool = self._get_pool()
        if self.kind == "thread":
            return list(pool.map(self._reentrancy_guard(fn), items))
        chunksize = max(1, len(items) // (self.workers() * 2))
        return list(pool.map(fn, items, chunksize=chunksize))

    def _map_traced(self, fn: Callable[[Any], T], items: list) -> list[T]:
        """``map`` with span propagation across the executor boundary.

        Worker threads and processes do not inherit the submitting
        context, so every task ships an explicit trace token; tokens
        pin each task's child index, making span ids independent of
        scheduling, and the three kinds wrap tasks identically so
        serial, thread and process runs yield the same span tree.
        Task results are untouched — tracing stays out-of-band.
        """
        inline = (
            self.kind == "serial"
            or len(items) == 1
            or getattr(self._local, "active", False)
        )
        with obs_trace.span("executor.map", kind=self.kind, tasks=len(items)):
            payloads = [
                (obs_trace.export_task(index), fn, item)
                for index, item in enumerate(items)
            ]
            if inline:
                outs = [_traced_call(payload) for payload in payloads]
            elif self.kind == "thread":
                pool = self._get_pool()
                outs = list(
                    pool.map(self._reentrancy_guard(_traced_call), payloads)
                )
            else:
                pool = self._get_pool()
                chunksize = max(1, len(items) // (self.workers() * 2))
                outs = list(pool.map(_traced_call, payloads, chunksize=chunksize))
            results: list[T] = []
            for result, spans in outs:
                obs_trace.absorb_task(spans)
                results.append(result)
            return results

    def _reentrancy_guard(self, fn: Callable[[Any], T]) -> Callable[[Any], T]:
        local = self._local

        def guarded(item: Any) -> T:
            local.active = True
            try:
                return fn(item)
            finally:
                local.active = False

        return guarded

    # ------------------------------------------------------------------
    # Pickling: an executor shipped into a worker degrades to serial so
    # workers never spawn pools of their own.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        return {"kind": "serial", "max_workers": self.max_workers}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.kind = state.get("kind", "serial")
        self.max_workers = state.get("max_workers")
        self._local = threading.local()
        self._pool = None
        self._pool_lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Executor(kind={self.kind!r}, max_workers={self.max_workers})"


def as_executor(value: "Executor | str | None",
                max_workers: int | None = None) -> Executor:
    """Coerce a kind name (or ``None``/``"auto"``) to an :class:`Executor`.

    A ready-made :class:`Executor` passes through unchanged (its own
    ``max_workers`` wins).
    """
    if isinstance(value, Executor):
        return value
    return Executor(value, max_workers=max_workers)
