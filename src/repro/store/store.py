"""The on-disk artifact store: versioned, content-addressed, atomic.

Layout (all under one root directory)::

    <root>/objects/<key[:2]>/<key>/manifest.json   # commit marker
    <root>/objects/<key[:2]>/<key>/payload.bin     # pickled artifact

(A ``refresh`` that replaces a live entry commits its new bytes under a
checksum-named ``payload-<sum>.bin`` generation file instead — the
manifest records which file is current — so the old manifest+payload
pair stays readable until the new manifest renames over it.)

A manifest names the store format version, the payload's byte count and
checksum, a creation timestamp and a JSON ``meta`` mapping (dataset
name, artifact slot, learn parameters — whatever the writer wants
``repro store ls`` to render).  Writes are corruption-safe: the payload
is written to a temp file and ``os.replace``d into place, then the
manifest likewise — the manifest's presence *is* the commit, so a
crash mid-write leaves either no entry or a complete one, never a torn
one.  Reads verify the checksum before decoding; any mismatch, parse
failure or missing payload raises :class:`StoreCorruption`, which
consumers (the warm-start loader, the CLI) treat as a miss.

Entries written by a different :data:`~repro.store.keys.FORMAT_VERSION`
are reported as misses, not errors — version bumps invalidate, they do
not corrupt.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Collection, Iterator

from repro.obs import trace as obs_trace
from repro.store.io import StoreIO, default_store_io
from repro.store.keys import FORMAT_VERSION
from repro.store.serialize import (
    PayloadError,
    checksum,
    dump_payload,
    load_payload,
)

__all__ = [
    "StoreError",
    "StoreMiss",
    "StoreCorruption",
    "StoreEntry",
    "ArtifactStore",
]

_MANIFEST = "manifest.json"
_PAYLOAD = "payload.bin"


class StoreError(Exception):
    """Base class for artifact-store failures."""


class StoreMiss(StoreError, KeyError):
    """The requested key has no (current-format) entry."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return Exception.__str__(self)


class StoreCorruption(StoreError):
    """An entry exists but cannot be trusted (torn write, bad checksum)."""


@dataclass(frozen=True)
class StoreEntry:
    """One committed entry's manifest, as read from disk."""

    key: str
    format_version: int
    payload_bytes: int
    checksum: str
    created_at: float
    meta: dict[str, Any] = field(default_factory=dict)
    # Which file in the entry directory holds the payload.  Fresh
    # entries use ``payload.bin``; a ``refresh`` over a live entry
    # commits its new bytes under a checksum-named generation file so
    # the old manifest+payload pair stays readable until the new
    # manifest renames into place (crash-atomic replacement).
    payload_name: str = _PAYLOAD

    def describe(self) -> str:
        """A one-line human summary (the ``repro store ls`` row source)."""
        artifact = self.meta.get("artifact", "?")
        dataset = self.meta.get("dataset", "?")
        return f"{self.key[:12]}  {dataset}  {artifact}  {self.payload_bytes}B"


class ArtifactStore:
    """A content-addressed artifact store rooted at one directory."""

    # Orphaned temp files are only collected after this many seconds —
    # younger ones may be a concurrent writer's in-flight payload.
    _TMP_GRACE_S = 3600.0

    def __init__(
        self,
        root: str | os.PathLike[str],
        create: bool = True,
        io: StoreIO | None = None,
        metrics: Any | None = None,
    ) -> None:
        self.root = Path(root)
        # All physical I/O routes through this seam; ``repro.faults``
        # substitutes a deterministic fault injector here (directly, or
        # process-wide via the REPRO_FAULTS environment variable).
        self.io = io if io is not None else default_store_io()
        # Optional observability seam: a repro.obs.metrics.Registry.
        # When set (the query service passes its own), every get/put
        # outcome is counted — strictly out-of-band, bytes unchanged.
        self._get_counter = self._put_counter = None
        if metrics is not None:
            self._get_counter = metrics.counter(
                "repro_store_get_total",
                "Store reads by outcome",
                ("result",),
            )
            self._put_counter = metrics.counter(
                "repro_store_put_total", "Store entry commits"
            )
        self._objects = self.root / "objects"
        if create:
            self._objects.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            # Readers fail fast on a typo'd path instead of presenting
            # a healthy-looking empty store.
            raise StoreError(f"no artifact store at {self.root}")

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @staticmethod
    def _valid_key(key: str) -> bool:
        return bool(key) and all(ch in "0123456789abcdef" for ch in key)

    def _entry_dir(self, key: str) -> Path:
        if not self._valid_key(key):
            raise StoreError(f"malformed store key {key!r}")
        return self._objects / key[:2] / key

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        obj: Any,
        meta: dict[str, Any] | None = None,
        refresh: bool = False,
    ) -> StoreEntry:
        """Commit ``obj`` under ``key`` (idempotent unless ``refresh``).

        An existing current-format entry is left untouched when
        ``refresh`` is false — the key scheme guarantees equal keys mean
        equal values, so rewriting would only churn bytes.
        """
        with obs_trace.span("store.put", key=key[:12], refresh=refresh):
            return self._put(key, obj, meta, refresh)

    def _put(
        self,
        key: str,
        obj: Any,
        meta: dict[str, Any] | None,
        refresh: bool,
    ) -> StoreEntry:
        if self._put_counter is not None:
            self._put_counter.inc()
        if not refresh and self.contains(key):
            return self.entry(key)
        payload = dump_payload(obj)
        directory = self._entry_dir(key)
        directory.mkdir(parents=True, exist_ok=True)
        # A refresh over a live entry must be crash-atomic: replacing
        # payload.bin in place would leave the *old* manifest pointing
        # at the *new* bytes if we die before the manifest commits — a
        # torn entry where both versions are lost.  Instead the new
        # payload lands under a checksum-named generation file and the
        # manifest (the commit marker) says which file is current; the
        # superseded file is unlinked only after the commit.
        previous: StoreEntry | None = None
        if refresh and (directory / _MANIFEST).exists():
            try:
                previous = self._read_manifest(directory / _MANIFEST)
                if previous.format_version != FORMAT_VERSION:
                    previous = None
            except StoreCorruption:
                previous = None
        digest = checksum(payload)
        payload_name = _PAYLOAD
        if previous is not None and previous.checksum != digest:
            payload_name = f"payload-{digest[:12]}.bin"
        elif previous is not None:
            # Same bytes: rewriting the existing file is tear-free (the
            # replacement content matches what the old manifest claims)
            # and repairs any external damage to it.
            payload_name = previous.payload_name
        entry = StoreEntry(
            key=key,
            format_version=FORMAT_VERSION,
            payload_bytes=len(payload),
            checksum=digest,
            created_at=time.time(),
            meta=dict(meta or {}),
            payload_name=payload_name,
        )
        self._replace_into(directory / entry.payload_name, payload)
        manifest = {
            "format_version": entry.format_version,
            "key": entry.key,
            "payload_bytes": entry.payload_bytes,
            "checksum": entry.checksum,
            "created_at": entry.created_at,
            "meta": entry.meta,
        }
        if entry.payload_name != _PAYLOAD:
            manifest["payload"] = entry.payload_name
        self._replace_into(
            directory / _MANIFEST,
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
        )
        if previous is not None and previous.payload_name != entry.payload_name:
            # Post-commit garbage: the superseded payload generation.
            # A crash before this unlink leaves a stale file that gc
            # collects after the grace window.
            try:
                (directory / previous.payload_name).unlink()
            except OSError:
                pass
        return entry

    def _replace_into(self, target: Path, data: bytes) -> None:
        """Atomically materialize ``data`` at ``target`` (durably).

        temp write → fsync → ``os.replace`` → parent-directory fsync.
        The directory fsync is what makes the rename itself survive
        power loss: without it a committed manifest can vanish with the
        unflushed directory block, resurrecting the pre-write state (or
        a payload/manifest tear) after reboot.
        """
        io = self.io
        temporary = target.parent / f".tmp-{uuid.uuid4().hex}"
        handle = io.open_write(temporary)
        try:
            io.write(handle, data)
            io.fsync(handle)
        finally:
            handle.close()
        io.replace(temporary, target)
        io.fsync_dir(target.parent)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        """True iff ``key`` has a committed current-format entry."""
        try:
            self.entry(key)
        except StoreError:
            return False
        return True

    def entry(self, key: str) -> StoreEntry:
        """The manifest of ``key`` (no payload read).

        Raises :class:`StoreMiss` for absent or other-format entries and
        :class:`StoreCorruption` for unreadable manifests.
        """
        manifest_path = self._entry_dir(key) / _MANIFEST
        if not manifest_path.exists():
            raise StoreMiss(f"no entry for key {key}")
        entry = self._read_manifest(manifest_path)
        if entry.format_version != FORMAT_VERSION:
            raise StoreMiss(
                f"entry {key} has format_version {entry.format_version}, "
                f"this library reads {FORMAT_VERSION}"
            )
        return entry

    def _read_manifest(self, path: Path) -> StoreEntry:
        # A vanished file is evidence about the *entry* (torn or
        # concurrently deleted) and maps to StoreCorruption; any other
        # OSError (EIO, a flaky mount) is evidence about the *device*
        # and propagates raw — it may succeed on retry, and classifying
        # it as corruption would let gc delete a healthy entry.
        try:
            data = self.io.read_bytes(path)
        except FileNotFoundError as error:
            raise StoreCorruption(
                f"unreadable manifest {path}: {error}"
            ) from error
        try:
            payload = json.loads(data.decode("utf-8"))
            name = str(payload.get("payload", _PAYLOAD))
            if "/" in name or "\\" in name or not name.startswith("payload"):
                raise ValueError(f"suspicious payload file name {name!r}")
            return StoreEntry(
                key=str(payload["key"]),
                format_version=int(payload["format_version"]),
                payload_bytes=int(payload["payload_bytes"]),
                checksum=str(payload["checksum"]),
                created_at=float(payload["created_at"]),
                meta=dict(payload.get("meta", {})),
                payload_name=name,
            )
        except (ValueError, TypeError, KeyError) as error:
            raise StoreCorruption(f"unreadable manifest {path}: {error}") from error

    def _verified_payload(self, key: str) -> bytes:
        """The raw payload bytes of ``key``, checksum-verified."""
        entry = self.entry(key)
        payload_path = self._entry_dir(key) / entry.payload_name
        try:
            payload = self.io.read_bytes(payload_path)
        except FileNotFoundError as error:
            raise StoreCorruption(
                f"entry {key} has a manifest but no readable payload: {error}"
            ) from error
        # Other OSErrors propagate raw — transient device errors are
        # retryable, not proof of a torn write (see _read_manifest).
        if len(payload) != entry.payload_bytes or checksum(payload) != entry.checksum:
            raise StoreCorruption(
                f"entry {key} payload does not match its manifest "
                "(torn write or external modification)"
            )
        return payload

    def get(self, key: str) -> Any:
        """Load and decode the artifact stored under ``key``.

        Raises :class:`StoreMiss` when absent, :class:`StoreCorruption`
        when the entry cannot be trusted (checksum or size mismatch,
        undecodable payload).
        """
        with obs_trace.span("store.get", key=key[:12]):
            try:
                value = load_payload(self._verified_payload(key))
            except PayloadError as error:
                self._count_get("corrupt")
                raise StoreCorruption(f"entry {key}: {error}") from error
            except StoreCorruption:
                self._count_get("corrupt")
                raise
            except StoreMiss:
                self._count_get("miss")
                raise
            self._count_get("hit")
            return value

    def _count_get(self, result: str) -> None:
        if self._get_counter is not None:
            self._get_counter.inc(result=result)

    def verify(self, key: str) -> bool:
        """True iff ``key``'s entry is committed and its bytes check out.

        Reads the payload and compares checksums but never decodes it —
        the cheap health probe ``gc`` and the warm-start writer use to
        detect torn/modified entries without unpickling them.
        """
        try:
            self._verified_payload(key)
        except StoreError:
            return False
        return True

    # ------------------------------------------------------------------
    # Enumeration and maintenance
    # ------------------------------------------------------------------
    def _entry_dirs(self) -> Iterator[Path]:
        if not self._objects.exists():
            return
        for shard in sorted(self._objects.iterdir()):
            if not shard.is_dir():
                continue
            for directory in sorted(shard.iterdir()):
                if directory.is_dir():
                    yield directory

    def entries(self) -> list[StoreEntry]:
        """Every committed, readable, current-format entry's manifest."""
        found: list[StoreEntry] = []
        for directory in self._entry_dirs():
            try:
                found.append(self.entry(directory.name))
            except StoreError:
                continue
        return found

    def delete(self, key: str) -> None:
        """Remove an entry (manifest first, so readers never see a torn one)."""
        directory = self._entry_dir(key)
        for name in (_MANIFEST, _PAYLOAD):
            try:
                (directory / name).unlink()
            except FileNotFoundError:
                pass
        self._remove_dir(directory)

    def _remove_dir(self, directory: Path) -> None:
        try:
            for stray in directory.iterdir():
                stray.unlink()
            directory.rmdir()
        except OSError:
            pass

    def gc(
        self,
        older_than_s: float | None = None,
        dry_run: bool = False,
        protect_contexts: Collection[str] = (),
    ) -> list[str]:
        """Collect garbage; returns the keys/paths that were (or would be)
        removed.

        Always collects broken entries — torn writes, checksum
        mismatches, stale-format manifests, leftover temp files.
        ``older_than_s`` additionally expires healthy entries whose
        manifest is older than that many seconds (age-based cache
        rotation; the key scheme makes any entry safe to drop — the
        next run re-learns and re-saves).  ``protect_contexts`` exempts
        healthy entries whose ``meta["context"]`` is listed from age
        expiry — the lineage guard: a delta-derived bundle aliases
        artifacts of its ancestors instead of copying them, so
        collecting a still-referenced ancestor would tear the derived
        bundle (see :func:`repro.stream.derive.referenced_context_keys`).
        """
        removed: list[str] = []
        protected = set(protect_contexts)
        now = time.time()
        for directory in list(self._entry_dirs()):
            key = directory.name
            if not self._valid_key(key):
                # A foreign directory under objects/ is garbage by
                # definition — nothing the store wrote lands there.
                removed.append(str(directory.relative_to(self.root)))
                if not dry_run:
                    self._remove_dir(directory)
                continue
            for stray in directory.glob(".tmp-*"):
                # Temp files younger than the grace window may belong
                # to a concurrent writer mid-_replace_into; deleting
                # one would crash that writer's os.replace.
                try:
                    age = now - stray.stat().st_mtime
                except OSError:
                    continue
                if age < self._TMP_GRACE_S:
                    continue
                removed.append(str(stray.relative_to(self.root)))
                if not dry_run:
                    stray.unlink()
            try:
                entry = self.entry(key)
                self._verified_payload(key)
            except StoreError:
                removed.append(key)
                if not dry_run:
                    self.delete(key)
                continue
            for stray in directory.glob("payload*"):
                # Superseded payload generations: a crashed refresh can
                # leave the old (or an uncommitted new) payload file
                # behind.  Same grace window as temp files — a younger
                # one may belong to a refresh that is about to commit.
                if stray.name == entry.payload_name:
                    continue
                try:
                    age = now - stray.stat().st_mtime
                except OSError:
                    continue
                if age < self._TMP_GRACE_S:
                    continue
                removed.append(str(stray.relative_to(self.root)))
                if not dry_run:
                    try:
                        stray.unlink()
                    except OSError:
                        pass
            if older_than_s is not None and now - entry.created_at > older_than_s:
                if entry.meta.get("context") in protected:
                    continue
                removed.append(key)
                if not dry_run:
                    self.delete(key)
        return removed

    def size_bytes(self) -> int:
        """Total payload bytes across committed entries."""
        return sum(entry.payload_bytes for entry in self.entries())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore(root={str(self.root)!r})"
