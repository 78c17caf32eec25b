"""The artifact store core: keys, round trips, atomicity, corruption, gc."""

from __future__ import annotations

import json
import math

import pytest

from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.store import (
    ArtifactStore,
    StoreCorruption,
    StoreError,
    StoreMiss,
    artifact_key,
    context_key,
    fingerprint_dataset,
)
from repro.store.serialize import checksum, dump_payload, load_payload

KEY_A = "a" * 32
KEY_B = "b" * 32


def _entry_dir(store, key):
    return store.root / "objects" / key[:2] / key


class TestKeys:
    def test_fingerprint_is_deterministic(self, flixster_mini):
        first = fingerprint_dataset(flixster_mini.graph, flixster_mini.log)
        second = fingerprint_dataset(flixster_mini.graph, flixster_mini.log)
        assert first == second
        assert len(first) == 32

    def test_fingerprint_sees_data_changes(self, toy):
        base = fingerprint_dataset(toy.graph, toy.log)
        changed_log = ActionLog.from_tuples(
            list(toy.log.tuples()) + [("v", "b", 1.0)]
        )
        assert fingerprint_dataset(toy.graph, changed_log) != base
        changed_graph = SocialGraph.from_edges(
            list(toy.graph.edges()) + [("u", "v")]
        )
        assert fingerprint_dataset(changed_graph, toy.log) != base

    def test_fingerprint_sees_iteration_order(self):
        # Learned dicts inherit iteration order from the graph, so
        # order is part of the byte-identity contract.
        forward = SocialGraph.from_edges([(1, 2), (3, 4)])
        backward = SocialGraph.from_edges([(3, 4), (1, 2)])
        log = ActionLog.from_tuples([(1, "a", 0.0)])
        assert fingerprint_dataset(forward, log) != fingerprint_dataset(
            backward, log
        )

    def test_fingerprint_without_log(self, toy):
        assert fingerprint_dataset(toy.graph, None) != fingerprint_dataset(
            toy.graph, toy.log
        )

    def test_context_key_varies_with_every_part(self):
        learn = {"truncation": 0.001, "seed": 7,
                 "credit_scheme": "timedecay", "backend": "python"}
        base = context_key("f" * 32, {"split": True, "every": 5}, learn)
        assert base != context_key("0" * 32, {"split": True, "every": 5}, learn)
        assert base != context_key("f" * 32, {"split": False}, learn)
        assert base != context_key(
            "f" * 32, {"split": True, "every": 5}, {**learn, "seed": 8}
        )

    def test_artifact_key_varies_with_slot(self):
        context = "c" * 32
        assert artifact_key(context, "credit_index") != artifact_key(
            context, "lt_weights"
        )
        assert artifact_key(context, "credit_index") == artifact_key(
            context, "credit_index"
        )


class TestSerialize:
    def test_round_trip_preserves_order_and_bits(self):
        value = {("a", "b"): 0.1 + 0.2, (1, 2): math.pi, ("z", 1): 5e-324}
        restored = load_payload(dump_payload(value))
        assert list(restored.items()) == list(value.items())
        for original, loaded in zip(value.values(), restored.values()):
            assert original.hex() == loaded.hex()

    def test_checksum_is_content_addressed(self):
        assert checksum(b"abc") == checksum(b"abc")
        assert checksum(b"abc") != checksum(b"abd")


class TestArtifactStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        payload = {"edges": {(1, 2): 0.25}, "note": "x"}
        entry = store.put(KEY_A, payload, meta={"artifact": "credit_index"})
        assert entry.key == KEY_A
        assert store.contains(KEY_A)
        assert store.get(KEY_A) == payload
        assert store.entry(KEY_A).meta["artifact"] == "credit_index"

    def test_miss_raises(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(StoreMiss):
            store.get(KEY_A)
        assert not store.contains(KEY_A)

    def test_put_is_idempotent_unless_refresh(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, {"v": 1}, meta={"artifact": "one"})
        store.put(KEY_A, {"v": 2}, meta={"artifact": "two"})
        assert store.get(KEY_A) == {"v": 1}  # equal keys mean equal values
        store.put(KEY_A, {"v": 2}, meta={"artifact": "two"}, refresh=True)
        assert store.get(KEY_A) == {"v": 2}

    def test_malformed_key_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.put("../escape", {})

    def test_truncated_payload_is_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, list(range(100)))
        payload = _entry_dir(store, KEY_A) / "payload.bin"
        payload.write_bytes(payload.read_bytes()[:-3])
        with pytest.raises(StoreCorruption):
            store.get(KEY_A)

    def test_garbled_manifest_is_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, 1)
        (_entry_dir(store, KEY_A) / "manifest.json").write_text("{not json")
        with pytest.raises(StoreCorruption):
            store.get(KEY_A)

    def test_other_format_version_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, 1)
        manifest_path = _entry_dir(store, KEY_A) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreMiss):
            store.get(KEY_A)

    def test_entries_skip_broken(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, 1, meta={"artifact": "ok"})
        store.put(KEY_B, 2)
        (_entry_dir(store, KEY_B) / "manifest.json").write_text("{broken")
        entries = store.entries()
        assert [entry.key for entry in entries] == [KEY_A]

    def test_gc_removes_broken_and_stale_temp_files(self, tmp_path):
        import os
        import time

        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, 1)
        store.put(KEY_B, 2)
        payload = _entry_dir(store, KEY_B) / "payload.bin"
        payload.write_bytes(b"junk")
        stray = _entry_dir(store, KEY_A) / ".tmp-deadbeef"
        stray.write_bytes(b"partial")
        old = time.time() - 2 * ArtifactStore._TMP_GRACE_S
        os.utime(stray, (old, old))
        removed = store.gc()
        assert KEY_B in removed
        assert any(".tmp-" in item for item in removed)
        assert store.contains(KEY_A)
        assert not store.contains(KEY_B)
        assert not stray.exists()

    def test_gc_spares_fresh_temp_files(self, tmp_path):
        # A young temp file may be a concurrent writer's in-flight
        # payload; collecting it would crash that writer's os.replace.
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, 1)
        stray = _entry_dir(store, KEY_A) / ".tmp-inflight"
        stray.write_bytes(b"partial")
        assert store.gc() == []
        assert stray.exists()

    def test_missing_root_rejected_for_readers(self, tmp_path):
        with pytest.raises(StoreError, match="no artifact store"):
            ArtifactStore(tmp_path / "nowhere", create=False)

    def test_gc_dry_run_removes_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, 1)
        (_entry_dir(store, KEY_A) / "payload.bin").write_bytes(b"junk")
        removed = store.gc(dry_run=True)
        assert removed == [KEY_A]
        assert (_entry_dir(store, KEY_A) / "manifest.json").exists()

    def test_gc_expires_by_age(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, 1)
        manifest_path = _entry_dir(store, KEY_A) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["created_at"] -= 10 * 86400
        manifest_path.write_text(json.dumps(manifest))
        assert store.gc(older_than_s=30 * 86400) == []
        assert store.gc(older_than_s=86400) == [KEY_A]
        assert not store.contains(KEY_A)

    def test_delete(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, 1)
        store.delete(KEY_A)
        assert not store.contains(KEY_A)
        store.delete(KEY_A)  # idempotent

    def test_size_bytes(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.size_bytes() == 0
        store.put(KEY_A, list(range(10)))
        assert store.size_bytes() == store.entry(KEY_A).payload_bytes


class TestCompiledPayloads:
    def test_compiled_log_round_trips_through_store(self, tmp_path, flixster_mini):
        np = pytest.importorskip("numpy")
        from repro.kernels.interning import CompiledGraph, CompiledLog

        compiled = CompiledLog(
            CompiledGraph(flixster_mini.graph, flixster_mini.log.users()),
            flixster_mini.log,
        )
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, compiled)
        restored = store.get(KEY_A)
        assert restored.graph.idmap.ids == compiled.graph.idmap.ids
        assert restored.actions == compiled.actions
        for name in ("offsets", "node_ids_flat", "times_flat",
                     "link_child", "link_parent", "link_edge_ids"):
            original_arr = getattr(compiled, name)
            restored_arr = getattr(restored, name)
            assert original_arr.dtype == restored_arr.dtype
            assert np.array_equal(original_arr, restored_arr)


class TestGcForeignDirectories:
    def test_gc_collects_non_key_directories(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, 1)
        foreign = store.root / "objects" / KEY_A[:2] / "backup-dir"
        foreign.mkdir()
        (foreign / "note.txt").write_text("not a store entry")
        removed = store.gc()
        assert any("backup-dir" in item for item in removed)
        assert not foreign.exists()
        assert store.contains(KEY_A)


class TestVerify:
    def test_verify_true_for_healthy_entry(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, {"v": 1})
        assert store.verify(KEY_A)

    def test_verify_false_for_missing_or_torn(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert not store.verify(KEY_A)
        store.put(KEY_A, {"v": 1})
        (_entry_dir(store, KEY_A) / "payload.bin").write_bytes(b"torn")
        assert not store.verify(KEY_A)


class TestRefreshGenerations:
    """Crash-atomic refresh: a live entry is replaced via a new
    checksum-named payload file, never by overwriting the current one —
    so the old manifest+payload pair stays readable until the new
    manifest commits (the kill-point sweep enumerates this)."""

    def test_refresh_writes_a_new_generation(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = store.put(KEY_A, {"v": 1})
        assert first.payload_name == "payload.bin"
        second = store.put(KEY_A, {"v": 2}, refresh=True)
        assert second.payload_name != "payload.bin"
        assert second.payload_name.startswith("payload-")
        assert store.get(KEY_A) == {"v": 2}
        # The superseded generation was unlinked after the commit.
        files = sorted(
            path.name for path in _entry_dir(store, KEY_A).iterdir()
        )
        assert files == ["manifest.json", second.payload_name]

    def test_identical_refresh_keeps_the_payload_name(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, {"v": 1})
        entry = store.put(KEY_A, {"v": 1}, refresh=True, meta={"note": "x"})
        assert entry.payload_name == "payload.bin"
        assert store.entry(KEY_A).meta == {"note": "x"}

    def test_gc_reclaims_stale_generations_after_grace(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, {"v": 1})
        stale = _entry_dir(store, KEY_A) / "payload-0123456789ab.bin"
        stale.write_bytes(b"crashed refresh residue")
        assert store.gc() == []  # inside the grace window: kept
        store._TMP_GRACE_S = 0.0
        removed = store.gc()
        assert [item for item in removed if "payload-" in item]
        assert not stale.exists()
        assert store.get(KEY_A) == {"v": 1}
