"""repro.store.verify: the whole-store integrity audit and its CLI.

Severity classes under test: *errors* are impossible-under-discipline
states (torn payloads, corrupt manifests, dangling references),
*orphans* are healthy-but-unreachable entries, *notes* are benign
residue (uncommitted payloads, stale generations, old formats).  The
CLI exits non-zero unless the store is clean (no errors, no orphans).
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.api import SelectionContext
from repro.cli import main
from repro.store import ArtifactStore
from repro.store.keys import artifact_key
from repro.store.serialize import checksum
from repro.store.verify import verify_store
from repro.store.warm import warm_start


@pytest.fixture(scope="module")
def bundle_template(tmp_path_factory, flixster_mini):
    """A small, healthy store: one committed bundle."""
    root = tmp_path_factory.mktemp("verify") / "store"
    context = SelectionContext(
        flixster_mini.graph, flixster_mini.log, seed=3,
        credit_scheme="uniform",
    )
    warm_start(
        ArtifactStore(root),
        context,
        ["credit_index"],
        dataset_name=flixster_mini.name,
    )
    return root


@pytest.fixture()
def store(bundle_template, tmp_path):
    root = tmp_path / "store"
    shutil.copytree(bundle_template, root)
    return ArtifactStore(root)


def _entry_dir(store, key):
    return store.root / "objects" / key[:2] / key


def _kinds(report):
    return {problem.kind for problem in report.problems}


class TestVerifyStore:
    def test_healthy_store_is_clean(self, store):
        report = verify_store(store, deep=True)
        assert report.clean, [p.render() for p in report.problems]
        assert report.entries > 0
        assert report.records == 1
        assert report.payload_bytes > 0

    def test_torn_payload_is_an_error(self, store):
        entry = store.entries()[0]
        path = _entry_dir(store, entry.key) / entry.payload_name
        path.write_bytes(b"torn")
        report = verify_store(store)
        assert not report.clean
        assert "torn-payload" in _kinds(report)
        assert any(p.key == entry.key for p in report.errors)

    def test_corrupt_manifest_is_an_error(self, store):
        entry = store.entries()[0]
        (_entry_dir(store, entry.key) / "manifest.json").write_text("{not json")
        report = verify_store(store)
        assert not report.clean
        assert "corrupt-manifest" in _kinds(report)

    def test_missing_payload_is_an_error(self, store):
        entry = store.entries()[0]
        (_entry_dir(store, entry.key) / entry.payload_name).unlink()
        report = verify_store(store)
        assert not report.clean
        assert "missing-payload" in _kinds(report)

    def test_deleted_referenced_entry_is_a_dangling_reference(self, store):
        record = next(
            entry for entry in store.entries()
            if entry.meta.get("artifact") == "credit_index"
        )
        store.delete(record.key)
        report = verify_store(store)
        assert not report.clean
        assert "dangling-reference" in _kinds(report)

    def test_unreferenced_healthy_entry_is_an_orphan(self, store):
        key = artifact_key("feedbeef" * 4, "stray")
        store.put(key, {"stray": True}, meta={"artifact": "stray"})
        report = verify_store(store)
        assert not report.clean
        assert [p.kind for p in report.orphans] == ["orphaned-entry"]
        assert report.errors == []

    def test_checksum_clean_but_undecodable_needs_deep(self, store):
        # An artifact entry, not the record: garbling the record would
        # orphan the artifacts and the shallow pass would see that.
        entry = next(
            entry for entry in store.entries()
            if entry.meta.get("artifact") == "credit_index"
        )
        directory = _entry_dir(store, entry.key)
        junk = b"not a pickle stream"
        (directory / entry.payload_name).write_bytes(junk)
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["checksum"] = checksum(junk)
        manifest["payload_bytes"] = len(junk)
        (directory / "manifest.json").write_text(json.dumps(manifest))
        assert verify_store(store).clean  # shallow pass cannot see it
        report = verify_store(store, deep=True)
        assert not report.clean
        assert "undecodable-payload" in _kinds(report)

    def test_stale_format_entry_is_an_invisible_note(self, store):
        # An unreachable entry from another format version is a miss,
        # not damage and not an orphan.
        key = artifact_key("feedbeef" * 4, "old")
        store.put(key, {"old": True}, meta={"artifact": "old"})
        directory = _entry_dir(store, key)
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["format_version"] = 0
        (directory / "manifest.json").write_text(json.dumps(manifest))
        report = verify_store(store)
        assert report.clean
        assert "stale-format" in _kinds(report)

    def test_uncommitted_payload_is_a_note(self, store):
        key = artifact_key("feedbeef" * 4, "crashed")
        directory = _entry_dir(store, key)
        directory.mkdir(parents=True)
        (directory / "payload.bin").write_bytes(b"half-written")
        report = verify_store(store)
        assert report.clean
        assert "uncommitted" in _kinds(report)

    def test_superseded_payload_generation_is_a_note(self, store):
        entry = store.entries()[0]
        directory = _entry_dir(store, entry.key)
        (directory / "payload-0123456789ab.bin").write_bytes(b"old bytes")
        report = verify_store(store)
        assert report.clean
        assert "stale-payload" in _kinds(report)

    def test_report_to_dict_counts(self, store):
        store.put(
            artifact_key("feedbeef" * 4, "stray"), 1, meta={}
        )
        summary = verify_store(store).to_dict()
        assert summary["orphans"] == 1
        assert summary["errors"] == 0
        assert summary["clean"] is False


class TestVerifyCli:
    def test_clean_store_exits_zero(self, store, capsys):
        code = main(["store", "verify", "--store", str(store.root), "--deep"])
        out = capsys.readouterr().out
        assert code == 0
        assert "store is clean" in out
        assert "(deep)" in out

    def test_damaged_store_exits_one_and_renders_problems(
        self, store, capsys
    ):
        entry = store.entries()[0]
        path = _entry_dir(store, entry.key) / entry.payload_name
        path.write_bytes(b"torn")
        code = main(["store", "verify", "--store", str(store.root)])
        out = capsys.readouterr().out
        assert code == 1
        assert "torn-payload" in out
        assert "store is clean" not in out

    def test_missing_store_exits_two(self, tmp_path, capsys):
        code = main(["store", "verify", "--store", str(tmp_path / "nope")])
        assert code == 2
