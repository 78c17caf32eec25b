"""repro.stream: deltas, incremental folds, derived bundles, /ingest.

The contract under test is the streaming equivalence guarantee: folding
an action-log delta into learned artifacts produces, for every
incrementally updated artifact, the *same bytes* a cold re-learn over
the union log (base traces first, newly closed traces after) would
produce — on every backend — and therefore the same seed selections.
On top of that sit the store's lineage-linked ``derive`` (warm runs
over the union hit the derived bundle; ``gc`` never tears an ancestor
out from under it) and the query service's zero-downtime ``/ingest``
swap.
"""

from __future__ import annotations

import http.client
import json
import threading
from collections import Counter

import pytest

from repro.api import ExperimentConfig, SelectionContext, run_experiment
from repro.api.registry import get_selector
from repro.data.actionlog import ActionLog
from repro.store import ArtifactStore
from repro.store.serialize import dump_payload
from repro.store.service import QueryService, ServiceError, make_server
from repro.store.warm import (
    CONTEXT_RECORD,
    STREAM_STATS_ARTIFACT,
    TRAIN_LOG_ARTIFACT,
    list_context_records,
    load_context_record,
)
from repro.stream import (
    ActionLogDelta,
    apply_delta,
    derive_bundle,
    fold_delta,
    load_action_log_delta,
    referenced_context_keys,
    save_action_log_delta,
)
from repro.stream.update import compute_stream_stats


# The learn-spec fields a bundle held while the context kept a default
# sketch batch.  Outside the removed-names table of docs/API.md, this
# line is the only one allowed to name them (CI's "One sketch path").
OLD_SKETCH_LEARN_FIELDS = {"num_sketches": 300, "sketch_hops": 2}


def split_base_delta(log: ActionLog, holdout: int = 5):
    """Hold out the last ``holdout`` traces of ``log`` as a closed delta."""
    actions = list(log.actions())
    base = log.restrict_to_actions(actions[:-holdout])
    held = log.restrict_to_actions(actions[-holdout:])
    return base, ActionLogDelta.from_log(held)


# ----------------------------------------------------------------------
# Delta format
# ----------------------------------------------------------------------
class TestDeltaFormat:
    def test_round_trip(self, tmp_path):
        delta = ActionLogDelta()
        delta.add(1, "a", 0.5)
        delta.add("u2", "a", 1.0)
        delta.add(3, "b", 2.0)
        delta.close("a")
        path = tmp_path / "delta.tsv"
        save_action_log_delta(delta, path)
        loaded = load_action_log_delta(path)
        assert loaded.tuples == [(1, "a", 0.5), ("u2", "a", 1.0), (3, "b", 2.0)]
        assert loaded.closed == ["a"]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "delta.tsv"
        path.write_text("1\ta\t0.0\n")
        with pytest.raises(ValueError, match="missing"):
            load_action_log_delta(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "delta.tsv"
        path.write_text("# repro-delta v99\n1\ta\t0.0\n")
        with pytest.raises(ValueError, match="v99"):
            load_action_log_delta(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "delta.tsv"
        path.write_text("# repro-delta v1\n1\ta\n")
        with pytest.raises(ValueError, match="3-field"):
            load_action_log_delta(path)

    def test_non_finite_time_rejected(self, tmp_path):
        path = tmp_path / "delta.tsv"
        path.write_text("# repro-delta v1\n1\ta\t0.5\n2\ta\tnan\n")
        with pytest.raises(ValueError, match=r"delta.tsv:3: .*finite"):
            load_action_log_delta(path)

    def test_close_marker_round_trips_pending(self, tmp_path):
        delta = ActionLogDelta()
        delta.add(1, "open", 0.0)  # no close marker: stays pending
        path = tmp_path / "delta.tsv"
        save_action_log_delta(delta, path)
        loaded = load_action_log_delta(path)
        assert loaded.closed == []
        assert loaded.actions() == ["open"]


class TestApplyDelta:
    @pytest.fixture()
    def base_log(self):
        return ActionLog.from_tuples([(1, "a", 0.0), (2, "a", 1.0)])

    def test_union_orders_base_then_closed(self, base_log):
        delta = ActionLogDelta.from_log(
            ActionLog.from_tuples([(1, "b", 0.0), (3, "b", 1.0)])
        )
        application = apply_delta(base_log, delta)
        assert list(application.union_log.actions()) == ["a", "b"]
        assert application.closed_log.num_actions == 1
        assert application.pending == []

    def test_frozen_action_rejected(self, base_log):
        delta = ActionLogDelta()
        delta.add(3, "a", 2.0)
        with pytest.raises(ValueError, match="frozen"):
            apply_delta(base_log, delta)

    def test_duplicate_pair_rejected(self, base_log):
        delta = ActionLogDelta()
        delta.add(1, "b", 0.0)
        delta.add(1, "b", 1.0)
        with pytest.raises(ValueError, match="already performed"):
            apply_delta(base_log, delta)

    def test_close_without_tuples_rejected(self, base_log):
        delta = ActionLogDelta()
        delta.close("ghost")
        with pytest.raises(ValueError, match="no tuples"):
            apply_delta(base_log, delta)

    def test_pending_feeds_a_later_close(self, base_log):
        first = ActionLogDelta()
        first.add(1, "b", 0.0)
        application = apply_delta(base_log, first)
        assert application.pending == [(1, "b", 0.0)]
        assert application.union_log.num_actions == base_log.num_actions
        second = ActionLogDelta()
        second.add(3, "b", 1.0)
        second.close("b")
        final = apply_delta(base_log, second, pending=application.pending)
        assert final.pending == []
        assert final.closed_log.trace("b") == [(1, 0.0), (3, 1.0)]


# ----------------------------------------------------------------------
# A delta lands whole or not at all
# ----------------------------------------------------------------------
class TestObserveManyAtomicity:
    """A rejected delta leaves the base context's artifacts and the
    pending list as they were; a valid one lands every tuple."""

    PENDING = [(0, "open", 0.0)]

    @pytest.fixture()
    def context(self, chain_graph):
        context = SelectionContext(
            chain_graph, ActionLog.from_tuples([(1, "done", 0.0)]),
            credit_scheme="uniform",
        )
        context.credit_index()
        context.cd_evaluator()
        return context

    def _rejected(self, context, tuples, match):
        delta = ActionLogDelta()
        for user, action, time in tuples:
            delta.add(user, action, time)
        pending = list(self.PENDING)
        before = {
            name: dump_payload(context.get_artifact(name))
            for name in context.artifact_names()
        }
        with pytest.raises(ValueError, match=match):
            fold_delta(context, delta, pending=pending)
        assert pending == self.PENDING
        assert {
            name: dump_payload(context.get_artifact(name))
            for name in context.artifact_names()
        } == before

    def test_frozen_action_leaves_batch_unbuffered(self, context):
        self._rejected(context, [(1, "new", 0.0), (2, "done", 1.0)], "frozen")

    def test_intra_batch_duplicate_leaves_batch_unbuffered(self, context):
        self._rejected(
            context, [(1, "new", 0.0), (1, "new", 1.0)], "already performed"
        )

    def test_valid_batch_lands_whole(self, context):
        delta = ActionLogDelta()
        delta.add(1, "new", 0.0)
        delta.add(2, "new", 1.0)
        fold = fold_delta(context, delta, pending=self.PENDING)
        assert fold.pending == [
            (0, "open", 0.0), (1, "new", 0.0), (2, "new", 1.0),
        ]


# ----------------------------------------------------------------------
# Fold parity: incremental == rescan, per backend
# ----------------------------------------------------------------------
class TestFoldParity:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_uniform_fold_matches_union_rescan(self, flixster_mini, backend):
        if backend == "numpy":
            pytest.importorskip("numpy")
        base_log, delta = split_base_delta(flixster_mini.log)
        context = SelectionContext(
            flixster_mini.graph, base_log, seed=3,
            credit_scheme="uniform", backend=backend,
        )
        context.credit_index()
        context.cd_evaluator()
        context.lt_weights()
        fold = fold_delta(
            context, delta, stats=compute_stream_stats(context), verify=True,
        )
        assert sorted(fold.report.updated) == [
            "cd_evaluator", "credit_index", "lt_weights",
        ]
        assert fold.report.verified
        reference = SelectionContext(
            flixster_mini.graph, fold.context.train_log, seed=3,
            credit_scheme="uniform", backend=backend,
        )
        for name in ("credit_index", "cd_evaluator", "lt_weights"):
            assert dump_payload(fold.context.get_artifact(name)) == (
                dump_payload(reference.build_artifact(name))
            ), name
        # ... and therefore the same CD seed set.
        selector = get_selector("cd")
        assert selector.select(fold.context, 5).seeds == (
            selector.select(reference, 5).seeds
        )

    def test_verify_numpy_batch_composition_carve_out(self):
        """verify=True passes where numpy loses byte-identity.

        At the ``small`` scale the NumPy scan's dense-vs-sorted merge
        choice differs between the closed-delta batch and one global
        union batch, so the folded credit index drifts from a rescan in
        the last float bit.  The verify contract accepts that via the
        kernel-parity tolerance (and stays byte-strict on python —
        covered by ``test_uniform_fold_matches_union_rescan``).
        """
        pytest.importorskip("numpy")
        from repro.data.datasets import flixster_like

        dataset = flixster_like("small")
        base_log, delta = split_base_delta(
            dataset.log, holdout=dataset.log.num_actions // 20
        )
        context = SelectionContext(
            dataset.graph, base_log, seed=3,
            credit_scheme="uniform", backend="numpy",
        )
        context.credit_index()
        fold = fold_delta(context, delta, verify=True)
        assert fold.report.verified
        reference = SelectionContext(
            dataset.graph, fold.context.train_log, seed=3,
            credit_scheme="uniform", backend="numpy",
        )
        selector = get_selector("cd")
        assert selector.select(fold.context, 5).seeds == (
            selector.select(reference, 5).seeds
        )

    def test_verify_rejects_real_divergence(self, flixster_mini):
        """The tolerance carve-out must not mask genuine fold bugs."""
        from repro.stream.update import _assert_union_equivalence

        base_log, delta = split_base_delta(flixster_mini.log)
        for backend in ("python", "numpy"):
            if backend == "numpy":
                pytest.importorskip("numpy")
            context = SelectionContext(
                flixster_mini.graph, base_log, seed=3,
                credit_scheme="uniform", backend=backend,
            )
            context.credit_index()
            fold = fold_delta(context, delta)
            index = fold.context.get_artifact("credit_index")
            index.val[0] += 1e-6
            with pytest.raises(AssertionError, match="diverged"):
                _assert_union_equivalence(fold.context, ["credit_index"])

    def test_timedecay_relearns_credits(self, flixster_mini):
        base_log, delta = split_base_delta(flixster_mini.log)
        context = SelectionContext(
            flixster_mini.graph, base_log, seed=3, credit_scheme="timedecay",
        )
        context.credit_index()
        fold = fold_delta(context, delta)
        assert "credit_index" in fold.report.relearned
        reference = SelectionContext(
            flixster_mini.graph, fold.context.train_log, seed=3,
            credit_scheme="timedecay",
        )
        assert dump_payload(fold.context.get_artifact("credit_index")) == (
            dump_payload(reference.build_artifact("credit_index"))
        )

    def test_graph_only_probabilities_carried_by_reference(self, flixster_mini):
        base_log, delta = split_base_delta(flixster_mini.log)
        context = SelectionContext(
            flixster_mini.graph, base_log, seed=3, credit_scheme="uniform",
        )
        artifact = context.ic_probabilities("UN")
        fold = fold_delta(context, delta)
        assert fold.report.carried == ["ic_probabilities/UN"]
        assert fold.context.get_artifact("ic_probabilities/UN") is artifact

    def test_base_context_left_untouched(self, flixster_mini):
        base_log, delta = split_base_delta(flixster_mini.log)
        context = SelectionContext(
            flixster_mini.graph, base_log, seed=3, credit_scheme="uniform",
        )
        before = dump_payload(context.credit_index())
        fold_delta(context, delta)
        assert dump_payload(context.credit_index()) == before
        assert context.train_log is base_log

    def test_empty_close_set_carries_everything(self, flixster_mini):
        base_log, _ = split_base_delta(flixster_mini.log)
        delta = ActionLogDelta()
        delta.add(1, "open-action", 0.0)
        context = SelectionContext(
            flixster_mini.graph, base_log, seed=3, credit_scheme="uniform",
        )
        context.credit_index()
        fold = fold_delta(context, delta)
        assert fold.report.carried == ["credit_index"]
        assert fold.pending == [(1, "open-action", 0.0)]


class TestPipelineIngestStage:
    @pytest.fixture()
    def delta_path(self, flixster_mini, tmp_path):
        users = sorted(flixster_mini.graph.nodes())[:4]
        delta = ActionLogDelta()
        for rank, user in enumerate(users):
            delta.add(user, 987654, float(rank))
        delta.close(987654)
        path = tmp_path / "delta.tsv"
        save_action_log_delta(delta, path)
        return str(path)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_ingest_stage_matches_union_rescan(
        self, flixster_mini, delta_path, executor
    ):
        config = dict(
            dataset="flixster", scale="mini", selectors=["cd", "high_degree"],
            ks=[3], seed=11,
        )
        ingested = run_experiment(
            ExperimentConfig(**config, delta=delta_path, executor=executor)
        )
        assert "ingest_s" in ingested.timings
        assert ingested.ingest["closed_actions"] == 1
        from repro.data.split import train_test_split

        train, _ = train_test_split(flixster_mini.log, every=5)
        union = apply_delta(
            train, load_action_log_delta(delta_path)
        ).union_log
        reference = run_experiment(
            ExperimentConfig(**config),
            context=SelectionContext(flixster_mini.graph, union, seed=11),
        )
        for label in ("cd", "high_degree"):
            assert ingested.selections(label)[0].seeds == (
                reference.selections(label)[0].seeds
            ), (label, executor)

    def test_delta_requires_selection_task(self):
        from repro.utils.validation import ConfigError

        with pytest.raises(ConfigError, match="ingest"):
            ExperimentConfig(task="prediction", delta="delta.tsv")


# ----------------------------------------------------------------------
# Store derive: lineage, warm hits, gc protection
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def derived_store(tmp_path_factory, flixster_mini):
    """A store holding a base bundle and one delta-derived bundle."""
    root = str(tmp_path_factory.mktemp("stream") / "store")
    base_log, delta = split_base_delta(flixster_mini.log)
    from repro.store.warm import warm_start

    context = SelectionContext(
        flixster_mini.graph, base_log, seed=3, credit_scheme="uniform",
    )
    warm_start(
        ArtifactStore(root),
        context,
        ["credit_index", "cd_evaluator", "lt_weights",
         "ic_probabilities/UN"],
        dataset_name=flixster_mini.name,
    )
    result = derive_bundle(ArtifactStore(root), delta, verify=True)
    return root, result


class TestDerive:
    def test_lineage_record(self, derived_store):
        _, result = derived_store
        assert result.derived_key != result.base_key
        assert result.record["derived_from"] == result.base_key
        assert result.record["lineage_depth"] == 1
        assert result.report.verified

    def test_carried_artifacts_aliased_not_copied(self, derived_store):
        root, result = derived_store
        sources = result.record["artifact_sources"]
        assert sources["graph"] == result.base_key
        assert sources["ic_probabilities/UN"] == result.base_key
        assert "credit_index" not in sources  # updated: own bytes

    def test_warm_run_over_union_hits_derived_bundle(
        self, derived_store, flixster_mini
    ):
        root, result = derived_store
        union = result.context.train_log
        context = SelectionContext(
            flixster_mini.graph, union, seed=3, credit_scheme="uniform",
        )
        from repro.store.warm import warm_start

        events = warm_start(
            ArtifactStore(root), context,
            ["credit_index", "cd_evaluator", "lt_weights"],
        )
        assert events["context_key"] == result.derived_key
        assert events["misses"] == []
        assert events["derived"] == {
            "derived_from": result.base_key, "lineage_depth": 1,
        }

    def test_derived_bundle_is_servable(self, derived_store):
        root, result = derived_store
        service = QueryService(root)
        response = service.select(
            {"selector": "cd", "k": 3, "context": result.derived_key}
        )
        assert len(response["selection"]["seeds"]) == 3

    def test_gc_protects_referenced_ancestors(self, derived_store):
        root, result = derived_store
        store = ArtifactStore(root)
        protected = referenced_context_keys(store)
        assert result.base_key in protected
        removed = store.gc(
            older_than_s=0.0, dry_run=True, protect_contexts=protected
        )
        surviving = {
            entry.meta.get("context")
            for entry in store.entries()
            if entry.key not in set(removed)
        }
        assert result.base_key in surviving

    def test_bundle_with_the_old_sketch_fields_serves_and_derives(
        self, tmp_path, flixster_mini
    ):
        # The shape bundles had while the context kept a default sketch
        # batch: two more learn fields (hence another key) and a stored
        # `sketches` entry listed among the artifacts.
        from repro.store.keys import (
            artifact_key,
            context_key,
            fingerprint_dataset,
        )
        from repro.store.warm import warm_start

        base_log, delta = split_base_delta(flixster_mini.log)
        spec = dict(seed=3, credit_scheme="uniform")
        needed = ["credit_index", "cd_evaluator"]
        learned_root, old_root = str(tmp_path / "new"), str(tmp_path / "old")
        context = SelectionContext(flixster_mini.graph, base_log, **spec)
        warm_start(ArtifactStore(learned_root), context, needed)
        learned = ArtifactStore(learned_root)
        record = load_context_record(learned)
        learn = {**record["learn"], **OLD_SKETCH_LEARN_FIELDS}
        old_key = context_key(
            fingerprint_dataset(flixster_mini.graph, base_log),
            {"split": "external"},
            learn,
        )
        old = ArtifactStore(old_root)
        meta = {"context": old_key, "learn": learn}
        for entry in learned.entries():
            name = entry.meta["artifact"]
            if name != CONTEXT_RECORD:
                old.put(
                    artifact_key(old_key, name),
                    learned.get(entry.key),
                    meta={**meta, "artifact": name},
                )
        old.put(
            artifact_key(old_key, "sketches"),
            context.sketches("WC", num_sketches=300, hops=2),
            meta={**meta, "artifact": "sketches"},
        )
        old.put(
            artifact_key(old_key, CONTEXT_RECORD),
            {
                **record,
                "context_key": old_key,
                "learn": learn,
                "artifacts": sorted([*record["artifacts"], "sketches"]),
            },
            meta={**meta, "artifact": CONTEXT_RECORD},
        )

        fresh, stale = QueryService(learned_root), QueryService(old_root)
        selected = stale.select({"selector": "cd", "k": 3})
        assert selected["context"] == old_key
        assert (
            selected["selection"]
            == fresh.select({"selector": "cd", "k": 3})["selection"]
        )
        seeds = {"seeds": selected["selection"]["seeds"]}
        assert stale.spread(seeds)["spread"] == fresh.spread(seeds)["spread"]

        result = derive_bundle(ArtifactStore(old_root), delta)
        cold = warm_start(
            ArtifactStore(str(tmp_path / "cold")),
            SelectionContext(
                flixster_mini.graph, result.context.train_log, **spec
            ),
            needed,
        )
        assert result.base_key == old_key
        assert result.derived_key == cold["context_key"]
        assert "sketches" not in result.record["artifacts"]

    def test_pending_only_delta_keeps_key(self, tmp_path, flixster_mini):
        root = str(tmp_path / "store")
        base_log, _ = split_base_delta(flixster_mini.log)
        from repro.store.warm import warm_start

        context = SelectionContext(
            flixster_mini.graph, base_log, seed=3, credit_scheme="uniform",
        )
        warm_start(ArtifactStore(root), context, ["credit_index"])
        delta = ActionLogDelta()
        delta.add(1, "open-action", 0.0)
        result = derive_bundle(ArtifactStore(root), delta)
        assert result.derived_key == result.base_key
        record = load_context_record(ArtifactStore(root))
        assert record["pending"] == [[1, "open-action", 0.0]] or (
            record["pending"] == [(1, "open-action", 0.0)]
        )

    def test_pre_streaming_bundle_names_the_fix(self, tmp_path, flixster_mini):
        from repro.store import StoreMiss
        from repro.store.keys import artifact_key

        root = str(tmp_path / "store")
        base_log, delta = split_base_delta(flixster_mini.log)
        from repro.store.warm import warm_start

        context = SelectionContext(
            flixster_mini.graph, base_log, seed=3, credit_scheme="uniform",
        )
        events = warm_start(ArtifactStore(root), context, ["credit_index"])
        store = ArtifactStore(root)
        store.delete(
            artifact_key(events["context_key"], TRAIN_LOG_ARTIFACT)
        )
        with pytest.raises(StoreMiss, match="repro learn --store"):
            derive_bundle(store, delta)

    def test_stacked_derives_chain_to_root(self, tmp_path, flixster_mini):
        root = str(tmp_path / "store")
        actions = list(flixster_mini.log.actions())
        base = flixster_mini.log.restrict_to_actions(actions[:-6])
        first = ActionLogDelta.from_log(
            flixster_mini.log.restrict_to_actions(actions[-6:-3])
        )
        second = ActionLogDelta.from_log(
            flixster_mini.log.restrict_to_actions(actions[-3:])
        )
        from repro.store.warm import warm_start

        context = SelectionContext(
            flixster_mini.graph, base, seed=3, credit_scheme="uniform",
        )
        warm_start(
            ArtifactStore(root), context,
            ["credit_index", "ic_probabilities/UN"],
        )
        store = ArtifactStore(root)
        one = derive_bundle(store, first)
        two = derive_bundle(store, second, context=one.derived_key)
        assert two.record["lineage_depth"] == 2
        # The graph-only alias chains through to the *root* bundle.
        assert two.record["artifact_sources"]["graph"] == one.base_key
        assert (
            two.record["artifact_sources"]["ic_probabilities/UN"]
            == one.base_key
        )
        assert one.base_key in referenced_context_keys(store)


# ----------------------------------------------------------------------
# Service ingest: zero-downtime swap
# ----------------------------------------------------------------------
class TestServiceIngest:
    @pytest.fixture()
    def store_root(self, tmp_path, flixster_mini):
        root = str(tmp_path / "store")
        base_log, _ = split_base_delta(flixster_mini.log)
        from repro.store.warm import warm_start

        context = SelectionContext(
            flixster_mini.graph, base_log, seed=3, credit_scheme="uniform",
        )
        warm_start(
            ArtifactStore(root), context,
            ["credit_index", "cd_evaluator"],
            dataset_name=flixster_mini.name,
        )
        return root

    @pytest.fixture()
    def delta_tuples(self, flixster_mini):
        base_log, delta = split_base_delta(flixster_mini.log)
        return [[user, action, time] for user, action, time in delta.tuples]

    def test_ingest_swaps_default(self, store_root, delta_tuples):
        service = QueryService(store_root)
        before = service.select({"selector": "cd", "k": 3})
        job = service.ingest({"tuples": delta_tuples, "wait": True})
        assert job["status"] == "done", job["error"]
        assert job["derived"] != job["base"]
        after = service.select({"selector": "cd", "k": 3})
        assert after["context"] == job["derived"]
        # The base bundle stays servable under its explicit key.
        explicit = service.select(
            {"selector": "cd", "k": 3, "context": before["context"]}
        )
        assert explicit["context"] == before["context"]
        assert service.ingest_status()["default"] == job["derived"]

    def test_keyless_ingests_chain_on_the_serving_default(
        self, store_root, delta_tuples
    ):
        # After the first swap the store holds two contexts; a keyless
        # ingest must resolve to the pinned default, not 404 on the
        # ambiguity.
        service = QueryService(store_root)
        actions = list(dict.fromkeys(action for _, action, _ in delta_tuples))
        first_actions = set(actions[:2])
        first = [t for t in delta_tuples if t[1] in first_actions]
        second = [t for t in delta_tuples if t[1] not in first_actions]
        one = service.ingest({"tuples": first, "wait": True})
        assert one["status"] == "done", one["error"]
        two = service.ingest({"tuples": second, "wait": True})
        assert two["status"] == "done", two["error"]
        assert two["base"] == one["derived"]
        assert service.ingest_status()["default"] == two["derived"]

    def test_failed_ingest_leaves_serving_untouched(
        self, store_root, flixster_mini
    ):
        service = QueryService(store_root)
        before = service.select({"selector": "cd", "k": 3})
        frozen_action = next(iter(split_base_delta(flixster_mini.log)[0].actions()))
        job = service.ingest(
            {"tuples": [[1, frozen_action, 0.0]], "wait": True}
        )
        assert job["status"] == "failed"
        assert "frozen" in job["error"]
        after = service.select({"selector": "cd", "k": 3})
        assert after["context"] == before["context"]

    def test_second_ingest_while_running_is_409(self, store_root, delta_tuples):
        service = QueryService(store_root)
        with service._lock:
            service._ingest_active = True
        with pytest.raises(ServiceError) as caught:
            service.ingest({"tuples": delta_tuples})
        assert caught.value.status == 409
        with service._lock:
            service._ingest_active = False

    def test_malformed_payloads_rejected(self, store_root):
        service = QueryService(store_root)
        cases = [
            ({"tuples": [[1, 2]]}, "triple"),
            ({"tuples": [[1, 2, "soon"]]}, "numbers"),
            ({}, "needs"),
            # json.loads accepts NaN and Infinity.
            ({"tuples": [[1, 2, float("nan")]]}, "finite numbers"),
            ({"tuples": [[1, 2, float("inf")]]}, "finite numbers"),
            ({"tuples": [[1, 2, 10**400]]}, "finite numbers"),
            # JSON numbers only: a bool or a numeric string is no time.
            ({"tuples": [[1, 2, True]]}, "finite numbers"),
            ({"tuples": [[1, 2, "1.5"]]}, "finite numbers"),
            ({"tuples": [[1, {"a": 1}, 3]]}, "ids must be"),
            ({"tuples": [[True, 2, 3]]}, "ids must be"),
            ({"tuples": [[1, 2, 3]], "closed": [[2]]}, "ids must be"),
        ]
        for payload, message in cases:
            with pytest.raises(ServiceError, match=message) as info:
                service.ingest(payload)
            assert info.value.status == 400, payload
        assert service.ingest_status()["ingests"] == []

    def test_job_history_keeps_the_newest(self, store_root):
        service = QueryService(store_root)
        service.max_ingest_history = 2
        for index in range(4):
            # Pending tuples only: each job is done without a re-learn.
            job = service.ingest({
                "tuples": [[1, f"open-{index}", 0.0]],
                "closed": [],
                "wait": True,
            })
            assert job["status"] == "done", job["error"]
        listed = service.ingest_status()["ingests"]
        assert [job["job"] for job in listed] == [3, 4]

    def test_http_swap_with_no_failed_requests(self, store_root, delta_tuples):
        """Hammer /select over HTTP while an ingest lands: every request
        must succeed, and each response must be internally consistent
        (the seed set always matches the context it was served from)."""
        server = make_server(store_root, port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        failures: list = []
        answers: dict[str, str] = {}
        stop = threading.Event()

        def post(path: str, payload: dict) -> tuple[int, dict]:
            connection = http.client.HTTPConnection(host, port, timeout=30)
            try:
                connection.request(
                    "POST", path, body=json.dumps(payload),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                return response.status, json.loads(response.read())
            finally:
                connection.close()

        def hammer() -> None:
            while not stop.is_set():
                status, body = post("/select", {"selector": "cd", "k": 3})
                if status != 200:
                    failures.append(body)
                    return
                context = body["context"]
                seeds = json.dumps(body["selection"]["seeds"])
                if answers.setdefault(context, seeds) != seeds:
                    failures.append((context, seeds))
                    return

        try:
            workers = [
                threading.Thread(target=hammer, daemon=True) for _ in range(3)
            ]
            for worker in workers:
                worker.start()
            status, job = post(
                "/ingest", {"tuples": delta_tuples, "wait": True}
            )
            stop.set()
            for worker in workers:
                worker.join(timeout=30)
            assert status == 200
            assert job["status"] == "done", job["error"]
            assert not failures, failures
            # After the swap the default context answers from the
            # derived bundle.
            status, body = post("/select", {"selector": "cd", "k": 3})
            assert status == 200
            assert body["context"] == job["derived"]
        finally:
            stop.set()
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# Ingest reads: only what the fold reads; the swap reads nothing back
# ----------------------------------------------------------------------
def _count_reads(monkeypatch) -> Counter:
    """Count ``ArtifactStore.get`` calls by the entry's manifest artifact."""
    reads: Counter = Counter()
    get = ArtifactStore.get

    def counting_get(self, key):
        reads[self.entry(key).meta.get("artifact")] += 1
        return get(self, key)

    monkeypatch.setattr(ArtifactStore, "get", counting_get)
    return reads


def _learned_store(root, flixster_mini, base_log, needed, **spec) -> None:
    from repro.store.warm import warm_start

    context = SelectionContext(flixster_mini.graph, base_log, seed=3, **spec)
    warm_start(
        ArtifactStore(root), context, needed, dataset_name=flixster_mini.name
    )


class TestIngestReads:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_timedecay_ingest_reads_no_learned_artifact(
        self, tmp_path, flixster_mini, monkeypatch, backend
    ):
        if backend == "numpy":
            pytest.importorskip("numpy")
        root = str(tmp_path / "store")
        base_log, delta = split_base_delta(flixster_mini.log)
        _learned_store(
            root, flixster_mini, base_log,
            ["credit_index", "cd_evaluator", "ic_probabilities/EM",
             "lt_weights", "influence_params"],
            backend=backend,
        )
        service = QueryService(root)
        reads = _count_reads(monkeypatch)
        job = service.ingest({
            "tuples": [list(t) for t in delta.tuples], "wait": True,
        })
        assert job["status"] == "done", job["error"]
        records = reads.pop(CONTEXT_RECORD)
        assert records >= 1
        assert dict(reads) == {
            "graph": 1, TRAIN_LOG_ARTIFACT: 1, STREAM_STATS_ARTIFACT: 1,
        }

    def test_uniform_ingest_reads_each_folded_artifact_once(
        self, tmp_path, flixster_mini, monkeypatch
    ):
        root = str(tmp_path / "store")
        base_log, delta = split_base_delta(flixster_mini.log)
        _learned_store(
            root, flixster_mini, base_log,
            ["credit_index", "cd_evaluator", "ic_probabilities/UN",
             "ic_probabilities/WC", "lt_weights"],
            credit_scheme="uniform", probability_method="WC",
        )
        service = QueryService(root)
        reads = _count_reads(monkeypatch)
        job = service.ingest({
            "tuples": [list(t) for t in delta.tuples], "wait": True,
        })
        assert job["status"] == "done", job["error"]
        assert sorted(job["report"]["carried"]) == [
            "ic_probabilities/UN", "ic_probabilities/WC",
        ]
        for name in ("credit_index", "cd_evaluator", "ic_probabilities/UN",
                     "ic_probabilities/WC"):
            assert reads[name] == 1, (name, dict(reads))
        assert reads["lt_weights"] == 0  # recounted from the statistics

    @pytest.mark.parametrize("credit_scheme", ["timedecay", "uniform"])
    def test_corrupt_base_artifact_fails_only_a_fold_that_reads_it(
        self, tmp_path, flixster_mini, credit_scheme
    ):
        from repro.store.keys import artifact_key

        root = str(tmp_path / "store")
        base_log, delta = split_base_delta(flixster_mini.log)
        _learned_store(
            root, flixster_mini, base_log, ["credit_index", "cd_evaluator"],
            credit_scheme=credit_scheme,
        )
        store = ArtifactStore(root)
        key = artifact_key(
            load_context_record(store)["context_key"], "credit_index"
        )
        payload = store._entry_dir(key) / store.entry(key).payload_name
        payload.write_bytes(b"this is not a pickle")
        job = QueryService(root).ingest({
            "tuples": [list(t) for t in delta.tuples], "wait": True,
        })
        if credit_scheme == "timedecay":
            # Re-learned by the fold, so never read.
            assert job["status"] == "done", job["error"]
        else:
            # Folded, so read: the job fails on the damaged payload.
            assert job["status"] == "failed"
            assert "does not match its manifest" in job["error"]

    def test_swap_serves_what_a_cold_load_serves(
        self, tmp_path, flixster_mini, monkeypatch
    ):
        from repro.store.prefix import precompute_prefix
        from repro.store.warm import load_serving_context

        root = str(tmp_path / "store")
        actions = list(flixster_mini.log.actions())
        base_log = flixster_mini.log.restrict_to_actions(actions[:-6])
        _learned_store(
            root, flixster_mini, base_log,
            ["credit_index", "cd_evaluator", "ic_probabilities/EM",
             "lt_weights", "influence_params"],
        )
        store = ArtifactStore(root)
        record = load_context_record(store)
        k_max = 5
        precompute_prefix(
            store, record, load_serving_context(store, record), "cd", k_max
        )
        users = sorted(base_log.users())
        seed_sets = [users[:1], users[3:5], users[7:10]]

        def bodies(service, context=None):
            pinned = {} if context is None else {"context": context}
            answers = [
                service.select({"selector": "cd", "k": k, **pinned})
                for k in range(1, k_max + 1)
            ]
            for seeds in seed_sets:
                answers.append(service.spread({"seeds": seeds, **pinned}))
                for method in ("CD", "IC", "LT"):
                    answers.append(service.predict(
                        {"seeds": seeds, "method": method, **pinned}
                    ))
            return answers

        def no_read_back(*args, **kwargs):
            raise AssertionError("the swap read the derived bundle back")

        service = QueryService(root)
        bodies(service)  # the base slot is loaded before the patch
        for part in range(3):
            held = actions[len(actions) - 6 + 2 * part:][:2]
            delta = ActionLogDelta.from_log(
                flixster_mini.log.restrict_to_actions(held)
            )
            with monkeypatch.context() as patch:
                patch.setattr(
                    "repro.store.service.load_serving_context", no_read_back
                )
                job = service.ingest({
                    "tuples": [list(t) for t in delta.tuples], "wait": True,
                })
            assert job["status"] == "done", job["error"]
            assert job["lineage_depth"] == part + 1
            served = bodies(service)
            assert served[0]["context"] == job["derived"]
            assert served == bodies(QueryService(root), job["derived"])


# ----------------------------------------------------------------------
# CLI: ingest / store ls lineage / store gc protection
# ----------------------------------------------------------------------
class TestStreamCLI:
    @pytest.fixture()
    def primed(self, tmp_path, flixster_mini):
        from repro.data.io import save_action_log, save_graph

        root = str(tmp_path / "store")
        graph_path = str(tmp_path / "graph.tsv")
        log_path = str(tmp_path / "log.tsv")
        delta_path = str(tmp_path / "delta.tsv")
        base_log, delta = split_base_delta(flixster_mini.log)
        save_graph(flixster_mini.graph, graph_path)
        save_action_log(base_log, log_path)
        save_action_log_delta(delta, delta_path)
        from repro.cli import main

        assert main([
            "learn", "--graph", graph_path, "--log", log_path,
            "--store", root, "--credit-scheme", "uniform",
        ]) == 0
        return root, delta_path

    def test_ingest_then_ls_shows_lineage(self, primed, capsys):
        from repro.cli import main

        root, delta_path = primed
        assert main([
            "ingest", "--store", root, "--delta", delta_path, "--verify",
        ]) == 0
        output = capsys.readouterr().out
        assert "derived context" in output
        assert "verified" in output
        assert main(["store", "ls", "--store", root]) == 0
        table = capsys.readouterr().out
        assert "lineage" in table
        records = list_context_records(ArtifactStore(root))
        assert sorted(r.get("lineage_depth", 0) for r in records) == [0, 1]

    def test_gc_refuses_referenced_ancestor(self, primed, capsys):
        from repro.cli import main

        root, delta_path = primed
        assert main(["ingest", "--store", root, "--delta", delta_path]) == 0
        capsys.readouterr()
        base_key = min(
            record["context_key"]
            for record in list_context_records(ArtifactStore(root))
            if "derived_from" not in record
        )
        assert main([
            "store", "gc", "--store", root, "--older-than", "0", "--dry-run",
        ]) == 0
        output = capsys.readouterr().out
        assert "lineage protection" in output
        assert base_key[:12] not in output

    def test_ingest_bad_delta_exits_2(self, primed, tmp_path, capsys):
        from repro.cli import main

        root, _ = primed
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a delta\n")
        assert main(["ingest", "--store", root, "--delta", str(bad)]) == 2
        assert "ingest:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Warm-run reporting (store_events["derived"], result.ingest)
# ----------------------------------------------------------------------
class TestResultReporting:
    def test_store_backed_run_reports_ingest_and_derived(
        self, tmp_path, flixster_mini
    ):
        root = str(tmp_path / "store")
        delta_path = str(tmp_path / "delta.tsv")
        users = sorted(flixster_mini.graph.nodes())[:3]
        delta = ActionLogDelta()
        for rank, user in enumerate(users):
            delta.add(user, 987654, float(rank))
        delta.close(987654)
        save_action_log_delta(delta, delta_path)
        config = dict(
            dataset="flixster", scale="mini", selectors=["cd"], ks=[3],
            seed=11,
        )
        run_experiment(ExperimentConfig(**config, store=root))
        ingested = run_experiment(
            ExperimentConfig(**config, store=root, delta=delta_path)
        )
        assert ingested.ingest["lineage_depth"] == 1
        assert ingested.to_dict()["ingest"] == ingested.ingest
        # A warm run over the union log loads the derived bundle and
        # says so.
        from repro.data.split import train_test_split

        train, _ = train_test_split(flixster_mini.log, every=5)
        union = apply_delta(train, delta).union_log
        warm = run_experiment(
            ExperimentConfig(**config, store=root),
            context=SelectionContext(flixster_mini.graph, union, seed=11),
        )
        assert warm.store_events["derived"] == {
            "derived_from": ingested.ingest["base"],
            "lineage_depth": 1,
        }
        assert warm.store_events["misses"] == []
        assert ingested.selections("cd")[0].seeds == (
            warm.selections("cd")[0].seeds
        )
