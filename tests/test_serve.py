"""The warm-start query service: `repro serve` semantics over a store.

The service answers registry ``select`` queries and ``spread``/
``predict`` evaluations purely from stored artifacts — the fixtures
delete nothing, but the serving context is rebuilt with *no training
log*, so any attempt to learn raises and the tests would fail.
Responses must be deterministic: identical requests yield identical
payloads (the CI smoke job asserts the same over real HTTP).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.api import ExperimentConfig, SelectionContext, run_experiment
from repro.store import ArtifactStore
from repro.store.service import (
    QueryService,
    ServiceError,
    _Handler,
    make_server,
)
from repro.store.warm import load_context_record, load_serving_context, warm_start


@pytest.fixture(scope="module")
def populated_store(tmp_path_factory, flixster_mini):
    """A store holding one full artifact bundle plus experiment output."""
    root = str(tmp_path_factory.mktemp("serve") / "store")
    result = run_experiment(
        ExperimentConfig(
            dataset="flixster", scale="mini", selectors=["cd", "high_degree"],
            ks=[3], seed=11, store=root,
        )
    )
    # Extend the same namespace with the MC-model artifacts so
    # /predict IC|LT and probability-based selectors are servable.
    from repro.data.split import train_test_split

    train, _ = train_test_split(flixster_mini.log, every=5)
    context = SelectionContext(flixster_mini.graph, train, seed=11)
    warm_start(
        ArtifactStore(root),
        context,
        ["ic_probabilities/EM", "lt_weights"],
        dataset=flixster_mini,
        split={"split": True, "every": 5},
        dataset_name=flixster_mini.name,
    )
    return root, result


@pytest.fixture(scope="module")
def service(populated_store):
    root, _ = populated_store
    return QueryService(root, cache_size=2)


class TestServingContext:
    def test_loads_without_action_log(self, populated_store):
        root, _ = populated_store
        record = load_context_record(ArtifactStore(root))
        context = load_serving_context(ArtifactStore(root), record)
        assert context.train_log is None
        assert "credit_index" in context.artifact_names()
        assert "cd_evaluator" in context.artifact_names()

    def test_record_lists_artifacts(self, populated_store):
        root, _ = populated_store
        record = load_context_record(ArtifactStore(root))
        assert "credit_index" in record["artifacts"]
        assert "ic_probabilities/EM" in record["artifacts"]
        assert record["num_simulations"] == 100


class TestQueryService:
    def test_select_matches_experiment(self, service, populated_store):
        _, result = populated_store
        response = service.select({"selector": "cd", "k": 3})
        experiment_seeds = result.selections("cd")[0].seeds
        assert response["selection"]["seeds"] == experiment_seeds

    def test_select_is_deterministic(self, service):
        first = service.select({"selector": "cd", "k": 3})
        second = service.select({"selector": "cd", "k": 3})
        assert first == second

    def test_stochastic_selector_derives_per_trial_seed(self, service):
        base = service.select(
            {"selector": "ris", "k": 2, "params": {"num_rr_sets": 300}}
        )
        again = service.select(
            {"selector": "ris", "k": 2, "params": {"num_rr_sets": 300}}
        )
        assert base == again  # trial 0 both times
        other_trial = service.select(
            {"selector": "ris", "k": 2, "params": {"num_rr_sets": 300},
             "trial": 1}
        )
        assert other_trial["selection"]["params"]["seed"] != (
            base["selection"]["params"]["seed"]
        )

    def test_select_responses_carry_no_timing(self, service):
        response = service.select({"selector": "cd", "k": 2})
        assert "wall_time_s" not in response["selection"]
        assert "time_log" not in response["selection"]["metadata"]

    def test_spread_matches_cd_evaluator(self, service, populated_store):
        root, _ = populated_store
        record = load_context_record(ArtifactStore(root))
        context = load_serving_context(ArtifactStore(root), record)
        seeds = service.select({"selector": "cd", "k": 3})["selection"]["seeds"]
        response = service.spread({"seeds": seeds})
        assert response["spread"] == context.cd_evaluator().spread(seeds)

    def test_predict_all_methods_deterministic(self, service):
        for method in ("CD", "IC", "LT"):
            first = service.predict({"seeds": [1, 2, 3], "method": method})
            second = service.predict({"seeds": [1, 2, 3], "method": method})
            assert first == second, method
            assert first["predicted_spread"] >= 0.0

    def test_string_seed_ids_coerce_like_tsv(self, service):
        typed = service.spread({"seeds": [1, 2]})
        stringly = service.spread({"seeds": ["1", "2"]})
        assert typed["spread"] == stringly["spread"]

    def test_unknown_selector_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown selector"):
            service.select({"selector": "nope", "k": 1})

    def test_unservable_selector_names_the_gap(self, tmp_path):
        # A store populated by a CD-only experiment lacks LT weights;
        # serving ldag from it must fail with the context's clear
        # "needs a training action log" message, not a KeyError.
        root = str(tmp_path / "cd-only-store")
        run_experiment(
            ExperimentConfig(
                dataset="flixster", scale="mini", selectors=["cd"],
                ks=[2], seed=11, store=root,
            )
        )
        lean = QueryService(root)
        with pytest.raises(ServiceError, match="training action log"):
            lean.select({"selector": "ldag", "k": 2})

    def test_budget_flag_enforced(self, service):
        with pytest.raises(ServiceError, match="budget"):
            service.select({"selector": "cd", "k": 2, "budget": 3.0})
        served = service.select(
            {"selector": "cd_budget", "k": 3, "budget": 2.0}
        )
        assert len(served["selection"]["seeds"]) <= 2

    def test_validation_errors(self, service):
        with pytest.raises(ServiceError):
            service.select({"k": 2})
        with pytest.raises(ServiceError):
            service.select({"selector": "cd", "k": 0})
        with pytest.raises(ServiceError):
            service.spread({"seeds": []})
        with pytest.raises(ServiceError):
            service.predict({"seeds": [1], "method": "XX"})

    def test_unknown_context_is_404(self, service):
        with pytest.raises(ServiceError) as info:
            service.select({"selector": "cd", "k": 2, "context": "ffff"})
        assert info.value.status == 404

    def test_selectors_listing_includes_capabilities(self, service):
        listing = service.selectors()["selectors"]
        by_name = {entry["name"]: entry for entry in listing}
        assert by_name["cd"]["needs_index"] is True
        assert by_name["cd_budget"]["supports_budget"] is True


class TestHTTP:
    @pytest.fixture(scope="class")
    def server(self, populated_store):
        root, _ = populated_store
        server = make_server(root, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server.server_address[1]
        server.shutdown()
        server.server_close()

    def _call(self, port, method, path, body=None):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        connection.request(
            method, path, body=None if body is None else json.dumps(body)
        )
        response = connection.getresponse()
        payload = response.read().decode("utf-8")
        connection.close()
        return response.status, payload

    def test_healthz(self, server):
        status, payload = self._call(server, "GET", "/healthz")
        assert status == 200
        assert json.loads(payload)["status"] == "ok"

    def test_contexts_listing(self, server):
        status, payload = self._call(server, "GET", "/contexts")
        assert status == 200
        assert len(json.loads(payload)["contexts"]) == 1

    def test_select_round_trip_is_byte_deterministic(self, server):
        request = {"selector": "cd", "k": 3}
        first = self._call(server, "POST", "/select", request)
        second = self._call(server, "POST", "/select", request)
        assert first == second
        assert first[0] == 200

    def test_spread_round_trip(self, server):
        seeds = json.loads(
            self._call(server, "POST", "/select", {"selector": "cd", "k": 3})[1]
        )["selection"]["seeds"]
        first = self._call(server, "POST", "/spread", {"seeds": seeds})
        second = self._call(server, "POST", "/spread", {"seeds": seeds})
        assert first == second
        assert first[0] == 200
        assert json.loads(first[1])["spread"] > 0.0

    def test_error_statuses(self, server):
        assert self._call(server, "GET", "/nope")[0] == 404
        assert self._call(server, "POST", "/nope")[0] == 404
        status, payload = self._call(
            server, "POST", "/select", {"selector": "nope", "k": 1}
        )
        assert status == 400
        assert "unknown selector" in json.loads(payload)["error"]

    def test_malformed_body_is_400(self, server):
        connection = http.client.HTTPConnection(
            "127.0.0.1", server, timeout=30
        )
        connection.request("POST", "/select", body="{not json")
        response = connection.getresponse()
        assert response.status == 400
        response.read()
        connection.close()

    @staticmethod
    def _raw_post(port, content_length, body=b""):
        """POST with a hand-written Content-Length; all bytes until close."""
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(
                b"POST /select HTTP/1.0\r\n"
                + f"Content-Length: {content_length}\r\n\r\n".encode()
                + body
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        return reply

    def test_negative_content_length_is_400(self, server):
        reply = self._raw_post(server, -1, b'{"selector": "cd", "k": 1}')
        assert reply.split(b" ", 2)[1] == b"400", reply
        assert b"negative Content-Length" in reply
        assert self._call(server, "GET", "/healthz")[0] == 200

    def test_oversized_content_length_is_413(self, server):
        # Refused before any body byte is read: no body is ever sent,
        # so a handler that tried to read one would stall or, at a
        # length this large, fail to allocate the buffer.
        for length in (_Handler.max_body_bytes + 1, 10**13):
            started = time.monotonic()
            reply = self._raw_post(server, length)
            assert reply.split(b" ", 2)[1] == b"413", reply
            assert b"exceeds" in reply
            assert time.monotonic() - started < 4
        assert self._call(server, "GET", "/healthz")[0] == 200

    def test_body_at_the_cap_is_answered(self, server, monkeypatch):
        body = json.dumps({"selector": "cd", "k": 1}).encode()
        monkeypatch.setattr(_Handler, "max_body_bytes", len(body))
        reply = self._raw_post(server, len(body), body)
        assert reply.split(b" ", 2)[1] == b"200", reply
        reply = self._raw_post(server, len(body) + 1)
        assert reply.split(b" ", 2)[1] == b"413", reply
        assert self._call(server, "GET", "/healthz")[0] == 200

    def test_stalled_body_closes_the_connection(self, server, monkeypatch):
        # Handler threads ship with a finite socket timeout; patched
        # down here so the stall resolves quickly.
        assert _Handler.timeout is not None and 0 < _Handler.timeout <= 60
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        started = time.monotonic()
        # 100 bytes promised, 10 sent: the handler waits for the rest
        # until its read times out, then drops the connection unanswered.
        reply = self._raw_post(server, 100, b'{"k": 1, "')
        assert reply == b""
        assert time.monotonic() - started < 4
        assert self._call(server, "GET", "/healthz")[0] == 200


class TestLRU:
    def test_cache_evicts_beyond_capacity(self, populated_store):
        root, _ = populated_store
        service = QueryService(root, cache_size=1)
        service.select({"selector": "cd", "k": 2})
        assert len(service._slots) == 1
        # A second select on the same context reuses the loaded slot.
        slot = next(iter(service._slots.values()))
        service.select({"selector": "cd", "k": 2})
        assert next(iter(service._slots.values())) is slot

    def test_cache_size_validated(self, populated_store):
        root, _ = populated_store
        with pytest.raises(ValueError):
            QueryService(root, cache_size=0)


class TestSlotResolutionHotPath:
    def test_full_key_and_default_short_circuit_the_store_scan(
        self, populated_store, monkeypatch
    ):
        root, _ = populated_store
        service = QueryService(root)
        # First request resolves via the store and pins the default.
        key = service.select({"selector": "cd", "k": 2})["context"]

        import repro.store.service as service_module

        def _no_rescan(*args, **kwargs):
            raise AssertionError("resolved a loaded context via store scan")

        monkeypatch.setattr(
            service_module, "load_context_record", _no_rescan
        )
        # Full key and the pinned default resolve from memory alone;
        # prefixes deliberately go through the store (ambiguity is
        # checked against every record, not just what is cached).
        by_key = service.select({"selector": "cd", "k": 2, "context": key})
        by_default = service.select({"selector": "cd", "k": 2})
        assert by_key == by_default

    def test_prefix_resolution_consults_the_store(self, populated_store):
        root, _ = populated_store
        service = QueryService(root)
        key = service.select({"selector": "cd", "k": 2})["context"]
        by_prefix = service.select(
            {"selector": "cd", "k": 2, "context": key[:8]}
        )
        assert by_prefix["context"] == key

    def test_malformed_trial_and_budget_are_client_errors(self, service):
        with pytest.raises(ServiceError, match="trial"):
            service.select({"selector": "cd", "k": 2, "trial": "x"})
        with pytest.raises(ServiceError, match="budget"):
            service.select(
                {"selector": "cd_budget", "k": 2, "budget": "abc"}
            )

    def test_concurrent_requests_are_consistent(self, populated_store):
        import threading as threading_module

        root, _ = populated_store
        service = QueryService(root, cache_size=1)
        results, errors = [], []

        def _hit():
            try:
                results.append(service.select({"selector": "cd", "k": 2}))
            except Exception as error:  # noqa: BLE001 - recorded for assert
                errors.append(error)

        threads = [
            threading_module.Thread(target=_hit) for _ in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(result == results[0] for result in results)

    def test_cold_load_race_converges_on_one_slot(
        self, populated_store, monkeypatch
    ):
        # Two threads resolving the same uncached context must end up
        # sharing one _ServingSlot: the loser of the insert race adopts
        # the winner's slot instead of installing a duplicate.
        import repro.store.service as service_module

        root, _ = populated_store
        service = QueryService(root, cache_size=2)
        barrier = threading.Barrier(2, timeout=30)
        real_load = service_module.load_serving_context

        def rendezvous_load(store, record):
            context = real_load(store, record)
            barrier.wait()  # both threads finish loading before inserting
            return context

        monkeypatch.setattr(
            service_module, "load_serving_context", rendezvous_load
        )
        slots, errors = [], []

        def _resolve():
            try:
                slots.append(service.slot(None))
            except Exception as error:  # noqa: BLE001 - recorded for assert
                errors.append(error)

        threads = [threading.Thread(target=_resolve) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(slots) == 2
        assert slots[0] is slots[1]
        assert len(service._slots) == 1


class TestDefaultSlotPinned:
    """Regression: the LRU used to evict the pinned default slot."""

    def test_eviction_skips_the_default_key(self, tmp_path, flixster_mini):
        # A private store: this test adds a second context, which must
        # not leak into the shared single-context fixture.
        root = str(tmp_path / "pin-store")
        run_experiment(
            ExperimentConfig(
                dataset="flixster", scale="mini", selectors=["cd"],
                ks=[2], seed=11, store=root,
            )
        )
        service = QueryService(root, cache_size=1)
        service.select({"selector": "cd", "k": 2})
        default_key = service._default_key
        assert default_key is not None
        default_slot = service._slots[default_key]
        # A second context in the same store (different split spec).
        from repro.data.split import train_test_split

        train, _ = train_test_split(flixster_mini.log, every=4)
        other = SelectionContext(flixster_mini.graph, train, seed=11)
        events = warm_start(
            ArtifactStore(root), other, ["credit_index"],
            dataset=flixster_mini, split={"split": True, "every": 4},
            dataset_name=flixster_mini.name,
        )
        other_key = events["context_key"]
        assert other_key != default_key
        # Loading it overflows the size-1 cache; the non-default slot
        # must be the one shed, and keyless requests keep hitting the
        # pinned slot without a store reload.
        service.slot(other_key)
        assert default_key in service._slots
        assert service.slot(None) is default_slot
        assert other_key not in service._slots


class TestClientDisconnect:
    """Regression: a client hanging up mid-response crashed the thread."""

    @pytest.mark.parametrize(
        "error_type", [BrokenPipeError, ConnectionResetError]
    )
    def test_respond_swallows_disconnects(self, error_type):
        from repro.store.service import _Handler

        class _GoneClient:
            def write(self, data):
                raise error_type()

            def flush(self):  # pragma: no cover - py<3.12 end_headers
                raise error_type()

        handler = _Handler.__new__(_Handler)
        handler.wfile = _GoneClient()
        handler.request_version = "HTTP/1.1"
        handler.requestline = "GET /healthz HTTP/1.1"
        handler.client_address = ("127.0.0.1", 0)
        handler.close_connection = False
        handler._respond(200, {"status": "ok"})  # must not raise
        assert handler.close_connection is True


class TestIngestWaitSemantics:
    """Regression: any truthy JSON (even the string "false") meant wait."""

    PAYLOAD = {"tuples": [[1, 990, 1.0]]}

    @pytest.mark.parametrize("bad", ["false", "true", 1, 0, [], {}])
    def test_wait_must_be_a_json_boolean(self, populated_store, bad):
        root, _ = populated_store
        service = QueryService(root)
        with pytest.raises(ServiceError, match="'wait' must be a JSON"):
            service.ingest({**self.PAYLOAD, "wait": bad})
        assert not service._ingest_active

    def test_verify_must_be_a_json_boolean(self, populated_store):
        root, _ = populated_store
        service = QueryService(root)
        with pytest.raises(ServiceError, match="'verify' must be a JSON"):
            service.ingest({**self.PAYLOAD, "verify": "false"})

    def test_wait_join_times_out_and_reports(
        self, populated_store, monkeypatch
    ):
        import repro.stream.derive as derive_module

        root, _ = populated_store
        service = QueryService(root, ingest_timeout=0.05)
        release = threading.Event()

        def slow_derive(*args, **kwargs):
            release.wait(timeout=30)
            raise RuntimeError("derive aborted by test")

        monkeypatch.setattr(derive_module, "derive_bundle", slow_derive)
        response = service.ingest({**self.PAYLOAD, "wait": True})
        assert response["status"] == "running"
        assert response["wait_timed_out"] is True
        release.set()
        for _ in range(300):
            with service._lock:
                if not service._ingest_active:
                    break
            threading.Event().wait(0.01)
        status = service.ingest_status()["ingests"][-1]
        assert status["status"] == "failed"
        assert "derive aborted by test" in status["error"]
