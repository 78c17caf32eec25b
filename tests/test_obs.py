"""repro.obs: tracing spans, the metrics registry, and exposition.

Three contracts under test:

* **Spans** nest correctly, close on the exception path, and carry
  deterministic ids — the same trace id and call structure produce the
  same span tree whether the work runs on the serial, thread or
  process executor (the executor pins task indices explicitly).
* **Metrics** keep the harnesses' exact quantile semantics
  (nearest-rank p99, ``statistics.median`` p50) and render valid
  Prometheus text.
* **Parity**: telemetry is strictly out-of-band.  Results and stored
  artifact bytes are bit-identical with tracing on and off, and
  ``/healthz`` keeps its pre-registry JSON schema.
"""

from __future__ import annotations

import http.client
import json
import logging
import socket
import statistics
import threading
import time

import pytest

from repro import kernels
from repro.api import ExperimentConfig, SelectionContext, run_experiment
from repro.data.split import train_test_split
from repro.obs.metrics import (
    EXPOSITION_CONTENT_TYPE,
    Registry,
    default_registry,
    exact_median,
    exact_percentile,
    render_exposition,
)
from repro.obs.trace import Trace, span
from repro.runtime.executor import Executor


# ---------------------------------------------------------------------------
# Quantile semantics (the dedup contract for the bench/soak harnesses)
# ---------------------------------------------------------------------------
class TestQuantiles:
    def test_percentile_is_nearest_rank_with_bankers_rounding(self):
        for n in (1, 2, 3, 7, 10, 100, 101):
            samples = [float(i) for i in range(n)][::-1]  # unsorted input
            for q in (0.0, 0.5, 0.9, 0.99, 1.0):
                expected = sorted(samples)[min(n - 1, round(q * (n - 1)))]
                assert exact_percentile(samples, q) == expected

    def test_percentile_raises_on_empty(self):
        with pytest.raises(IndexError):
            exact_percentile([], 0.99)

    def test_median_is_statistics_median(self):
        assert exact_median([3.0, 1.0, 2.0]) == 2.0
        assert exact_median([4.0, 1.0, 2.0, 3.0]) == 2.5  # mean of middle two

    def test_histogram_summary_composes_the_exact_functions(self):
        hist = Registry().histogram("latency_ms")
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
        for value in values:
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == len(values)
        assert summary["mean"] == statistics.fmean(values)
        assert summary["p50"] == statistics.median(values)
        assert summary["p99"] == exact_percentile(values, 0.99)

    def test_empty_summary_is_zeros_not_an_error(self):
        hist = Registry().histogram("empty")
        assert hist.summary() == {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0}


# ---------------------------------------------------------------------------
# Registry + Prometheus text exposition
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter_labels_and_projection(self):
        registry = Registry()
        counter = registry.counter("hits_total", "hits", ("path",))
        counter.inc(path="cold")
        counter.inc(2, path="prefix")
        assert counter.value(path="cold") == 1
        assert counter.by_label("path") == {"cold": 1, "prefix": 2}
        assert counter.total() == 3

    def test_counter_values_stay_ints_for_json(self):
        # /healthz renders these straight into JSON; 0 must serialize
        # as "0", never "0.0".
        counter = Registry().counter("n_total", "", ("path",))
        counter.inc(0, path="cold")
        counter.inc(path="cold")
        assert json.dumps(counter.by_label("path")) == '{"cold": 1}'

    def test_counter_rejects_decrease(self):
        counter = Registry().counter("n_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_the_same_metric(self):
        registry = Registry()
        assert registry.counter("a_total") is registry.counter("a_total")
        with pytest.raises(ValueError):
            registry.gauge("a_total")  # same name, different type

    def test_histogram_buckets_are_cumulative(self):
        hist = Registry().histogram("h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        page = render_exposition_of(hist)
        assert 'h_bucket{le="0.1"} 1' in page
        assert 'h_bucket{le="1"} 2' in page
        assert 'h_bucket{le="10"} 3' in page
        assert 'h_bucket{le="+Inf"} 4' in page
        assert "h_count 4" in page

    def test_exposition_parses_and_dedups_first_wins(self):
        first, second = Registry(), Registry()
        first.counter("shared_total", "from first").inc(1)
        second.counter("shared_total", "from second").inc(99)
        second.gauge("only_second", "gauge").set(2.5)
        page = render_exposition(first, second)
        assert "# HELP shared_total from first" in page
        assert "shared_total 1" in page
        assert "shared_total 99" not in page
        assert "only_second 2.5" in page
        _assert_valid_exposition(page)


def render_exposition_of(metric) -> str:
    registry = Registry()
    with registry._lock:
        registry._metrics[metric.name] = metric
    return registry.render()


def _assert_valid_exposition(page: str) -> None:
    """Every line is a comment or ``name[{labels}] value`` with a float."""
    assert page.endswith("\n")
    for line in page.strip().splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        name_part, _, value = line.rpartition(" ")
        assert name_part, f"unparseable sample line: {line!r}"
        if value != "+Inf":
            float(value)
        bare = name_part.split("{", 1)[0]
        assert bare.replace("_", "").isalnum(), line


# ---------------------------------------------------------------------------
# Trace spans: nesting, exception closure, deterministic ids
# ---------------------------------------------------------------------------
class TestSpans:
    def test_spans_are_noops_without_an_active_trace(self):
        with span("anything", k=3) as sp:
            sp.set(more=1)  # must not raise
        assert not hasattr(sp, "span_id")

    def test_nesting_links_parents_and_records_attrs(self):
        trace = Trace(trace_id="nest")
        with trace.activate():
            with span("outer", task="t") as outer:
                with span("inner") as inner:
                    pass
                outer.set(done=True)
        assert [s.name for s in trace.spans] == ["inner", "outer"]  # close order
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.attrs == {"task": "t", "done": True}

    def test_exception_path_closes_the_span_and_propagates(self):
        trace = Trace(trace_id="boom")
        with trace.activate():
            with pytest.raises(KeyError):
                with span("failing"):
                    raise KeyError("x")
            # The contextvar was reset: a sibling span is a root again.
            with span("after") as after:
                pass
        failing = trace.spans[0]
        assert failing.status == "error"
        assert failing.error == "KeyError"
        assert after.parent_id is None

    def test_span_ids_are_deterministic_per_trace_id(self):
        def run() -> list[tuple]:
            trace = Trace(trace_id="fixed")
            with trace.activate():
                with span("a"):
                    with span("b"):
                        pass
                with span("a"):  # sibling with the same name: new index
                    pass
            return [(s.span_id, s.parent_id, s.name) for s in trace.spans]

        first, second = run(), run()
        assert first == second
        names = [entry[2] for entry in first]
        assert names == ["b", "a", "a"]
        a_ids = {entry[0] for entry in first if entry[2] == "a"}
        assert len(a_ids) == 2  # per-(parent, name) counter disambiguates

    def test_to_dict_omits_empty_attrs_and_error(self):
        trace = Trace(trace_id="dict")
        with trace.activate():
            with span("bare"):
                pass
        payload = trace.to_dict()
        assert payload["trace_id"] == "dict"
        (bare,) = payload["spans"]
        assert "attrs" not in bare and "error" not in bare
        assert bare["status"] == "ok"


# ---------------------------------------------------------------------------
# Executor propagation: same span tree on serial, thread and process
# ---------------------------------------------------------------------------
def _map_tree(kind: str) -> tuple[list, set]:
    trace = Trace(trace_id="exec-parity")
    executor = Executor(kind, max_workers=2)
    try:
        with trace.activate():
            results = executor.map(abs, [-1, -2, -3, -4])
    finally:
        executor.close()
    tree = {(s.span_id, s.parent_id, s.name) for s in trace.spans}
    return results, tree


class TestExecutorPropagation:
    def test_span_tree_identical_across_executor_kinds(self):
        serial_results, serial_tree = _map_tree("serial")
        thread_results, thread_tree = _map_tree("thread")
        process_results, process_tree = _map_tree("process")
        assert serial_results == thread_results == process_results == [1, 2, 3, 4]
        # kind is a span attribute, not part of the id: the trees match.
        assert serial_tree == thread_tree == process_tree
        names = sorted(name for _, _, name in serial_tree)
        assert names == ["executor.map"] + ["executor.task"] * 4

    def test_worker_spans_nest_under_their_task(self):
        def traced_work(value: int) -> int:
            with span("work.unit", value=value):
                return value * 2

        trace = Trace(trace_id="nest-workers")
        executor = Executor("thread", max_workers=2)
        try:
            with trace.activate():
                results = executor.map(traced_work, [1, 2, 3])
        finally:
            executor.close()
        assert results == [2, 4, 6]
        by_name: dict[str, list] = {}
        for recorded in trace.spans:
            by_name.setdefault(recorded.name, []).append(recorded)
        task_ids = {s.span_id for s in by_name["executor.task"]}
        assert len(by_name["work.unit"]) == 3
        assert all(s.parent_id in task_ids for s in by_name["work.unit"])
        map_span = by_name["executor.map"][0]
        assert all(s.parent_id == map_span.span_id for s in by_name["executor.task"])

    def test_untraced_map_unchanged(self):
        executor = Executor("thread", max_workers=2)
        try:
            assert executor.map(abs, [-5, 6]) == [5, 6]
        finally:
            executor.close()


# ---------------------------------------------------------------------------
# Determinism parity: telemetry is strictly out-of-band
# ---------------------------------------------------------------------------
def _strip_wall_clock(result_dict: dict) -> dict:
    """Drop the fields that differ between ANY two runs (wall clocks)."""
    stripped = json.loads(json.dumps(result_dict))  # deep copy
    stripped.pop("trace", None)
    stripped.pop("timings", None)
    for run in stripped.get("runs", []) or []:
        selection = run.get("selection", {})
        selection.pop("wall_time_s", None)
        selection.get("metadata", {}).pop("time_log", None)
    return stripped


_PARITY_CONFIG = dict(
    dataset="flixster", scale="mini", selectors=["cd", "high_degree"],
    ks=[3], seed=11,
)


class TestTraceParity:
    def test_results_identical_with_tracing_on_and_off(self):
        untraced = run_experiment(ExperimentConfig(**_PARITY_CONFIG))
        with Trace(trace_id="parity").activate():
            traced = run_experiment(ExperimentConfig(**_PARITY_CONFIG))
        assert traced.trace is not None and traced.trace["spans"]
        assert untraced.trace is None
        assert "trace" not in untraced.to_dict()
        assert _strip_wall_clock(traced.to_dict()) == _strip_wall_clock(
            untraced.to_dict()
        )

    def test_store_payload_bytes_identical_with_tracing_on_and_off(
        self, tmp_path
    ):
        def payloads(root) -> dict[str, bytes]:
            # Manifests carry wall-clock created_at; the determinism
            # contract is over the committed payload bytes.
            return {
                str(path.relative_to(root)): path.read_bytes()
                for path in sorted(root.rglob("payload*.bin"))
            }

        plain_root = tmp_path / "plain"
        traced_root = tmp_path / "traced"
        run_experiment(
            ExperimentConfig(**_PARITY_CONFIG, store=str(plain_root))
        )
        with Trace(trace_id="store-parity").activate():
            run_experiment(
                ExperimentConfig(**_PARITY_CONFIG, store=str(traced_root))
            )
        plain = payloads(plain_root)
        traced = payloads(traced_root)
        assert plain and plain == traced

    def test_pipeline_publishes_stage_gauges(self):
        gauge = default_registry().get("repro_stage_seconds")
        assert gauge is not None  # the parity runs above populated it
        assert gauge.value(stage="select") >= 0.0
        rendered = default_registry().render()
        assert 'repro_stage_seconds{stage="select"}' in rendered


# ---------------------------------------------------------------------------
# Build and maximize spans: what the Figure 8-9 and Table 4 sweeps read
# ---------------------------------------------------------------------------
def _traced_cd_run(context, **config):
    with Trace(trace_id="build-spans").activate() as trace:
        result = run_experiment(
            ExperimentConfig(selectors=["cd"], ks=[3], **config),
            context=context,
        )
    return result, trace.spans


def _named(spans, name):
    return [recorded for recorded in spans if recorded.name == name]


class TestBuildSpans:
    def test_cd_run_records_one_maximize_span(self, flixster_mini):
        context = SelectionContext(flixster_mini.graph, flixster_mini.log)
        result, spans = _traced_cd_run(context)
        (maximize,) = _named(spans, "maximize.cd")
        selection = result.runs[0].selection
        assert maximize.attrs == {
            "k": 3,
            "resumed": False,
            "oracle_calls": selection.oracle_calls,
            "seeds": len(selection.seeds),
            "lemma2_updates": 52,
            "lemma3_adds": 85,
        }

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_em_build_records_its_work(self, flixster_mini, backend):
        train, _ = train_test_split(flixster_mini.log, every=5)
        context = SelectionContext(flixster_mini.graph, train, backend=backend)
        with Trace(trace_id="em-work").activate() as trace:
            context.ic_probabilities("EM")
        (build,) = [
            recorded
            for recorded in _named(trace.spans, "context.build")
            if recorded.attrs["artifact"] == "ic_probabilities/EM"
        ]
        assert build.attrs == {
            "artifact": "ic_probabilities/EM",
            "iterations": 30,
            "converged": False,
            "edges": 275,
        }

    def test_one_build_span_per_slot_built(self, flixster_mini):
        context = SelectionContext(flixster_mini.graph, flixster_mini.log)
        _, spans = _traced_cd_run(context)
        builds = {
            recorded.attrs["artifact"]: recorded
            for recorded in _named(spans, "context.build")
        }
        assert len(builds) == len(_named(spans, "context.build"))
        assert sorted(builds) == sorted(context.artifact_names())
        # The scan builds the influence parameters it reads inside its
        # own span: a sweep's scan seconds include them.
        assert (
            builds["influence_params"].parent_id
            == builds["credit_index"].span_id
        )

    def test_no_sketch_batch_is_a_slot_build(self, flixster_mini):
        context = SelectionContext(flixster_mini.graph, flixster_mini.log)
        with Trace(trace_id="sketches").activate() as trace:
            context.sketches(num_sketches=50, seed=99)
            context.sketches(num_sketches=50)
        built = [
            recorded.attrs["artifact"]
            for recorded in _named(trace.spans, "context.build")
        ]
        assert "sketches" not in built
        # Only the probabilities the batches are drawn over were built.
        assert sorted(built) == sorted(context.artifact_names())

    def test_one_generate_span_per_sketch_batch(
        self, flixster_mini, monkeypatch
    ):
        calls, batches = [], []
        build = SelectionContext.sketches

        def recorded(self, *args, **kwargs):
            batch = build(self, *args, **kwargs)
            calls.append((args, kwargs))
            batches.append(batch)
            return batch

        monkeypatch.setattr(SelectionContext, "sketches", recorded)
        context = SelectionContext(flixster_mini.graph, flixster_mini.log)
        config = ExperimentConfig(
            selectors=[
                {"name": "ris", "params": {"num_rr_sets": 300}},
                {"name": "hop", "params": {"num_sketches": 300}},
            ],
            ks=[3],
            executor="serial",
        )
        with Trace(trace_id="sketch-spans").activate() as trace:
            run_experiment(config, context=context)
            # The last batch again: reused, so no span.
            args, kwargs = calls[-1]
            context.sketches(*args, **kwargs)
        generated = _named(trace.spans, "sketch.generate")
        assert len(batches) == 3 and batches[-1] is batches[-2]
        assert [recorded.attrs for recorded in generated] == [
            {
                "method": batch.method,
                "num_sketches": batch.num_sketches,
                "hops": batch.hops,
                "members": batch.total_members,
            }
            for batch in batches[:2]
        ]
        assert [batch.hops for batch in batches[:2]] == [None, 2]

    def test_no_build_span_for_an_injected_or_stored_slot(
        self, flixster_mini, tmp_path
    ):
        built = SelectionContext(flixster_mini.graph, flixster_mini.log)
        built.credit_index()
        built.cd_evaluator()
        injected = SelectionContext(flixster_mini.graph, flixster_mini.log)
        for name in built.artifact_names():
            injected.set_artifact(name, built.get_artifact(name))
        _, spans = _traced_cd_run(injected)
        assert _named(spans, "maximize.cd")
        assert _named(spans, "context.build") == []

        config = ExperimentConfig(**_PARITY_CONFIG, store=str(tmp_path))
        run_experiment(config)  # learns every slot and stores it
        with Trace(trace_id="stored").activate() as trace:
            warm = run_experiment(config)
        assert warm.store_events["misses"] == []
        assert _named(trace.spans, "context.build") == []


# ---------------------------------------------------------------------------
# Serving: /healthz schema pin, /metrics exposition, access log
# ---------------------------------------------------------------------------
class TestServiceTelemetry:
    def test_healthz_schema_is_byte_compatible(self, service):
        health = service.healthz()
        assert set(health) == {
            "status", "degraded", "store", "contexts", "loaded",
            "select_paths", "queue",
        }
        assert health["select_paths"] == {"prefix": 0, "resume": 0, "cold": 0}
        assert set(health["queue"]) == {
            "depth", "submitted", "dispatches", "rejected", "worker_deaths",
        }
        for value in health["select_paths"].values():
            assert type(value) is int
        for value in health["queue"].values():
            assert type(value) is int
        assert health["degraded"] == {}
        # The schema pin: this exact JSON shape predates the registry.
        json.dumps(health, sort_keys=True)

    def test_select_paths_counted_on_the_registry(self, service):
        before = service._select_paths["cold"]
        service.select({"selector": "high_degree", "k": 2})
        assert service._select_paths["cold"] == before + 1
        counter = service.metrics.get("repro_select_requests_total")
        assert counter.value(path="cold") == before + 1

    def test_degraded_dict_reads_back_from_the_counter(self, service):
        service._note_degraded("test_reason", "detail")
        service._note_degraded("test_reason")
        assert service._degraded["test_reason"] == 2
        assert service.healthz()["status"] == "degraded"

    def test_store_counters_observe_reads(self, service):
        hits = service.metrics.counter(
            "repro_store_get_total", "Store reads by outcome", ("result",)
        )
        before = hits.value(result="hit")
        service.slot(None)  # resolves through store reads
        service.select({"selector": "high_degree", "k": 2})
        assert hits.value(result="hit") >= before


@pytest.fixture(scope="module")
def service(populated_store):
    from repro.store.service import QueryService

    root, _ = populated_store
    return QueryService(root, cache_size=2)


@pytest.fixture(scope="module")
def populated_store(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("obs-serve") / "store")
    result = run_experiment(ExperimentConfig(**_PARITY_CONFIG, store=root))
    return root, result


class TestMetricsEndpoint:
    @pytest.fixture(scope="class")
    def server(self, populated_store):
        from repro.store.service import make_server

        root, _ = populated_store
        server = make_server(root, port=0, access_log=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server.server_address[1]
        server.shutdown()
        server.server_close()

    def _request(self, port, method, path, payload=None):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        body = json.dumps(payload) if payload is not None else None
        connection.request(method, path, body=body)
        response = connection.getresponse()
        data = response.read()
        headers = dict(response.getheaders())
        connection.close()
        return response.status, headers, data

    def test_metrics_exposition_tracks_requests(self, server, caplog):
        def access_lines() -> list[str]:
            return [
                record.getMessage()
                for record in caplog.records
                if record.name == "repro.serve"
                and '"POST /select"' in record.getMessage()
            ]

        with caplog.at_level(logging.INFO, logger="repro.serve"):
            for k in (1, 2, 2):
                status, _, _ = self._request(
                    server, "POST", "/select",
                    {"selector": "high_degree", "k": k},
                )
                assert status == 200
            status, _, _ = self._request(server, "GET", "/healthz")
            assert status == 200
            # A handler writes its access line after the response bytes,
            # so a line may trail the client: wait for it, boundedly.
            deadline = time.monotonic() + 5.0
            while len(access_lines()) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)

        status, headers, data = self._request(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == EXPOSITION_CONTENT_TYPE
        page = data.decode("utf-8")
        _assert_valid_exposition(page)

        samples = {}
        for line in page.splitlines():
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            samples[name] = value
        # Select-path counters match the requests driven above.
        assert samples['repro_select_requests_total{path="cold"}'] == "3"
        assert samples['repro_select_requests_total{path="prefix"}'] == "0"
        assert (
            samples['repro_requests_total{endpoint="/select",status="200"}']
            == "3"
        )
        assert 'repro_request_seconds_count{endpoint="/select"}' in samples
        assert "repro_coalescer_submitted_total" in samples
        assert 'repro_store_get_total{result="hit"}' in samples
        assert "repro_degraded_total" in page  # TYPE line even when empty

        # --access-log: one structured line per routed request.
        lines = access_lines()
        assert len(lines) == 3
        assert all("id=" in line and " 200 " in line for line in lines)

    def _request_rows(self, port) -> dict[str, float]:
        """``repro_requests_total`` samples by label set."""
        _, _, data = self._request(port, "GET", "/metrics")
        rows = {}
        for line in data.decode("utf-8").splitlines():
            if line.startswith("repro_requests_total{"):
                name, _, value = line.rpartition(" ")
                rows[name[len("repro_requests_total"):]] = float(value)
        return rows

    def test_every_answer_is_counted(self, server):
        from repro.store.service import UNKNOWN_ENDPOINT

        before = self._request_rows(server)
        assert self._request(server, "GET", "/nope")[0] == 404
        assert self._request(server, "POST", "/nope", {})[0] == 404
        connection = http.client.HTTPConnection("127.0.0.1", server, timeout=60)
        connection.request("POST", "/select", body="{not json")
        response = connection.getresponse()
        response.read()
        connection.close()
        assert response.status == 400
        # A Content-Length over the cap is refused unread, with a 413.
        with socket.create_connection(("127.0.0.1", server), timeout=30) as sock:
            sock.sendall(
                b"POST /select HTTP/1.0\r\nContent-Length: 10000000000000\r\n\r\n"
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.split(b" ", 2)[1] == b"413", reply
        after = self._request_rows(server)
        unknown = f'{{endpoint="{UNKNOWN_ENDPOINT}",status="404"}}'
        gained = {
            row: after[row] - before.get(row, 0.0)
            for row in after if after[row] != before.get(row, 0.0)
        }
        assert gained == {
            unknown: 2.0,
            '{endpoint="/select",status="400"}': 1.0,
            '{endpoint="/select",status="413"}': 1.0,
        }
        # A path scan adds one label row, not one per path.
        for index in range(50):
            assert self._request(server, "GET", f"/scan/{index}")[0] == 404
        scanned = self._request_rows(server)
        assert set(scanned) == set(after)
        assert scanned[unknown] == after[unknown] + 50
        assert not any("/metrics" in row for row in scanned)
        # The latency histogram counts the same answers.
        _, _, data = self._request(server, "GET", "/metrics")
        assert (
            f'repro_request_seconds_count{{endpoint="{UNKNOWN_ENDPOINT}"}}'
            in data.decode("utf-8")
        )

    def test_metrics_route_is_not_json(self, server):
        status, headers, data = self._request(server, "GET", "/metrics")
        assert status == 200
        with pytest.raises(ValueError):
            json.loads(data.decode("utf-8"))
        assert headers["Content-Type"].startswith("text/plain")
