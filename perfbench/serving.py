"""serve_mixed and ingest_live: ``repro serve`` over HTTP, plus ``/ingest``.

Both workloads build an artifact store from ``flixster_like("small")``
with a ``cd`` selection prefix, start a
``repro serve --port 0`` subprocess over it and drive it from this
process over at most two HTTP connections.  Load is open loop: each
request has a due time from a seeded schedule and is timed from that
due time, so a stall also delays every later request.  Nothing is
retried; a non-200 answer, a transport error or a timeout is a failure.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    ROOT,
    CheckFailed,
    Report,
    Tracer,
    environment_record,
    median,
    monotonic,
    optional_span,
    peak_rss_mb,
    percentile,
    program_env,
    reference_s,
    report_passes,
    scaled,
)

PROBE = ROOT / "perfbench" / "reference_probe.py"
K_MAX = 20
STORE_SEED = 7
SETUPS = 5
NEEDED = [
    "credit_index",
    "cd_evaluator",
    "ic_probabilities/EM",
    "lt_weights",
    "influence_params",
]
PREDICT_METHODS = ("IC", "LT", "CD")
POOL_SIZE = 200
POOL_SEED = 20110901
REQUEST_TIMEOUT_S = 30.0
HEALTHZ_RPS = 4.0

# serve_mixed: open-loop rate and mix.  The 1:1:1 mix is the round
# benchmarks/bench_serve_load.py sends; no traffic record backs a mix or
# a rate (see perfbench/README.md).  The rate sits well below the
# 140-330 req/s at which two connections saturated on a 2-vCPU host.
NOMINAL_RPS = 40.0
MIX = (("select", 1.0), ("spread", 1.0), ("predict", 1.0))
# The phase is cut into this many windows by due time; a percentile is
# the median of the windows' own, so one slow stretch of the host moves
# at most one window.
WINDOWS = 5
REPLAY_REQUESTS = 300

# ingest_live: base store from the first 80% of actions, the rest in
# chained deltas beside a low-rate read stream on the other connection.
BASE_FRACTION = 0.8
DELTAS = 20
# The in-process replay of a traced run follows the first deltas of the
# chain only, so that a traced run ends well within its time limit.
REPLAY_DELTAS = 8
READ_RPS = 10.0
READ_MIX = (("select", 0.5), ("spread", 0.5))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def small_dataset():
    """The preset small dataset; the workload seed drives the requests."""
    from repro.data.datasets import flixster_like

    return flixster_like("small")


def seed_pool(log) -> list[list]:
    """Varied seed sets (1-8 active users) the spread/predict mix draws.

    The pool is part of the data set, fixed across workload seeds; the
    seed picks which sets are asked for, when.
    """
    rng = random.Random(POOL_SEED)
    users = sorted(log.users())
    return [
        sorted(rng.sample(users, rng.randint(1, 8))) for _ in range(POOL_SIZE)
    ]


def split_actions(log):
    """(base log, delta tuple lists): first 80% of actions, then chunks."""
    actions = list(log.actions())
    cut = int(len(actions) * BASE_FRACTION)
    base = log.restrict_to_actions(actions[:cut])
    rest = actions[cut:]
    size = -(-len(rest) // DELTAS)
    deltas = []
    for start in range(0, len(rest), size):
        chunk = log.restrict_to_actions(rest[start:start + size])
        deltas.append([[u, a, t] for u, a, t in chunk.tuples()])
    return base, deltas


def build_store(root: Path, graph, log) -> str:
    """Learn the serving bundle into ``root`` plus a cd prefix to K_MAX."""
    from repro.api import SelectionContext
    from repro.store import ArtifactStore
    from repro.store.prefix import precompute_prefix
    from repro.store.warm import (
        load_context_record,
        load_serving_context,
        warm_start,
    )

    context = SelectionContext(graph, log, seed=STORE_SEED, backend="numpy")
    warm_start(ArtifactStore(str(root)), context, NEEDED,
               dataset_name="flixster_small")
    store = ArtifactStore(str(root), create=False)
    record = load_context_record(store)
    serving = load_serving_context(store, record)
    precompute_prefix(store, record, serving, "cd", K_MAX)
    return record["context_key"]


# ----------------------------------------------------------------------
# The program process
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve --port 0`` subprocess over one store."""

    def __init__(self, store_root: Path) -> None:
        self.log_path = store_root.with_suffix(".serve.log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--store", str(store_root), "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, env=program_env(),
            cwd=ROOT, text=True,
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 60)
            line = self.process.stdout.readline() if ready else ""
            if "http://" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            address = line.split("http://", 1)[1].split()[0]
            self.port = int(address.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        self.process.stdout.close()
        self._log.close()


def http_call(port: int, method: str, path: str, payload=None):
    """One request on its own connection: (status, body bytes, headers)."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
    )
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        connection.close()


def answered(port: int, method: str, path: str, payload=None) -> dict:
    status, body, _headers = http_call(port, method, path, payload)
    if status != 200:
        raise CheckFailed(f"{method} {path} -> {status}: {body[:300]!r}")
    return json.loads(body)


def scrape_metrics(port: int) -> dict[str, float]:
    status, body, _headers = http_call(port, "GET", "/metrics")
    if status != 200:
        raise CheckFailed(f"GET /metrics -> {status}")
    values = {}
    for line in body.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


# ----------------------------------------------------------------------
# Open-loop load
# ----------------------------------------------------------------------
@dataclass
class Request:
    due: float
    kind: str
    method: str
    path: str
    payload: dict | None
    key: str


@dataclass
class Outcome:
    request: Request
    lateness: float
    latency: float
    status: int | None
    body: bytes = b""
    error: str = ""
    retry_after: bool = False

    @property
    def ok(self) -> bool:
        return self.status == 200


def make_request(kind: str, rng: random.Random, pool, counter: list,
                 due: float) -> Request:
    if kind == "select":
        k = rng.randint(1, K_MAX)
        return Request(due, kind, "POST", "/select",
                       {"selector": "cd", "k": k}, f"select:k={k}")
    if kind == "healthz":
        return Request(due, kind, "GET", "/healthz", None, "healthz")
    index = rng.randrange(len(pool))
    if kind == "spread":
        return Request(due, kind, "POST", "/spread", {"seeds": pool[index]},
                       f"spread:{index}")
    method = PREDICT_METHODS[counter[0] % len(PREDICT_METHODS)]
    counter[0] += 1
    return Request(due, kind, "POST", "/predict",
                   {"seeds": pool[index], "method": method},
                   f"predict:{method}:{index}")


def schedule(rng: random.Random, rate: float, duration: float, mix, pool,
             poisson: bool = True) -> list[Request]:
    """Arrivals of the mix, plus a fixed-interval /healthz probe.

    Arrivals are Poisson, or with ``poisson=False`` evenly spaced (the
    seed then picks only what each request asks).
    """
    requests = []
    kinds = [kind for kind, _share in mix]
    weights = [share for _kind, share in mix]
    counter = [0]

    def gap() -> float:
        return rng.expovariate(rate) if poisson else 1.0 / rate

    due = gap() if poisson else 0.5 / rate
    while due < duration:
        kind = rng.choices(kinds, weights)[0]
        requests.append(make_request(kind, rng, pool, counter, due))
        due += gap()
    step = 1.0 / HEALTHZ_RPS
    due = step / 2
    while due < duration:
        requests.append(make_request("healthz", rng, pool, counter, due))
        due += step
    requests.sort(key=lambda request: request.due)
    return requests


def run_open_loop(port: int, requests: list[Request], connections: int,
                  stop=None, tracer: Tracer | None = None) -> list[Outcome]:
    """Send ``requests`` at their due times over ``connections`` senders.

    A sender takes the next request, waits for its due time and sends
    it; with every sender busy a due request waits, and that wait
    counts in its latency.  ``stop()`` ends the phase early (requests
    not yet taken are not attempted).
    """
    outcomes: list[Outcome | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = monotonic() + 0.05

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(requests) or (stop is not None and stop()):
                    return
                cursor[0] += 1
            request = requests[index]
            due = start + request.due
            delay = due - monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = monotonic()
            status, body, error, retry_after = None, b"", "", False
            try:
                with optional_span(tracer, f"http.{request.kind}"):
                    status, body, headers = http_call(
                        port, request.method, request.path, request.payload
                    )
                retry_after = "Retry-After" in headers
            except (OSError, http.client.HTTPException) as exc:
                error = f"{type(exc).__name__}: {exc}"
            done = monotonic()
            outcomes[index] = Outcome(
                request, sent - due, done - due, status, body, error,
                retry_after,
            )

    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [outcome for outcome in outcomes if outcome is not None]


def count_phase(report: Report, phase: str, outcomes: list[Outcome]) -> None:
    failed = [o for o in outcomes if not o.ok]
    report.attempted += len(outcomes)
    report.failed += len(failed)
    shed = sum(1 for o in failed if o.status == 503 and o.retry_after)
    transport = sum(1 for o in failed if o.status is None)
    report.note(
        f"phase {phase}: sent {len(outcomes)} succeeded "
        f"{len(outcomes) - len(failed)} failed {len(failed)} "
        f"(503+Retry-After {shed}, transport/timeout {transport})"
    )


def windowed_percentile(outcomes: list[Outcome], kinds, fraction: float,
                        duration: float, windows: int) -> tuple[float, int]:
    """(ms, samples): a percentile of the successful ``kinds`` requests.

    The phase (``duration`` seconds of due times) is cut into
    ``windows`` equal windows and the figure is the median of the
    windows' percentiles; the sample count is the whole phase's.
    """
    by_window: list[list[float]] = [[] for _ in range(windows)]
    for o in outcomes:
        if o.request.kind in kinds and o.ok:
            index = min(windows - 1, int(o.request.due / duration * windows))
            by_window[index].append(o.latency * 1000)
    by_window = [values for values in by_window if values]
    if not by_window:
        raise CheckFailed(f"no successful {'/'.join(kinds)} requests")
    value = median([percentile(values, fraction) for values in by_window])
    return value, sum(len(values) for values in by_window)


def latency_metrics(report: Report, outcomes: list[Outcome], kinds,
                    duration: float, windows: int = 1) -> None:
    """p50/p90 per kind (p50 only for /healthz), failures excluded."""
    for kind in kinds:
        quantiles = [("p50", 0.5)] if kind == "healthz" else [
            ("p50", 0.5), ("p90", 0.9)]
        for label, fraction in quantiles:
            value, samples = windowed_percentile(
                outcomes, (kind,), fraction, duration, windows)
            report.metric(f"{kind}_{label}_ms", value, "ms", samples)


def check_deterministic(report: Report, outcomes: list[Outcome]) -> None:
    """Every 200 body of one request (on one context) is byte-identical."""
    bodies: dict[tuple, set[bytes]] = {}
    for outcome in outcomes:
        if not outcome.ok or outcome.request.kind == "healthz":
            continue
        context = json.loads(outcome.body).get("context")
        bodies.setdefault((outcome.request.key, context), set()).add(
            outcome.body
        )
    differing = sorted(key for key, seen in bodies.items() if len(seen) > 1)
    report.check(not differing,
                 f"non-identical bodies for one request: {differing[:5]}")


def cold_selection_body(store_root: Path, k: int, context_key=None) -> dict:
    """The /select body the cold (no prefix) path produces, in process."""
    from repro.store import ArtifactStore
    from repro.store.prefix import bind_selector
    from repro.store.warm import load_context_record, load_serving_context

    store = ArtifactStore(str(store_root), create=False)
    record = load_context_record(store, context_key)
    context = load_serving_context(store, record)
    selection = bind_selector(context, "cd").select(context, k)
    body = selection.to_dict()
    body.pop("wall_time_s", None)
    body.get("metadata", {}).pop("time_log", None)
    return json.loads(json.dumps({
        "context": record["context_key"], "selector": "cd", "k": k,
        "trial": 0, "selection": body,
    }))


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Deployment:
    root: Path
    server: Server
    pool: list
    dataset: object
    deltas: list = field(default_factory=list)
    base_key: str = ""


def warm_up(port: int, pool, kinds) -> None:
    """One request of each kind, so lazy engine builds finish in set-up."""
    answered(port, "POST", "/select", {"selector": "cd", "k": 1})
    answered(port, "GET", "/healthz")
    if "spread" in kinds:
        answered(port, "POST", "/spread", {"seeds": pool[0]})
    if "predict" in kinds:
        for method in PREDICT_METHODS:
            answered(port, "POST", "/predict",
                     {"seeds": pool[0], "method": method})


def deploy(report: Report, workdir: Path, ingest: bool,
           kinds) -> Deployment:
    """Set up SETUPS times (median reported); keep the last deployment."""
    times = []
    references = [reference_s()]
    deployment = None
    for index in range(SETUPS):
        if deployment is not None:
            deployment.server.stop()
            shutil.rmtree(deployment.root, ignore_errors=True)
        started = monotonic()
        dataset = small_dataset()
        pool = seed_pool(dataset.log)
        root = workdir / f"store-{index}"
        deltas, base_key = [], ""
        if ingest:
            base, deltas = split_actions(dataset.log)
            base_key = build_store(root, dataset.graph, base)
        else:
            build_store(root, dataset.graph, dataset.log)
        server = Server(root)
        try:
            warm_up(server.port, pool, kinds)
        except BaseException:
            server.stop()
            raise
        times.append(monotonic() - started)
        deployment = Deployment(root, server, pool, dataset, deltas, base_key)
        references.append(reference_s())
    # Scaled by the references timed between the set-ups.  That widens the
    # spread within a set of runs (a set-up is mostly a fresh server
    # process and store writes), but keeps the median where the host's
    # speed moved the unscaled one by 45% from one set to the next.
    report.metric("setup_s", scaled(median(times), references), "s",
                  len(times))
    report.metric("wall_setup_s", median(times), "s", len(times))
    report.environment = environment_record("numpy", "serial")
    return deployment


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
def serve_mixed(report: Report, workdir: Path, seed: int,
                seconds: int) -> None:
    kinds = ("select", "spread", "predict")
    deployment = deploy(report, workdir, ingest=False, kinds=kinds)
    port = deployment.server.port
    rng = random.Random(seed * 7919 + 1)
    try:
        nominal = schedule(rng, NOMINAL_RPS, seconds, MIX, deployment.pool)
        if report.trace:
            _serve_mixed_traced(report, deployment, nominal)
            return
        outcomes, references = _probed_open_loop(port, nominal, seconds)
        count_phase(report, "nominal", outcomes)
        # The gated figure is the p50 over every request of the mix; the
        # per-kind figures are printed.  With a 1:1:1 mix the pooled
        # median falls inside the /spread and CD /predict cluster, not on
        # the edge between two request kinds.
        for label, fraction in (("p50", 0.5), ("p90", 0.9)):
            value, samples = windowed_percentile(
                outcomes, kinds, fraction, seconds, WINDOWS)
            report.metric(f"wall_latency_{label}_ms", value, "ms", samples)
            report.metric(f"latency_{label}_ms", scaled(value, references),
                          "ms", samples)
        report.metric("host_reference_ms", median(references) * 1000, "ms",
                      len(references))
        latency_metrics(report, outcomes, kinds + ("healthz",), seconds,
                        WINDOWS)
        report.metric("peak_rss_mb", deployment.server.peak_rss_mb(), "MB", 1)
        check_deterministic(report, outcomes)
        _check_cold_sample(report, deployment, outcomes)
    finally:
        deployment.server.stop()


def _probed_open_loop(port: int, requests: list[Request],
                      seconds: int) -> tuple[list[Outcome], list[float]]:
    """The open-loop phase, with the host's speed sampled beside it.

    The reference work runs in a process of its own
    (``reference_probe.py``) every half second through the phase:
    timed only around the phase, it missed changes of host speed inside
    it, and run in this process it would hold up the senders.
    """
    probe = subprocess.Popen(
        [sys.executable, str(PROBE), "--seconds", str(seconds)],
        stdout=subprocess.PIPE, cwd=ROOT, text=True,
    )
    try:
        if probe.stdout.readline().strip() != "ready":
            raise RuntimeError("the reference probe did not start")
        outcomes = run_open_loop(port, requests, connections=2)
        output, _ = probe.communicate(timeout=60)
    finally:
        if probe.poll() is None:
            probe.kill()
            probe.wait()
        probe.stdout.close()
    return outcomes, json.loads(output)


def _check_cold_sample(report: Report, deployment: Deployment,
                       outcomes: list[Outcome]) -> None:
    served = {}
    for outcome in outcomes:
        if outcome.ok and outcome.request.kind == "select":
            served.setdefault(outcome.request.payload["k"], outcome.body)
    for k in sorted(served)[:: max(1, len(served) // 3)][:3]:
        expected = cold_selection_body(deployment.root, k)
        report.check(json.loads(served[k]) == expected,
                     f"/select k={k} differs from the in-process cold path")


def _serve_mixed_traced(report: Report, deployment: Deployment,
                        nominal: list[Request]) -> None:
    port = deployment.server.port
    untraced = run_open_loop(port, nominal, connections=2)
    count_phase(report, "nominal", untraced)
    tracer = Tracer()
    traced = run_open_loop(port, nominal, connections=2, tracer=tracer)
    count_phase(report, "nominal traced", traced)
    check_deterministic(report, untraced + traced)
    _check_cold_sample(report, deployment, untraced)
    scraped = scrape_metrics(port)
    submitted = scraped["repro_coalescer_submitted_total"]
    dispatches = scraped["repro_coalescer_dispatches_total"]
    report.metric("service.coalesce_items_per_dispatch",
                  submitted / max(1.0, dispatches), "items/dispatch",
                  int(dispatches))
    report.metric("service.rejected_503",
                  scraped["repro_coalescer_rejected_total"], "count", 1)
    for path in ("prefix", "cold"):
        report.metric(f"service.select_path_{path}",
                      scraped[f'repro_select_requests_total{{path="{path}"}}'],
                      "count", 1)
    deployment.server.stop()

    # Timings are the median of two passes; each pass also checks its
    # QueryService bodies against the bytes the server sent.
    served = {o.request.key: o.body for o in untraced
              if o.ok and o.request.kind != "healthz"}
    replayed = nominal[:REPLAY_REQUESTS]
    passes = [
        _service_replay(report, deployment.root, replayed, Tracer(), served)
        for _ in range(2)
    ]
    report_passes(report, passes)
    for kind in ("select", "spread", "predict"):
        http_ms = percentile([o.latency * 1000 for o in untraced
                              if o.request.kind == kind and o.ok], 0.5)
        service_ms = report.metrics[f"service.{kind}_ms"][0]
        report.metric(f"http.{kind}_overhead_ms", http_ms - service_ms, "ms",
                      1)
    report.metric("client.lateness_p90_ms",
                  percentile([o.lateness * 1000 for o in untraced], 0.9),
                  "ms", len(untraced))
    posts = [o for o in untraced if o.request.method == "POST" and o.ok]
    traced_posts = [o for o in traced if o.request.method == "POST" and o.ok]
    report.metric(
        "trace.overhead_ratio",
        median([o.latency for o in traced_posts])
        / median([o.latency for o in posts]),
        "ratio", len(traced_posts),
    )


def _service_replay(report: Report, store_root: Path,
                    requests: list[Request], tracer: Tracer,
                    served: dict[str, bytes]) -> dict:
    """Replay requests against an in-process QueryService and its layers.

    Each request is answered by the public ``QueryService`` method, whose
    body must equal the bytes the server sent for the same request.
    Then each request is answered again by the layer call underneath
    it: the prefix slice for /select, the CD evaluator for /spread and
    CD /predict, ``spread_many`` for IC/LT /predict.
    """
    from repro.runtime.estimator import SpreadEstimator
    from repro.store import ArtifactStore
    from repro.store.prefix import bind_selector, load_prefix, selection_at
    from repro.store.service import QueryService
    from repro.store.warm import load_context_record, load_serving_context
    from repro.utils.rng import derive_seed

    store = ArtifactStore(str(store_root), create=False)
    for _ in range(5):
        with tracer.span("store.load_context_record"):
            record = load_context_record(store)
    for _ in range(3):
        with tracer.span("store.load_serving_context"):
            context = load_serving_context(store, record)
    evaluator = context.cd_evaluator()
    prefix = load_prefix(store, record, "cd",
                         bind_selector(context, "cd").params)
    # Built as the service's slots build them, so the replay evaluates
    # the same Monte-Carlo streams.
    estimators = {
        method: SpreadEstimator(
            context.graph, edge_values, model=model,
            num_simulations=context.num_simulations,
            seed=derive_seed(context.seed, "predict", method),
            backend=context.backend,
        )
        for method, edge_values, model in (
            ("IC", context.ic_probabilities("EM"), "ic"),
            ("LT", context.lt_weights(), "lt"),
        )
    }
    service = QueryService(str(store_root))
    handlers = {"select": service.select, "spread": service.spread,
                "predict": service.predict,
                "healthz": lambda _payload: service.healthz()}
    handlers["healthz"](None)
    differing = []
    for request in requests:
        with tracer.span(f"service.{request.kind}"):
            body = handlers[request.kind](request.payload)
        expected = served.get(request.key)
        if expected is not None and expected != json.dumps(
                body, sort_keys=True).encode("utf-8"):
            differing.append(request.key)
    report.check(not differing, "in-process QueryService bodies differ "
                 f"from the served ones: {sorted(set(differing))[:5]}")
    counts = {}
    for request in requests:
        payload = request.payload
        if request.kind == "select":
            with tracer.span("store.prefix.selection_at"):
                selection_at(prefix, payload["k"])
        elif request.kind == "spread" or (
            request.kind == "predict" and payload["method"] == "CD"
        ):
            with tracer.span("core.cd_spread"):
                evaluator.spread(payload["seeds"])
        elif request.kind == "predict":
            with tracer.span("runtime.spread_many"):
                estimators[payload["method"]].spread_many([payload["seeds"]])
    counts["service.replay_select_path_prefix"] = (
        service.healthz()["select_paths"]["prefix"])
    counts["store.entries"] = len(store.entries())
    counts["store.bundle_bytes"] = store.size_bytes()

    def ms(name: str) -> float:
        return median(tracer.durations(name)) * 1000

    return {
        "counts": counts,
        "times": {
            "service.select_ms": ms("service.select"),
            "service.spread_ms": ms("service.spread"),
            "service.predict_ms": ms("service.predict"),
            "service.healthz_ms": ms("service.healthz"),
            "store.prefix.selection_at_ms": ms("store.prefix.selection_at"),
            "core.cd_spread_ms": ms("core.cd_spread"),
            "runtime.spread_many_ms": ms("runtime.spread_many"),
            "store.load_context_record_ms": ms("store.load_context_record"),
            "store.load_serving_context_s":
                ms("store.load_serving_context") / 1000,
        },
    }


# ----------------------------------------------------------------------
# ingest_live
# ----------------------------------------------------------------------
def ingest_chain(report: Report, deployment: Deployment, seconds: int,
                 rng: random.Random, tracer: Tracer | None = None,
                 growth: list | None = None):
    """Chained /ingest deltas on one connection, reads on the other.

    The deltas are spread over ``seconds``; the reads run open loop for
    ``seconds`` and until the last delta is served.  The reference work
    is timed before the first delta and after each one returns.
    """
    port = deployment.server.port
    # Evenly spaced: with Poisson arrivals, how many reads landed inside
    # a derive depended on the seed, and moved the ingest median by up to
    # a fifth between seeds.
    reads = schedule(rng, READ_RPS, 600.0, READ_MIX, deployment.pool,
                     poisson=False)
    jobs: list[dict] = []
    ingest_s: list[float] = []
    references: list[float] = []
    errors: list[str] = []
    finished = threading.Event()
    started = monotonic()

    def writer() -> None:
        # Each delta names the previous job's derived context: after the
        # first swap a keyless POST /ingest answers 404, because ingest
        # resolves its base through the store, not the pinned default.
        context = deployment.base_key
        slot = seconds / len(deployment.deltas)
        references.append(reference_s())
        try:
            for index, tuples in enumerate(deployment.deltas):
                # Paced: delta i is sent at i * slot (or when the previous
                # one returns, if later), so the reads see a fixed mix of
                # contended and quiet time across the run.
                delay = started + index * slot - monotonic()
                if delay > 0:
                    time.sleep(delay)
                before = 0 if growth is None else _payload_bytes(
                    deployment.root)
                payload = {"tuples": tuples, "context": context, "wait": True}
                sent = monotonic()
                with optional_span(tracer, "http.ingest"):
                    status, body, _ = http_call(port, "POST", "/ingest",
                                                payload)
                ingest_s.append(monotonic() - sent)
                references.append(reference_s())
                job = json.loads(body) if status == 200 else {
                    "status": f"http {status}", "error": body[:200]}
                jobs.append(job)
                if job.get("status") != "done":
                    errors.append(f"ingest job ended {job.get('status')}: "
                                  f"{job.get('error')}")
                    return
                context = job["derived"]
                if growth is not None:
                    growth.append(_payload_bytes(deployment.root) - before)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            errors.append(f"ingest transport error: {exc}")
        finally:
            finished.set()

    thread = threading.Thread(target=writer)
    thread.start()
    outcomes = run_open_loop(
        port, reads, connections=1, tracer=tracer,
        stop=lambda: finished.is_set() and monotonic() - started >= seconds,
    )
    thread.join()
    report.attempted += len(deployment.deltas)
    report.failed += len(deployment.deltas) - sum(
        1 for job in jobs if job.get("status") == "done")
    for error in errors:
        report.check(False, error)
    return outcomes, jobs, ingest_s, references


def _payload_bytes(root: Path) -> int:
    """Store payload bytes on disk (manifests carry timestamps; skipped)."""
    return sum(path.stat().st_size for path in root.rglob("*.bin"))


def ingest_live(report: Report, workdir: Path, seed: int,
                seconds: int) -> None:
    kinds = ("select", "spread")
    deployment = deploy(report, workdir, ingest=True, kinds=kinds)
    rng = random.Random(seed * 7919 + 2)
    try:
        outcomes, jobs, ingest_s, references = ingest_chain(
            report, deployment, seconds, rng)
        count_phase(report, "ingest reads", outcomes)
        report.note(f"phase ingest writes: sent {len(ingest_s)} succeeded "
                    f"{sum(1 for j in jobs if j.get('status') == 'done')}; "
                    f"seconds {[round(x, 3) for x in ingest_s]}")
        check_deterministic(report, outcomes)
        _check_union(report, deployment, jobs)
        if report.trace:
            _ingest_live_traced(report, workdir, deployment, seed, seconds,
                                outcomes, jobs, ingest_s)
            return
        # Reads beside a running derive wait on the server's interpreter
        # lock; their latencies swing far more between runs than any bound
        # allows, so they are printed, not gated.
        latency_metrics(report, outcomes, kinds + ("healthz",), seconds)
        report.metric("wall_latency_p50_ms", median(ingest_s) * 1000, "ms",
                      len(ingest_s))
        report.metric("latency_p50_ms",
                      scaled(median(ingest_s), references) * 1000, "ms",
                      len(ingest_s))
        report.metric("host_reference_ms", median(references) * 1000, "ms",
                      len(references))
        report.metric("peak_rss_mb", deployment.server.peak_rss_mb(), "MB", 1)
    finally:
        deployment.server.stop()


def _check_union(report: Report, deployment: Deployment, jobs) -> None:
    """After the last delta, served cd equals a cold cd over the union."""
    from repro.api import SelectionContext
    from repro.store.prefix import bind_selector

    if len(jobs) != len(deployment.deltas) or not jobs:
        report.check(False, "not every ingest job finished")
        return
    served = answered(deployment.server.port, "POST", "/select",
                      {"selector": "cd", "k": K_MAX})
    report.check(served["context"] == jobs[-1]["derived"],
                 "the served default is not the last derived context")
    dataset = deployment.dataset
    context = SelectionContext(dataset.graph, dataset.log, seed=STORE_SEED,
                               backend="numpy")
    cold = bind_selector(context, "cd").select(context, K_MAX)
    report.check(served["selection"]["seeds"] == list(cold.seeds),
                 "served cd after the last delta differs from a cold cd "
                 "selection over the union log")


def _ingest_live_traced(report: Report, workdir: Path, deployment, seed,
                        seconds, untraced_outcomes, untraced_jobs,
                        untraced_ingest_s) -> None:
    deployment.server.stop()
    root = workdir / "store-traced"
    base, deltas = split_actions(deployment.dataset.log)
    key = build_store(root, deployment.dataset.graph, base)
    traced_deployment = Deployment(root, Server(root), deployment.pool,
                                   deployment.dataset, deltas, key)
    tracer = Tracer()
    growth: list[int] = []
    try:
        warm_up(traced_deployment.server.port, deployment.pool,
                ("select", "spread"))
        rng = random.Random(seed * 7919 + 2)
        outcomes, jobs, ingest_s, _references = ingest_chain(
            report, traced_deployment, seconds, rng, tracer=tracer,
            growth=growth)
        count_phase(report, "ingest reads traced", outcomes)
        check_deterministic(report, outcomes)
        _check_union(report, traced_deployment, jobs)
    finally:
        traced_deployment.server.stop()
    derived = [job.get("derived") for job in untraced_jobs]
    report.check([job.get("derived") for job in jobs] == derived,
                 "the traced ingest chain derived other contexts than the "
                 "untraced one")
    report.metric("store.bytes_written", median(growth), "bytes", len(growth))
    report.metric("client.lateness_p90_ms",
                  percentile([o.lateness * 1000 for o in untraced_outcomes],
                             0.9), "ms", len(untraced_outcomes))
    report.metric("trace.overhead_ratio",
                  median(ingest_s) / median(untraced_ingest_s), "ratio",
                  len(ingest_s))
    passes = []
    for index in range(2):
        replay_root = workdir / f"store-replay-{index}"
        build_store(replay_root, deployment.dataset.graph, base)
        passes.append(_stream_replay(report, replay_root,
                                     deltas[:REPLAY_DELTAS], Tracer(),
                                     derived))
    report_passes(report, passes)


def _stream_replay(report: Report, root: Path, deltas, tracer: Tracer,
                   derived: list[str]) -> dict:
    """Replay the ingest chain in process, one public call per span.

    Each delta must derive the context the server derived for it
    (``derived``).  ``derive_bundle`` does the whole ingest; the apply,
    fold and prefix refresh it contains are also timed on their own, so
    a pass does that work twice.
    """
    from repro.store import ArtifactStore
    from repro.store.prefix import refresh_prefixes
    from repro.store.service import QueryService
    from repro.store.warm import load_context_record, load_serving_context
    from repro.stream.delta import ActionLogDelta, apply_delta
    from repro.stream.derive import derive_bundle, load_base_state
    from repro.stream.update import fold_delta

    store = ArtifactStore(str(root), create=False)
    service = QueryService(str(root))
    key = load_context_record(store)["context_key"]
    counts = {"stream.relearned": 0}
    growth = []
    for index, tuples in enumerate(deltas):
        delta = ActionLogDelta()
        for user, action, at in tuples:
            delta.add(user, action, at)
        for action in delta.actions():
            delta.close(action)
        with tracer.span("store.load_context_record"):
            record = load_context_record(store, key)
        context, stats, pending = load_base_state(store, record)
        with tracer.span("stream.apply_delta"):
            apply_delta(context.train_log, delta, pending)
        with tracer.span("stream.fold_delta"):
            fold_delta(context, delta, pending=pending, stats=stats)
        before = _payload_bytes(root)
        with tracer.span("stream.derive_bundle"):
            result = derive_bundle(store, delta, record=record)
        growth.append(_payload_bytes(root) - before)
        counts["stream.relearned"] += len(result.report.relearned)
        with tracer.span("store.prefix.refresh"):
            refresh_prefixes(store, result.record, result.context)
        with tracer.span("store.load_serving_context"):
            load_serving_context(store, result.record)
        with tracer.span("service.healthz"):
            service.healthz()
        report.check(result.derived_key == derived[index],
                     f"replayed delta {index} derived {result.derived_key}, "
                     f"the server {derived[index]}")
        key = result.derived_key
    counts["store.entries"] = len(store.entries())
    counts["store.bundle_bytes"] = store.size_bytes()
    counts["store.replay_bytes_written"] = median(growth)

    def seconds(name: str) -> float:
        return median(tracer.durations(name))

    return {
        "counts": counts,
        "times": {
            "stream.apply_delta_ms": seconds("stream.apply_delta") * 1000,
            "stream.fold_delta_s": seconds("stream.fold_delta"),
            "stream.derive_bundle_s": seconds("stream.derive_bundle"),
            "store.prefix.refresh_s": seconds("store.prefix.refresh"),
            "store.load_context_record_ms":
                seconds("store.load_context_record") * 1000,
            "store.load_serving_context_s":
                seconds("store.load_serving_context"),
            "service.healthz_ms": seconds("service.healthz") * 1000,
        },
    }
