"""Shared plumbing for the perfbench workloads.

Everything here is benchmark-side: environment hygiene for the program
processes, quantiles, peak-RSS reads, an in-memory span recorder, a
call recorder for work counters, the seed ledger that compares outputs
across runs, and the final result line.  Nothing in this module touches
the program's own tracing.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MANIFEST = ROOT / "BENCHMARK.json"

# Host variables that would change what is measured: backend and
# executor selection, program-internal tracing, and fault injection.
SCRUBBED_ENV = (
    "REPRO_BACKEND", "REPRO_EXECUTOR", "REPRO_TRACE", "REPRO_FAULTS",
)

monotonic = time.perf_counter

# Host-speed scaling.  The hosts this benchmark runs on are shared: the
# same work ran up to 1.5x slower for minutes at a time, on every
# workload at once.  Where the reference work below can run between a
# workload's operations, its gated times are scaled to a host on which
# that work, which shares no code with the program, takes
# REFERENCE_NOMINAL_S.  Unscaled wall times are printed next to them.
REFERENCE_NOMINAL_S = 0.020
REFERENCE_BLOCKS = 3


class CheckFailed(Exception):
    """An output check failed; the run reports ``correct: false``."""


def scrub_environment() -> None:
    """Remove the scrubbed variables from this process and its children."""
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    path = os.environ.get("PYTHONPATH", "")
    if str(SRC) not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(SRC), path) if part
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """The environment every program process starts with."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def environment_record(backend: str, executor: str) -> dict[str, object]:
    """What a result was measured with, printed next to every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is baked in
        numpy_version = None
    return {
        "backend": backend,
        "executor": executor,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def host_probe() -> tuple[float, int, int]:
    """(seconds for a fixed pure-Python loop, steal jiffies, all jiffies).

    The loop time says how fast this shared host ran around the
    measurement; steal is the time the hypervisor took the CPUs away.
    """
    timings = []
    for _ in range(3):
        started = monotonic()
        total = 0
        for i in range(300_000):
            total += i * i
        timings.append(monotonic() - started)
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:9]]
    return min(timings), fields[7], sum(fields)


def reference_block() -> float:
    """Seconds for a fixed mix of interpreter and NumPy work."""
    import numpy

    started = monotonic()
    table: dict[int, int] = {}
    for i in range(40_000):
        key = (i * 7919) % 4093
        table[key] = table.get(key, 0) + i
    values = numpy.random.default_rng(0).permutation(200_000)
    for _ in range(4):
        numpy.sort(values)
    return monotonic() - started


def reference_s() -> float:
    """How fast the host runs right now: median reference-block seconds."""
    return median(reference_block() for _ in range(REFERENCE_BLOCKS))


def scaled(seconds: float, references: list[float]) -> float:
    """``seconds`` on the nominal host, from the run's reference timings.

    One reference timing swings with the host from second to second; the
    median of those spread over the run follows the slower changes that
    move a whole run.
    """
    return seconds * REFERENCE_NOMINAL_S / median(references)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


class Tracer:
    """Benchmark-side spans: the wall seconds of each call, by name."""

    def __init__(self) -> None:
        self._durations: dict[str, list[float]] = {}

    @contextmanager
    def span(self, name: str):
        start = monotonic()
        try:
            yield
        finally:
            self._durations.setdefault(name, []).append(monotonic() - start)

    def durations(self, name: str) -> list[float]:
        return list(self._durations.get(name, ()))


def optional_span(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or nothing when the run is untraced."""
    return nullcontext() if tracer is None else tracer.span(name)


@contextmanager
def recorded_calls(cls, name: str):
    """Record every call into the program method ``cls.name``.

    While the block runs, each call (from any thread) appends
    ``(args, result)`` to the yielded list, so work counters come from
    what the program did rather than from how the benchmark drove it.
    The method is restored on exit.
    """
    original = cls.__dict__[name]
    calls: list[tuple] = []

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        calls.append((args, result))
        return result

    setattr(cls, name, wrapper)
    try:
        yield calls
    finally:
        setattr(cls, name, original)


def report_passes(report: "Report", passes: list[dict]) -> None:
    """Report traced passes: timings as their median, counts once.

    Each pass is ``{"counts": {name: value}}`` plus, on the passes that
    were timed, ``"times": {name: value}``.  Counts are work, not time,
    and must repeat exactly; a drift fails the run and names the
    counters.  Counts named ``*.replay_*`` are only checked, not
    reported.
    """
    drift = [
        name for name in passes[0]["counts"]
        if len({p["counts"][name] for p in passes}) != 1
    ]
    report.check(not drift, f"work counters drift between passes: {drift}")
    timed = [p["times"] for p in passes if "times" in p]
    for name in timed[0]:
        unit = "ms" if name.endswith("_ms") else "s"
        report.metric(name, median([times[name] for times in timed]), unit,
                      len(timed))
    for name, value in passes[0]["counts"].items():
        if ".replay_" not in name:
            unit = "bytes" if name.endswith("bytes") else "count"
            report.metric(name, value, unit, len(passes))


def digest(value) -> str:
    """A short stable digest of a JSON-representable value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=12).hexdigest()


def check_ledger(key: str, value_digest: str) -> None:
    """Compare an output digest with earlier runs of the same inputs.

    The ledger lives under the checkout's ``.perfbench`` directory, so
    runs of one workload and seed — traced or not — must agree.
    """
    path = WORK / "ledger.json"
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        ledger = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        ledger = {}
    previous = ledger.get(key)
    if previous is not None and previous != value_digest:
        raise CheckFailed(
            f"{key}: outputs differ from an earlier run with the same "
            f"inputs ({value_digest} != {previous})"
        )
    ledger[key] = value_digest
    staged = path.with_suffix(f".{os.getpid()}.tmp")
    staged.write_text(json.dumps(ledger, sort_keys=True, indent=1) + "\n")
    os.replace(staged, path)


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics the result line carries.

    ``BENCHMARK.json`` declares them: the end-to-end metrics for an
    untraced run, the per-layer metrics for a traced one.
    """
    manifest = json.loads(MANIFEST.read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in manifest["per_layer" if trace else "end_to_end"]
    }


class Report:
    """Collects metrics, sample counts and checks for one run."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.declared = declared_metrics(trace)
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.notes: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.environment: dict[str, object] = {}
        self._probe = host_probe()

    def metric(self, name: str, value: float, unit: str,
               samples: int) -> None:
        """Record a metric, printed with its sample count.

        The result line carries the metrics ``BENCHMARK.json`` declares
        for this kind of run; any other is printed only.
        """
        declared = self.declared.get(name, unit)
        if declared != unit:
            raise ValueError(f"{name} is declared in {declared}, not {unit}")
        self.metrics[name] = (float(value), unit, int(samples))

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def emit(self) -> int:
        """Print the human-readable table, then the result line."""
        mode = "traced" if self.trace else "untraced"
        loop_s, steal, jiffies = host_probe()
        self.environment["host"] = {
            "loop_ms_before": round(self._probe[0] * 1000, 2),
            "loop_ms_after": round(loop_s * 1000, 2),
            "steal_share": round(
                (steal - self._probe[1]) / max(1, jiffies - self._probe[2]), 4
            ),
        }
        if self.trace and not self.failures:
            # A layer this workload's traced passes never call did no
            # work in it: its time and counts read 0, from 0 samples.
            unused = [name for name in self.declared
                      if name not in self.metrics]
            for name in unused:
                self.metric(name, 0.0, self.declared[name], 0)
            if unused:
                self.note(f"layers not exercised (reported as 0): {unused}")
        elif not self.trace:
            # Failed over attempted operations.  It is 0 on a healthy run,
            # so the result line carries it as `failed`/`attempted`.
            self.metric("error_rate", self.failed / max(1, self.attempted),
                        "ratio", self.attempted)
        missing = [name for name in self.declared if name not in self.metrics]
        if missing and not self.failures:
            raise RuntimeError(f"declared metrics not measured: {missing}")
        print(f"# perfbench {self.workload} seed={self.seed} ({mode})")
        print("# environment " + json.dumps(self.environment, sort_keys=True))
        for line in self.notes:
            print(f"# {line}")
        width = max((len(name) for name in self.metrics), default=10)
        for name, (value, unit, samples) in self.metrics.items():
            print(f"{name:<{width}}  {value:>14.6g} {unit:<14} n={samples}")
        for failure in self.failures:
            print(f"# CHECK FAILED: {failure}")
        if missing:
            # A failed check ended the run before it measured everything.
            print(f"# not measured: {missing}")
            return 1
        correct = not self.failures
        print(json.dumps({
            "correct": correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": unit}
                for name, unit in self.declared.items()
            },
        }))
        return 0 if correct else 1
