"""pipeline_select: ``run_experiment`` selection on the small preset.

Each run starts a fresh interpreter (``pipeline_child.py``) that, for
``--seconds``, builds ``flixster_like("small")`` (set-up) and times one
``run_experiment`` call on that build with the ``cd``, ``ris`` and
``hop`` selectors over a k-grid up to 25; both figures are medians over
the run's calls.
"""

from __future__ import annotations

import json
import subprocess
import sys

from common import (
    ROOT,
    CheckFailed,
    Report,
    check_ledger,
    digest,
    environment_record,
    median,
    monotonic,
    program_env,
    report_passes,
    scaled,
)

CHILD = ROOT / "perfbench" / "pipeline_child.py"
CHILD_TIMEOUT_S = 150


def _child(mode: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(CHILD), "--mode", mode,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    completed = subprocess.run(
        command, env=program_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"pipeline child exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _check_outputs(report: Report, outputs: dict, k_max: int) -> None:
    for label, output in outputs.items():
        seeds = output["seeds"]
        report.check(
            len(seeds) == k_max and len(set(seeds)) == k_max,
            f"{label}: expected {k_max} distinct seeds, got {seeds}",
        )
        spreads = [spread for _k, spread in output["curve"]]
        report.check(
            all(b >= a for a, b in zip(spreads, spreads[1:])),
            f"{label}: spread curve decreases: {spreads}",
        )


def _ledger_key(seed: int) -> str:
    """Runs with the same seed and experiment definition must agree."""
    from pipeline_child import KS, SCALE, SELECTORS

    return f"pipeline_select:{seed}:{digest([SCALE, KS, SELECTORS])}"


def _seeds(outputs: dict) -> dict:
    return {label: output["seeds"] for label, output in outputs.items()}


def _run_child(report: Report, seed: int, seconds: int, mode: str) -> dict:
    """Run the child and check every call's outputs; returns the child."""
    from pipeline_child import KS

    try:
        child = _child(mode, seed, seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        report.attempted += 1
        report.failed += 1
        raise CheckFailed(
            f"run_experiment ({mode}) failed: {error}") from error
    calls = child["calls"]
    report.attempted += len(calls)
    first = calls[0]["outputs"]
    report.environment = environment_record(**calls[0]["environment"])
    for call in calls:
        _check_outputs(report, call["outputs"], KS[-1])
        report.check(call["outputs"] == first,
                     "outputs differ between run_experiment calls in one run")
    check_ledger(_ledger_key(seed), digest(_seeds(first)))
    return child


def run(report: Report, seed: int, seconds: int) -> None:
    if report.trace:
        _run_traced(report, seed, seconds)
        return
    child = _run_child(report, seed, seconds, "untraced")
    builds = child["build_s"]
    experiments = [call["experiment_s"] for call in child["calls"]]
    references = child["references"]
    report.metric("setup_s", scaled(median(builds), references), "s",
                  len(builds))
    report.metric("latency_p50_ms",
                  scaled(median(experiments), references) * 1000, "ms",
                  len(experiments))
    report.metric("peak_rss_mb", child["peak_rss_mb"], "MB", 1)
    report.metric("wall_setup_s", median(builds), "s", len(builds))
    report.metric("wall_latency_p50_ms", median(experiments) * 1000, "ms",
                  len(experiments))
    report.metric("host_reference_ms", median(references) * 1000, "ms",
                  len(references))


def _run_traced(report: Report, seed: int, seconds: int) -> None:
    from pipeline_child import KS

    started = monotonic()
    child = _run_child(report, seed, seconds, "traced")
    report.note(f"traced child wall {monotonic() - started:.1f}s")
    calls = child["calls"]
    replays = child["replays"]
    for replay in replays:
        _check_outputs(report, replay["outputs"], KS[-1])
        report.check(
            _seeds(replay["outputs"]) == _seeds(calls[0]["outputs"]),
            "replay seeds differ from run_experiment's",
        )
        report.check(
            replay["outputs"] == calls[0]["outputs"],
            "replay spread curves differ from run_experiment's",
        )
    # Pass i: the counters of run_experiment call i, the timings of
    # replay i.
    report_passes(report, [
        {"counts": call["counts"], "times": replay["times"]}
        for call, replay in zip(calls, replays)
    ])
    report.metric(
        "trace.overhead_ratio",
        median([replay["wall_s"] for replay in replays])
        / median([call["experiment_s"] for call in calls]),
        "ratio", len(replays),
    )
