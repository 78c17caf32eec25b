"""The pipeline_select program process: one fresh interpreter per run.

Run by ``perfbench/pipeline.py`` with the scrubbed environment; prints
one JSON object as its last stdout line.

``--mode untraced --seconds S``: until S seconds have passed (at least
MIN_CALLS times), build the dataset (set-up) and time one
``run_experiment`` call on that fresh build, so every call pays what a
researcher's call on a new data set pays.  The reference work is timed
before the first build and after every call.

``--mode traced`` makes TRACED_PASSES such calls and records, in each,
the sketch batches the program builds and the cd selection's oracle
calls (the work counters), then replays the same work as often, each
time on a fresh build, through the layers' public functions with a
span around each call (the timings).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    Tracer,
    median,
    monotonic,
    peak_rss_mb,
    recorded_calls,
    reference_s,
)

# The small preset: one call takes under a second, so a run holds a few
# dozen calls and reports their median.  On "large" one call takes 17 s
# after a 5 s build, a run holds one, and over ten seeds its spread
# stayed above a third of the bound.
SCALE = "small"
KS = [1, 5, 10, 15, 20, 25]
SKETCHES = 2000
MIN_CALLS = 5
TRACED_PASSES = 3
SELECTORS = [
    {"name": "cd", "params": {}},
    {"name": "ris", "params": {"num_rr_sets": SKETCHES}},
    {"name": "hop", "params": {"num_sketches": SKETCHES}},
]


def build_dataset():
    from repro.data.datasets import flixster_like

    return flixster_like(SCALE)


def experiment_config(seed: int):
    from repro.api import ExperimentConfig

    return ExperimentConfig(
        dataset="flixster",
        scale=SCALE,
        selectors=SELECTORS,
        ks=KS,
        seed=seed,
        backend="numpy",
    )


def outputs_of(result) -> dict:
    """Seeds and CD-proxy curves per selector label."""
    return {
        run.label: {
            "seeds": list(run.selection.seeds),
            "curve": [[k, spread] for k, spread in run.curve],
        }
        for run in result.runs
    }


def experiment(dataset, config, counted: bool) -> dict:
    """One timed ``run_experiment`` call; with ``counted``, its work too.

    The counters are what the program did inside the call: members of
    the sketch batches it built (distinct batches; a cached batch counts
    once) and the cd selector's oracle calls.
    """
    from repro.api import SelectionContext, run_experiment
    from repro.runtime.executor import as_executor

    watched = (recorded_calls(SelectionContext, "sketches") if counted
               else nullcontext())
    with watched as sketches:
        started = monotonic()
        result = run_experiment(config, dataset=dataset)
        elapsed = monotonic() - started
    call = {
        "experiment_s": elapsed,
        "outputs": outputs_of(result),
        "environment": {
            "backend": result.config.backend,
            "executor": as_executor(result.config.executor).kind,
        },
    }
    if counted:
        batches = {id(batch): batch for _args, batch in sketches}
        oracle = [run.selection.oracle_calls for run in result.runs
                  if run.label == "cd"]
        call["counts"] = {
            "core.sketch.members": sum(
                batch.total_members for batch in batches.values()),
            "maximization.cd_oracle_calls": int(oracle[0]),
        }
    return call


def replay(dataset, config, tracer: Tracer) -> tuple[float, dict]:
    """The selection pipeline's work, one public call per span.

    Mirrors ``run_experiment``: the same split, context parameters,
    per-trial seed injection and k-grid scoring, so the seeds and curves
    must come out identical.
    """
    from repro.api import SelectionContext
    from repro.data.split import train_test_split
    from repro.runtime.executor import as_executor
    from repro.store.prefix import bind_selector

    started = monotonic()
    train, _test = train_test_split(dataset.log, every=config.split_every)
    context = SelectionContext(
        dataset.graph,
        train,
        probability_method=config.probability_method,
        num_simulations=config.num_simulations,
        truncation=config.truncation,
        seed=config.seed,
        backend=config.backend,
        executor=as_executor(config.executor),
    )
    k_max = config.ks[-1]
    with tracer.span("kernels.compiled_log"):
        context.compiled_log()
    with tracer.span("probabilities.em"):
        context.ic_probabilities("EM")
    with tracer.span("core.influence_params"):
        context.influence_params()
    with tracer.span("core.credit_index"):
        context.credit_index()
    with tracer.span("core.cd_evaluator_build"):
        evaluator = context.cd_evaluator()
    selections = {}
    for entry in config.selectors:
        selector = bind_selector(context, entry.name, entry.params)
        params = selector.params
        if selector.spec.needs_sketches:
            # The exact arguments the ris/hop adapters pass, so the
            # selection below finds the batch in the context's cache.
            with tracer.span("core.sketch.generate"):
                context.sketches(
                    method=params.get("method"),
                    num_sketches=params.get(
                        "num_rr_sets", params.get("num_sketches", 10_000)
                    ),
                    hops=params.get(
                        "hops", 2 if entry.name == "hop" else None
                    ),
                    seed=params.get("seed"),
                )
        with tracer.span(f"maximization.{entry.name}"):
            selections[entry.display()] = selector.select(context, k_max)
    outputs = {}
    for label, selection in selections.items():
        curve = []
        for k in config.ks:
            seeds = selection.seeds_at(k)
            with tracer.span("core.cd_spread"):
                curve.append([k, evaluator.spread(seeds)])
        outputs[label] = {"seeds": list(selection.seeds), "curve": curve}
    return monotonic() - started, outputs


def layer_times(tracer: Tracer) -> dict[str, float]:
    """Per-layer seconds (sums) and per-call spread ms."""
    def total(name: str) -> float:
        return sum(tracer.durations(name))

    return {
        "kernels.compiled_log_s": total("kernels.compiled_log"),
        "probabilities.em_s": total("probabilities.em"),
        "core.influence_params_s": total("core.influence_params"),
        "core.credit_index_s": total("core.credit_index"),
        "core.cd_evaluator_build_s": total("core.cd_evaluator_build"),
        "core.sketch.generate_s": total("core.sketch.generate"),
        "maximization.cd_s": total("maximization.cd"),
        "maximization.ris_s": total("maximization.ris"),
        "maximization.hop_s": total("maximization.hop"),
        "core.cd_spread_ms": median(tracer.durations("core.cd_spread")) * 1000,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("untraced", "traced"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    config = experiment_config(args.seed)
    traced = args.mode == "traced"
    build_s, calls = [], []
    started = monotonic()

    def another_call() -> bool:
        if traced:
            return len(calls) < TRACED_PASSES
        return len(calls) < MIN_CALLS or monotonic() - started < args.seconds

    references = [reference_s()]
    while another_call():
        dataset = None  # the previous build is freed before the next
        built = monotonic()
        dataset = build_dataset()
        build_s.append(monotonic() - built)
        calls.append(experiment(dataset, config, counted=traced))
        references.append(reference_s())
    payload = {"build_s": build_s, "calls": calls, "references": references}
    if traced:
        payload["replays"] = []
        for _ in range(TRACED_PASSES):
            dataset = None
            dataset = build_dataset()
            tracer = Tracer()
            wall, replayed = replay(dataset, config, tracer)
            payload["replays"].append({
                "wall_s": wall,
                "outputs": replayed,
                "times": layer_times(tracer),
            })
    payload["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
