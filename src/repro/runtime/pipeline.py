"""The stage-graph experiment runtime both protocols compile into.

The paper's evaluation is two protocols over one pipeline shape:

* **selection** (Figures 6-9): ``dataset → split → learn → select →
  evaluate`` — pick seeds with every configured selector, score the
  k-grid prefixes under the CD proxy (an ``ingest`` stage slots in
  after ``learn`` when ``config.delta`` names an action-log delta —
  see :mod:`repro.stream`);
* **prediction** (Figures 2-4): ``dataset → split → learn → predict →
  evaluate`` — fit every model on the training traces, predict each
  held-out trace's spread from its initiators, score the predictions.

:func:`compile_pipeline` turns an
:class:`~repro.api.experiment.ExperimentConfig` into the stage list for
its ``task``; :func:`execute_pipeline` runs the stages, timing each one
into ``ExperimentResult.timings`` (``<stage>_s`` keys).

Parallelism.  Each stage dispatches its independent units through the
experiment's :class:`~repro.runtime.executor.Executor` — (selector,
trial) cells in ``select``, per-run k-grid scoring in ``evaluate``,
(method, trace-chunk) tasks in ``predict`` — and the selectors
themselves thread the executor into the greedy/CELF candidate sweeps
and :class:`~repro.runtime.estimator.SpreadEstimator` world ranges.  Every
unit draws its randomness from label-derived seeds and every reduction
happens in submission order, so ``serial``/``thread``/``process`` runs
are bit-identical (``tests/test_runtime_parallel.py``).

The ``learn`` stage is where the registry's capability flags become
load-bearing, through :meth:`~repro.api.registry.Selector.reads` (the
artifact slots a bound selector reads).  Before anything runs, a
context without a training log is checked against every slot the
selectors and the CD-proxy evaluation read, raising
:class:`~repro.utils.validation.ConfigError` up front for one that
needs the log.  Under a parallel executor the same slots
(:func:`repro.store.warm.required_artifacts`) are *prefetched*, so
worker tasks only read the shared artifacts instead of racing to build
them (or, under the process executor, rebuilding them per task and
throwing the result away).  What a single cell reads alone — a
per-trial sketch batch or Monte-Carlo oracle — the cell builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api.context import GRAPH_ONLY_ARTIFACTS, SelectionContext
from repro.api.experiment import (
    ExperimentConfig,
    ExperimentResult,
    SelectorRun,
    _make_dataset,
)
from repro.api.registry import bind_selector, get_selector
from repro.data.split import train_test_split
from repro.evaluation.prediction import PredictionExperiment, held_out_traces
from repro.obs import trace as obs_trace
from repro.obs.metrics import default_registry
from repro.runtime.executor import Executor, as_executor, split_chunks
from repro.utils.timing import Timer
from repro.utils.validation import ConfigError, require_config

__all__ = [
    "Stage",
    "PipelineState",
    "compile_pipeline",
    "execute_pipeline",
]


# ----------------------------------------------------------------------
# Worker task functions (module-level: picklable for the process executor)
# ----------------------------------------------------------------------
def _select_chunk(payload: tuple) -> list:
    """Run a chunk of (selector, trial) cells against the shared context.

    Cells are chunked so the (large, prefetched) context is pickled
    once per worker task rather than once per cell; each cell's result
    is a pure function of the cell, so chunking never changes it.
    """
    import repro.api.adapters  # noqa: F401  (populate the registry in workers)

    context, k, cells = payload
    return [
        get_selector(name, **params).select(context, k)
        for name, params in cells
    ]


def _evaluate_chunk(payload: tuple) -> list[list[float]]:
    """CD-proxy spreads of a chunk of runs' k-grid seed prefixes."""
    evaluator, runs_seed_sets = payload
    return [
        [evaluator.spread(seeds) for seeds in seed_sets]
        for seed_sets in runs_seed_sets
    ]


def _predict_chunk(payload: tuple) -> list[float]:
    """One predictor over a chunk of test-trace seed sets."""
    predictor, seed_sets = payload
    return [predictor.spread(list(seeds)) for seeds in seed_sets]


# ----------------------------------------------------------------------
# Pipeline state and stages
# ----------------------------------------------------------------------
@dataclass
class PipelineState:
    """Everything the stages read and write."""

    config: ExperimentConfig
    executor: Executor
    result: ExperimentResult
    dataset: Any | None = None
    context: SelectionContext | None = None
    train_log: Any | None = None
    test_log: Any | None = None
    # Held-out traces as (initiator seed set, actual spread) pairs, and
    # per-method raw predictions aligned with them.
    traces: list[tuple[tuple, float]] = field(default_factory=list)
    predictions: dict[str, list[float]] = field(default_factory=dict)


@dataclass(frozen=True)
class Stage:
    """One named step of the compiled pipeline."""

    name: str
    run: Callable[[PipelineState], None]


def _stage_dataset(state: PipelineState) -> None:
    if state.dataset is None:
        state.dataset = _make_dataset(state.config)
    state.result.dataset_name = state.dataset.name


def _stage_split(state: PipelineState) -> None:
    config = state.config
    log = state.dataset.log
    if config.split:
        state.train_log, state.test_log = train_test_split(
            log, every=config.split_every
        )
    else:
        state.train_log = log


def _make_context(state: PipelineState) -> SelectionContext:
    config = state.config
    return SelectionContext(
        state.dataset.graph,
        state.train_log,
        probability_method=config.probability_method,
        num_simulations=config.num_simulations,
        truncation=config.truncation,
        seed=config.seed,
        backend=config.backend,
        executor=state.executor,
    )


def _validate_entries(config: ExperimentConfig,
                      context: SelectionContext) -> None:
    """Reject, up front, a read a context without a log cannot serve.

    Such a context serves the slots it holds (a stored bundle's, say)
    and builds only the :data:`GRAPH_ONLY_ARTIFACTS`.
    """
    if context.train_log is not None:
        return
    servable = set(GRAPH_ONLY_ARTIFACTS) | set(context.artifact_names())
    readers = [
        (f"selector {entry.display()!r}",
         get_selector(entry.name, **entry.params).reads(context))
        for entry in config.selectors
    ]
    if config.evaluate_spread:
        readers.append(("evaluate_spread", ["cd_evaluator"]))
    for reader, reads in readers:
        missing = [name for name in reads if name not in servable]
        verb = "needs" if len(missing) == 1 else "need"
        require_config(
            not missing,
            f"{reader} reads {', '.join(missing)}, which {verb} a "
            "training action log, but the context was built without one",
        )


def _prefetch_artifacts(config: ExperimentConfig,
                        context: SelectionContext) -> None:
    """Build every shared slot the run reads once, in the parent.

    Under the thread executor this keeps worker cells read-only over
    the shared artifacts; under the process executor it is what makes
    the fan-out profitable at all — a worker's lazily built artifact
    dies with the worker.
    """
    from repro.store.warm import required_artifacts

    for name in required_artifacts(config, context):
        context.build_artifact(name)


def _consult_store(state: PipelineState) -> None:
    """Warm-start the context from the configured artifact store.

    Runs before any fan-out: stored artifacts for this (dataset
    fingerprint, split spec, learn spec) are injected into the shared
    context (hit), everything else the config's selectors/methods need
    is built through the context's own lazy accessors (miss → learn)
    and saved back.  On a full hit the learn functions never run — the
    warm run's artifacts are the *same bytes* the cold run produced, so
    results are identical on every executor.  Corrupt store entries
    warn and fall back to re-learning.
    """
    from repro.store.store import ArtifactStore
    from repro.store.warm import required_artifacts, warm_start

    config = state.config
    context = state.context
    split = None
    dataset = state.dataset if state.train_log is not None else None
    if dataset is not None:
        split = (
            {"split": True, "every": config.split_every}
            if config.split
            else {"split": False}
        )
    state.result.store_events = warm_start(
        ArtifactStore(config.store),
        context,
        required_artifacts(config, context),
        consult=config.warm_start,
        dataset=dataset,
        split=split,
        dataset_name=state.result.dataset_name,
    )


def _stage_learn_selection(state: PipelineState) -> None:
    if state.context is None:
        state.context = _make_context(state)
    _validate_entries(state.config, state.context)
    if state.config.store is not None:
        _consult_store(state)
    if state.executor.is_parallel:
        _prefetch_artifacts(state.config, state.context)


def _stage_ingest(state: PipelineState) -> None:
    """Fold the config's action-log delta into the learned context.

    Runs between ``learn`` and ``select`` when ``config.delta`` names a
    delta file: selection then operates over the *union* log with
    incrementally maintained artifacts (see :mod:`repro.stream`).  With
    a store configured the fold goes through ``derive_bundle``, so the
    derived bundle — lineage link and all — is committed as a side
    effect and later warm runs over the union hit it.
    """
    from repro.stream.delta import load_action_log_delta

    config = state.config
    delta = load_action_log_delta(config.delta)
    if config.store is not None:
        from repro.store.store import ArtifactStore
        from repro.stream.derive import derive_bundle

        result = derive_bundle(
            ArtifactStore(config.store),
            delta,
            context=state.result.store_events["context_key"],
            dataset_name=state.result.dataset_name,
        )
        context = result.context
        state.result.ingest = result.to_dict()
    else:
        from repro.stream.update import fold_delta

        fold = fold_delta(state.context, delta)
        context = fold.context
        state.result.ingest = fold.report.to_dict()
    context.executor = state.executor
    state.context = context
    state.train_log = context.train_log
    if state.executor.is_parallel:
        _prefetch_artifacts(config, context)


def _stage_select(state: PipelineState) -> None:
    config = state.config
    context = state.context
    k_max = config.ks[-1]
    bound = [
        (
            entry.display(),
            trial,
            bind_selector(
                context, entry.name, entry.params, trial, config.budget
            ),
        )
        for entry in config.selectors
        for trial in range(config.trials)
    ]
    executor = state.executor
    if executor.is_parallel and len(bound) > 1:
        chunks = split_chunks(bound, executor.workers())
        payloads = [
            (
                context,
                k_max,
                [(selector.spec.name, selector.params)
                 for _, _, selector in chunk],
            )
            for chunk in chunks
        ]
        selections = [
            selection
            for chunk_result in executor.map(_select_chunk, payloads)
            for selection in chunk_result
        ]
    else:
        selections = [
            selector.select(context, k_max) for _, _, selector in bound
        ]
    for (label, trial, _), selection in zip(bound, selections):
        state.result.runs.append(
            SelectorRun(label=label, trial=trial, selection=selection)
        )


def _stage_evaluate_selection(state: PipelineState) -> None:
    config = state.config
    evaluator = state.context.cd_evaluator()
    runs = state.result.runs
    per_run_seed_sets = [
        [run.selection.seeds_at(k) for k in config.ks] for run in runs
    ]
    executor = state.executor
    if executor.is_parallel and len(runs) > 1:
        chunks = split_chunks(per_run_seed_sets, executor.workers())
        spreads_per_run = [
            spreads
            for chunk_result in executor.map(
                _evaluate_chunk, [(evaluator, chunk) for chunk in chunks]
            )
            for spreads in chunk_result
        ]
    else:
        spreads_per_run = _evaluate_chunk((evaluator, per_run_seed_sets))
    for run, spreads in zip(runs, spreads_per_run):
        run.curve = list(zip(config.ks, spreads))


def _stage_learn_prediction(state: PipelineState) -> None:
    state.context = _make_context(state)
    if state.config.store is not None:
        _consult_store(state)
    # Build every model here, in the parent: learning is timed as
    # learn_s, and the predict fan-out only reads cached models.
    for method in state.config.methods:
        state.context.predictor(method)


def _stage_predict(state: PipelineState) -> None:
    traces = held_out_traces(
        state.dataset.graph, state.test_log, state.config.max_test_traces
    )
    state.traces = traces
    seed_sets = [seeds for seeds, _ in traces]
    executor = state.executor
    tasks: list[tuple[str, tuple]] = []
    for method in state.config.methods:
        predictor = state.context.predictor(method)
        chunks = (
            split_chunks(seed_sets, executor.workers())
            if executor.is_parallel and len(seed_sets) > 1
            else [seed_sets]
        )
        tasks.extend((method, (predictor, chunk)) for chunk in chunks)
    if executor.is_parallel and len(tasks) > 1:
        outputs = executor.map(_predict_chunk, [p for _, p in tasks])
    else:
        outputs = [_predict_chunk(payload) for _, payload in tasks]
    predictions: dict[str, list[float]] = {
        method: [] for method in state.config.methods
    }
    for (method, _), chunk_output in zip(tasks, outputs):
        predictions[method].extend(chunk_output)
    state.predictions = predictions


def _stage_evaluate_prediction(state: PipelineState) -> None:
    state.result.prediction = PredictionExperiment.from_predictions(
        state.traces, state.predictions
    )


# ----------------------------------------------------------------------
# Compilation and execution
# ----------------------------------------------------------------------
def compile_pipeline(
    config: ExperimentConfig,
    have_dataset: bool = False,
    have_context: bool = False,
) -> list[Stage]:
    """The stage list ``config.task`` compiles into.

    ``have_dataset``/``have_context`` mirror the ``run_experiment``
    arguments: a pre-built context makes the dataset/split stages
    unnecessary for the selection task (its graph/log are
    authoritative), and is rejected for the prediction task, which
    needs the raw dataset to hold out test traces.
    """
    if config.task == "prediction":
        require_config(
            not have_context,
            "the prediction task re-splits the raw dataset into "
            "train/test traces; pass dataset=, not context=",
        )
        return [
            Stage("dataset", _stage_dataset),
            Stage("split", _stage_split),
            Stage("learn", _stage_learn_prediction),
            Stage("predict", _stage_predict),
            Stage("evaluate", _stage_evaluate_prediction),
        ]
    stages: list[Stage] = []
    if not have_context:
        stages.append(Stage("dataset", _stage_dataset))
        stages.append(Stage("split", _stage_split))
    stages.append(Stage("learn", _stage_learn_selection))
    if config.delta is not None:
        stages.append(Stage("ingest", _stage_ingest))
    stages.append(Stage("select", _stage_select))
    if config.evaluate_spread:
        stages.append(Stage("evaluate", _stage_evaluate_selection))
    return stages


def execute_pipeline(
    config: ExperimentConfig,
    dataset=None,
    context: SelectionContext | None = None,
) -> ExperimentResult:
    """Compile ``config`` into stages and run them, timing each.

    This is the engine behind :func:`repro.api.run_experiment`; see
    there for the argument contract.
    """
    executor = as_executor(config.executor, config.max_workers)
    result = ExperimentResult(config=config, dataset_name="")
    state = PipelineState(
        config=config, executor=executor, result=result, dataset=dataset,
    )
    if context is not None:
        if config.task == "prediction":
            raise ConfigError(
                "the prediction task re-splits the raw dataset into "
                "train/test traces; pass dataset=, not context="
            )
        state.context = context
        result.dataset_name = dataset.name if dataset is not None else "context"
    # Tracing: honor an already-active trace (e.g. `repro trace`), else
    # let REPRO_TRACE opt a run in.  Spans are out-of-band — they never
    # touch RNG state or results — so traced and untraced runs stay
    # bit-identical (the obs parity tests pin this).
    own_trace = None
    if obs_trace.current_trace() is None:
        own_trace = obs_trace.trace_from_env()
    activation = own_trace.activate() if own_trace is not None else None
    stage_gauge = default_registry().gauge(
        "repro_stage_seconds",
        "Duration of the last run of each pipeline stage",
        ("stage",),
    )
    try:
        if activation is not None:
            activation.__enter__()
        with obs_trace.span(
            "pipeline.run",
            task=config.task,
            dataset=config.dataset,
            backend=config.backend or "auto",
            executor=executor.kind,
        ):
            for stage in compile_pipeline(config, dataset is not None,
                                          context is not None):
                with obs_trace.span(f"pipeline.{stage.name}"):
                    with Timer() as timer:
                        stage.run(state)
                result.timings[f"{stage.name}_s"] = timer.elapsed
                stage_gauge.set(timer.elapsed, stage=stage.name)
        active = obs_trace.current_trace()
        if active is not None:
            result.trace = active.to_dict()
    finally:
        if activation is not None:
            activation.__exit__(None, None, None)
        # The pipeline owns this executor (built from the config above);
        # release its worker pool.  A retained reference transparently
        # respawns the pool on the next parallel map.
        executor.close()
    return result
