"""Declarative experiments: config in, comparable results out.

The paper's evaluation is two protocols over one pipeline shape —
*selection* (build a dataset, split the action log, learn
probabilities/weights/credits, select seeds with each method, score
every seed set under the CD proxy; Figures 6-9) and *prediction* (fit
every model on the training traces, predict each held-out trace's
spread from its initiators, score the predictions; Figures 2-4).
:class:`ExperimentConfig` names the knobs for both (``task`` picks the
protocol) and :func:`run_experiment` compiles the config into the
:mod:`repro.runtime` stage pipeline; everything else — the CLI's
``repro run``, the comparison benchmarks, the examples — is a thin
consumer of the :class:`ExperimentResult`.

Determinism: ``ExperimentConfig.seed`` fans out through
:meth:`~repro.api.context.SelectionContext.derive_seed`, so stochastic
selectors get stable per-(selector, trial) child seeds, prediction
methods get stable per-method Monte-Carlo worlds, and the
same config always reproduces the same result on every executor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import repro.api.adapters  # noqa: F401  (ensures built-ins are registered)
from repro.api.context import (
    IC_PROBABILITY_METHODS,
    PREDICTION_ARTIFACTS,
    SelectionContext,
)
from repro.api.registry import _budget_selector_names, get_selector
from repro.api.results import SeedSelection
from repro.data.datasets import Dataset
from repro.runtime.executor import EXECUTORS
from repro.utils.validation import (
    ConfigError,
    require,
    require_config,
    require_non_negative,
)

__all__ = [
    "ConfigError",
    "SelectorConfig",
    "ExperimentConfig",
    "SelectorRun",
    "ExperimentResult",
    "run_experiment",
    "TASKS",
    "PREDICTION_METHODS",
]

_DATASETS = ("toy", "flixster", "flickr")
_SCALES = ("mini", "small", "large")

TASKS = ("selection", "prediction")
# Prediction-protocol model names: the five IC probability assignments
# (Figure 2) plus the Figure-3 trio (IC = EM-learned IC, LT, CD).
PREDICTION_METHODS = tuple(PREDICTION_ARTIFACTS)


@dataclass(frozen=True)
class SelectorConfig:
    """One selector entry of an experiment: name, parameters, label."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def display(self) -> str:
        """The label, defaulting to the registry name."""
        return self.label or self.name

    @classmethod
    def coerce(cls, value: "str | Mapping[str, Any] | SelectorConfig"):
        """Accept ``"cd"``, ``{"name": ..., "params": ..., "label": ...}``."""
        if isinstance(value, SelectorConfig):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            extra = set(value) - {"name", "params", "label"}
            require(
                not extra,
                f"selector entry has unknown key(s) {sorted(extra)}",
            )
            require("name" in value, "selector entry needs a 'name'")
            return cls(
                name=str(value["name"]),
                params=dict(value.get("params", {})),
                label=str(value.get("label", "")),
            )
        raise ValueError(
            f"selector entry must be a name, mapping or SelectorConfig, "
            f"got {type(value).__name__}"
        )


@dataclass
class ExperimentConfig:
    """Everything :func:`run_experiment` needs, JSON-representable.

    Attributes
    ----------
    task:
        ``"selection"`` (the seed-selection protocol, Figures 6-9) or
        ``"prediction"`` (the spread-prediction protocol, Figures 2-4).
    dataset:
        ``"toy"``, ``"flixster"`` or ``"flickr"``.
    scale:
        Dataset scale (``mini``/``small``/``large``; ignored by the toy
        example).
    dataset_seed:
        Overrides the dataset preset's RNG seed.
    selectors:
        Selector entries — names, or mappings with ``name``/``params``/
        ``label``.  Labels must be unique; they default to the name.
    ks:
        The k-grid: selection runs once at ``max(ks)`` and every prefix
        on the grid is evaluated (greedy-style selectors all produce
        nested prefixes).
    trials:
        Repetitions per selector, each with a deterministically derived
        child seed (only stochastic selectors differ across trials).
    seed:
        Base RNG seed; see the module docstring for the fan-out rule.
    probability_method:
        Default IC probability assignment for selectors that need one.
    num_simulations / truncation:
        Forwarded to the :class:`~repro.api.context.SelectionContext`.
    split / split_every:
        Whether (and how) to 80/20-split the action log; learning uses
        the training fold.
    backend:
        Compute backend for the hot paths: ``"python"`` (reference
        implementations), ``"numpy"`` (the vectorized kernels of
        :mod:`repro.kernels`) or ``"auto"`` (defer to the
        ``REPRO_BACKEND`` environment variable, default ``python``).
        Forwarded to the :class:`~repro.api.context.SelectionContext`;
        ignored when a pre-built context is passed in.
    evaluate_spread:
        Score every selection's k-prefixes under the CD proxy (Figure-6
        yardstick).  Disable for pure-runtime experiments (Figure 7).
    executor / max_workers:
        Where the pipeline's independent units run: ``"serial"``,
        ``"thread"``, ``"process"``, or ``"auto"`` (defer to the
        ``REPRO_EXECUTOR`` environment variable, default ``serial``).
        Results are bit-identical across executors — only wall time
        changes.  ``max_workers`` defaults to the CPU count.
    store / warm_start:
        ``store`` names an :class:`~repro.store.store.ArtifactStore`
        directory; the runtime learn stage then consults it before any
        fan-out — stored artifacts for this (dataset fingerprint, split
        spec, learn spec) are loaded instead of learned, misses are
        learned once and saved back, and
        ``ExperimentResult.store_events`` records which was which.  A
        store hit skips learning entirely and returns results identical
        to the cold run on every executor.  ``warm_start=False`` keeps
        the store write-only (re-learn and refresh: cache priming).
    delta:
        Optional path to an action-log delta file
        (:func:`repro.stream.delta.load_action_log_delta` format).  The
        selection pipeline then runs an ``ingest`` stage after
        ``learn``: the delta's closed traces are folded into the
        learned artifacts (:func:`repro.stream.update.fold_delta`) and
        selection proceeds over the *union* log — with ``store`` set,
        the fold goes through :func:`repro.stream.derive.derive_bundle`
        so the derived bundle is committed with its lineage link.
    budget:
        Optional budget workload for the selection task: the total
        seed-cost cap handed to budget-aware selectors
        (``supports_budget``).  Configuring a budget with a selector
        that lacks the flag raises :class:`ConfigError` up front.
    methods:
        Prediction-task model line-up (see :data:`PREDICTION_METHODS`):
        ``UN``/``TV``/``WC``/``EM``/``PT`` are the Figure-2 IC
        probability assignments, ``IC`` (EM-learned IC), ``LT`` and
        ``CD`` the Figure-3 trio.  Ignored by the selection task.
    max_test_traces:
        Prediction-task cap on evaluated held-out traces (stratified
        over the size ranking); ``None`` evaluates all of them.
    """

    dataset: str = "flixster"
    scale: str = "mini"
    dataset_seed: int | None = None
    selectors: Sequence[Any] = field(default_factory=lambda: ["cd"])
    ks: Sequence[int] = field(default_factory=lambda: [5])
    trials: int = 1
    seed: int = 7
    probability_method: str = "EM"
    num_simulations: int = 100
    truncation: float = 0.001
    split: bool = True
    split_every: int = 5
    backend: str = "auto"
    evaluate_spread: bool = True
    task: str = "selection"
    executor: str = "auto"
    max_workers: int | None = None
    store: str | None = None
    warm_start: bool = True
    delta: str | None = None
    budget: float | None = None
    methods: Sequence[str] = field(default_factory=lambda: ["IC", "LT", "CD"])
    max_test_traces: int | None = None

    def __post_init__(self) -> None:
        require(
            self.task in TASKS,
            f"task must be one of {TASKS}, got {self.task!r}",
        )
        require(
            self.dataset in _DATASETS,
            f"dataset must be one of {_DATASETS}, got {self.dataset!r}",
        )
        require(
            self.scale in _SCALES,
            f"scale must be one of {_SCALES}, got {self.scale!r}",
        )
        self.selectors = [SelectorConfig.coerce(s) for s in self.selectors]
        require(bool(self.selectors), "selectors must be non-empty")
        labels = [s.display() for s in self.selectors]
        require(
            len(set(labels)) == len(labels),
            f"selector labels must be unique, got {labels}; "
            "give duplicates a distinct 'label'",
        )
        self.ks = sorted({int(k) for k in self.ks})
        require(bool(self.ks), "ks must be non-empty")
        require(self.ks[0] >= 1, f"every k must be >= 1, got {self.ks[0]}")
        require(self.trials >= 1, f"trials must be >= 1, got {self.trials}")
        require(
            self.probability_method in IC_PROBABILITY_METHODS,
            f"probability_method must be one of {IC_PROBABILITY_METHODS}, "
            f"got {self.probability_method!r}",
        )
        require(
            self.num_simulations >= 1,
            f"num_simulations must be >= 1, got {self.num_simulations}",
        )
        require_non_negative(self.truncation, "truncation")
        require(
            self.split_every >= 2,
            f"split_every must be >= 2, got {self.split_every}",
        )
        require(
            self.backend in ("auto", "python", "numpy"),
            f"backend must be one of ('auto', 'python', 'numpy'), "
            f"got {self.backend!r}",
        )
        require(
            self.executor in EXECUTORS + ("auto",),
            f"executor must be one of {EXECUTORS + ('auto',)}, "
            f"got {self.executor!r}",
        )
        require(
            self.max_workers is None or self.max_workers >= 1,
            f"max_workers must be >= 1, got {self.max_workers}",
        )
        require(
            self.store is None or isinstance(self.store, str),
            f"store must be a directory path or None, got {self.store!r}",
        )
        require(
            isinstance(self.warm_start, bool),
            f"warm_start must be a bool, got {self.warm_start!r}",
        )
        require(
            self.delta is None or isinstance(self.delta, str),
            f"delta must be a file path or None, got {self.delta!r}",
        )
        if self.delta is not None:
            require_config(
                self.task == "selection",
                "delta ingest extends the learned selection context; the "
                "prediction task re-splits the raw dataset and has no "
                "ingest stage",
            )
        require(
            self.budget is None or self.budget > 0,
            f"budget must be positive, got {self.budget}",
        )
        self.methods = [str(m) for m in self.methods]
        require(bool(self.methods), "methods must be non-empty")
        unknown_methods = [
            m for m in self.methods if m not in PREDICTION_METHODS
        ]
        require(
            not unknown_methods,
            f"unknown prediction method(s) {unknown_methods}; "
            f"known: {list(PREDICTION_METHODS)}",
        )
        require(
            len(set(self.methods)) == len(self.methods),
            f"prediction methods must be unique, got {self.methods}",
        )
        require(
            self.max_test_traces is None or self.max_test_traces >= 1,
            f"max_test_traces must be >= 1, got {self.max_test_traces}",
        )
        if self.dataset == "toy":
            # The Figure-1 running example is a single action trace; a
            # train/test split would leave nothing to learn from.
            self.split = False
        if self.task == "prediction":
            require_config(
                self.dataset != "toy",
                "the prediction task holds out test traces via the 80/20 "
                "split; the single-trace toy example cannot be split",
            )
            require_config(
                self.split,
                "the prediction task requires split=True (its test traces "
                "are the held-out fold)",
            )
            require_config(
                self.budget is None,
                "budget is a selection-task workload; it does not apply "
                "to task='prediction'",
            )
        # Fail fast on unknown selectors / parameters, and make the
        # supports_budget capability flag load-bearing: a budget
        # workload is rejected up front unless every selector opts in.
        for entry in self.selectors:
            selector = get_selector(entry.name, **entry.params)
            if self.budget is not None:
                require_config(
                    selector.spec.supports_budget,
                    f"selector {entry.display()!r} does not support budget "
                    "workloads (supports_budget=False); budget-aware "
                    "selectors: "
                    f"{_budget_selector_names()}",
                )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A JSON-representable view of the config."""
        return {
            "task": self.task,
            "dataset": self.dataset,
            "scale": self.scale,
            "dataset_seed": self.dataset_seed,
            "selectors": [
                {"name": s.name, "params": dict(s.params), "label": s.label}
                for s in self.selectors
            ],
            "ks": list(self.ks),
            "trials": self.trials,
            "seed": self.seed,
            "probability_method": self.probability_method,
            "num_simulations": self.num_simulations,
            "truncation": self.truncation,
            "split": self.split,
            "split_every": self.split_every,
            "backend": self.backend,
            "evaluate_spread": self.evaluate_spread,
            "executor": self.executor,
            "max_workers": self.max_workers,
            "store": self.store,
            "warm_start": self.warm_start,
            "delta": self.delta,
            "budget": self.budget,
            "methods": list(self.methods),
            "max_test_traces": self.max_test_traces,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentConfig":
        """Build a config from a plain mapping (e.g. parsed JSON)."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        extra = set(payload) - known
        require(
            not extra,
            f"config has unknown key(s) {sorted(extra)}; known: {sorted(known)}",
        )
        return cls(**dict(payload))

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        """Load a config from a JSON file (the ``repro run`` format)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


@dataclass
class SelectorRun:
    """One (selector, trial) cell of an experiment."""

    label: str
    trial: int
    selection: SeedSelection
    curve: list[tuple[int, float]] = field(default_factory=list)

    def final_spread(self) -> float | None:
        """CD-proxy spread at the largest evaluated k (None if unscored)."""
        return self.curve[-1][1] if self.curve else None


@dataclass
class ExperimentResult:
    """Everything :func:`run_experiment` measured.

    The selection task fills ``runs`` (one
    :class:`SelectorRun` per (selector, trial) cell); the prediction
    task fills ``prediction`` (a
    :class:`~repro.evaluation.prediction.PredictionExperiment` holding
    per-method ``(actual, predicted)`` pairs).  ``timings`` records the
    wall time of every compiled pipeline stage under ``<stage>_s``.
    """

    config: ExperimentConfig
    dataset_name: str
    runs: list[SelectorRun] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    prediction: Any | None = None
    # Warm-start bookkeeping when the config named a store: the context
    # key plus per-artifact hit/miss/corrupt/saved lists (see
    # repro.store.warm.warm_start).
    store_events: dict[str, Any] | None = None
    # Ingest-stage bookkeeping when the config named a delta: the fold
    # report (updated/carried/relearned routing) and, with a store, the
    # derived bundle's identity (see repro.stream).
    ingest: dict[str, Any] | None = None
    # Span export when the run was traced (REPRO_TRACE or `repro trace`):
    # {"trace_id", "spans": [...]}; see repro.obs.trace.Trace.to_dict.
    trace: dict[str, Any] | None = None

    def labels(self) -> list[str]:
        """Selector labels in config order."""
        return [entry.display() for entry in self.config.selectors]

    def selections(self, label: str) -> list[SeedSelection]:
        """All trials' selections for ``label``."""
        found = [run.selection for run in self.runs if run.label == label]
        require(bool(found), f"no runs for selector label {label!r}")
        return found

    def spread_series(self) -> dict[str, list[tuple[float, float]]]:
        """Per-label ``(k, CD-proxy spread)`` series, averaged over trials."""
        series: dict[str, list[tuple[float, float]]] = {}
        for label in self.labels():
            curves = [run.curve for run in self.runs if run.label == label]
            curves = [curve for curve in curves if curve]
            if not curves:
                continue
            points = []
            for index, (k, _) in enumerate(curves[0]):
                mean = sum(curve[index][1] for curve in curves) / len(curves)
                points.append((float(k), mean))
            series[label] = points
        return series

    def final_spreads(self) -> dict[str, float]:
        """Per-label CD-proxy spread at the largest k (trial-averaged)."""
        return {
            label: points[-1][1]
            for label, points in self.spread_series().items()
        }

    # ------------------------------------------------------------------
    # Prediction-task accessors
    # ------------------------------------------------------------------
    def _require_prediction(self):
        require(
            self.prediction is not None,
            "this result has no prediction records "
            "(run a task='prediction' experiment)",
        )
        return self.prediction

    def prediction_methods(self) -> list[str]:
        """Prediction-model names in config order."""
        return list(self._require_prediction().methods)

    def pairs(self, method: str) -> list[tuple[float, float]]:
        """The ``(actual, predicted)`` pairs of one prediction method."""
        prediction = self._require_prediction()
        require(
            method in prediction.records,
            f"no prediction records for method {method!r}; "
            f"available: {list(prediction.records)}",
        )
        return prediction.records[method]

    def rmse_table(self) -> dict[str, float]:
        """Per-method prediction RMSE (the Figure-3 summary numbers)."""
        from repro.evaluation.metrics import rmse

        return {
            method: rmse(self.pairs(method))
            for method in self.prediction_methods()
        }

    def capture_table(
        self, thresholds: Sequence[float] = (5, 10, 20, 40)
    ) -> dict[str, list[tuple[float, float]]]:
        """Per-method Figure-4 capture curves at ``thresholds``."""
        from repro.evaluation.metrics import capture_curve

        return {
            method: capture_curve(self.pairs(method), list(thresholds))
            for method in self.prediction_methods()
        }

    def runtime_curves(self) -> dict[str, list[tuple[int, float]]]:
        """Per-label cumulative runtime-vs-k curves (first trial).

        Only selectors whose adapter supports ``time_log`` appear;
        entries include lazily triggered artifact-building time.
        """
        curves: dict[str, list[tuple[int, float]]] = {}
        for label in self.labels():
            for run in self.runs:
                if run.label != label:
                    continue
                log = run.selection.metadata.get("time_log")
                if log:
                    curves[label] = [(int(c), float(s)) for c, s in log]
                break
        return curves

    def render(self) -> str:
        """A printable summary table (the ``repro run`` output)."""
        from repro.evaluation.reporting import format_table

        if self.prediction is not None:
            thresholds = (5, 10, 20, 40)
            rmse_table = self.rmse_table()
            capture = self.capture_table(thresholds)
            rows = [
                [method, f"{rmse_table[method]:.1f}"]
                + [f"{fraction:.2f}" for _, fraction in capture[method]]
                for method in self.prediction_methods()
            ]
            return format_table(
                ["method", "RMSE", *[f"cap@{t:g}" for t in thresholds]],
                rows,
                title=(
                    f"spread prediction on {self.dataset_name} over "
                    f"{self.prediction.num_test_traces} test traces "
                    f"(seed={self.config.seed})"
                ),
            )
        k_max = self.config.ks[-1]
        rows = []
        for run in self.runs:
            selection = run.selection
            proxy = run.final_spread()
            rows.append(
                [
                    run.label,
                    run.trial,
                    len(selection.seeds),
                    "-" if proxy is None else f"{proxy:.2f}",
                    "-" if selection.spread is None
                    else f"{selection.spread:.2f}",
                    f"{selection.wall_time_s:.2f}s",
                    selection.oracle_calls or "-",
                ]
            )
        return format_table(
            [
                "selector", "trial", "#seeds", "sigma_cd proxy",
                "own estimate", "time", "oracle calls",
            ],
            rows,
            title=(
                f"experiment on {self.dataset_name} "
                f"(k={k_max}, seed={self.config.seed})"
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        """A JSON-representable view of the full result."""
        prediction = None
        if self.prediction is not None:
            prediction = {
                "methods": list(self.prediction.methods),
                "num_test_traces": self.prediction.num_test_traces,
                "records": {
                    method: [[actual, predicted]
                             for actual, predicted in pairs]
                    for method, pairs in self.prediction.records.items()
                },
            }
        payload = {
            "config": self.config.to_dict(),
            "dataset": self.dataset_name,
            "timings": dict(self.timings),
            "store": self.store_events,
            "ingest": self.ingest,
            "runs": [
                {
                    "label": run.label,
                    "trial": run.trial,
                    "curve": [[k, spread] for k, spread in run.curve],
                    "selection": run.selection.to_dict(),
                }
                for run in self.runs
            ],
            "prediction": prediction,
        }
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    def to_json(self, indent: int | None = 2) -> str:
        """Serialise to JSON (see :meth:`to_dict` for the schema)."""
        return json.dumps(self.to_dict(), indent=indent)


def _make_dataset(config: ExperimentConfig) -> Dataset:
    # Resolve the makers through the module so test harnesses that
    # monkeypatch repro.data.datasets redirect experiments too.
    from repro.data import datasets

    if config.dataset == "toy":
        return datasets.toy_example()
    maker = (
        datasets.flixster_like
        if config.dataset == "flixster"
        else datasets.flickr_like
    )
    if config.dataset_seed is None:
        return maker(config.scale)
    return maker(config.scale, seed=config.dataset_seed)


def run_experiment(
    config: ExperimentConfig,
    dataset: Dataset | None = None,
    context: SelectionContext | None = None,
) -> ExperimentResult:
    """Compile ``config`` into the stage pipeline and run it.

    The selection task runs ``dataset → split → learn → select →
    evaluate``; the prediction task ``dataset → split → learn →
    predict → evaluate`` — both through
    :func:`repro.runtime.pipeline.execute_pipeline`, with every stage's
    independent units dispatched to the configured executor.

    Parameters
    ----------
    config:
        The experiment description.
    dataset:
        Pre-built dataset to use instead of constructing one from the
        config (benchmark fixtures pass their session-scoped datasets
        here so the synthesis cost is shared).
    context:
        Pre-built :class:`~repro.api.context.SelectionContext` to share
        learned artifacts across experiments.  When given, the dataset/
        split stages are skipped entirely and the context's graph/log
        are authoritative.  Selection task only — the prediction task
        needs the raw dataset to hold out test traces.
    """
    from repro.runtime.pipeline import execute_pipeline

    return execute_pipeline(config, dataset=dataset, context=context)
