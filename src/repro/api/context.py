"""The shared artifact cache every registry selector draws inputs from.

A selector needs some subset of: the social graph, learned IC edge
probabilities (for one of the paper's five assignment methods), learned
LT weights, the Eq.-9 credit index, or a spread oracle.  Building those
artifacts is the expensive part of any experiment, and several selectors
share them — so :class:`SelectionContext` owns them, builds each lazily
on first use, and caches it for every later selector run.

It backs the selector registry, the experiment runner, the CLI and
``repro serve``, so all of them construct artifacts identically — the
property the registry's parity guarantees rest on.  That includes the
models built over the artifacts: :meth:`SelectionContext.oracle` is the
selectors' spread oracle and :meth:`SelectionContext.predictor` the
prediction protocol's model, for the pipeline and ``/predict`` alike.

Each slot the context builds records one ``context.build`` span
(attribute ``artifact``) under an active :mod:`repro.obs` trace; a
stored or injected slot records none.  Each sketch batch it builds
records one ``sketch.generate`` span.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Mapping

from repro.core.credit import TimeDecayCredit
from repro.core.scan import scan_action_log
from repro.core.spread import CDSpreadEvaluator
from repro.data.actionlog import ActionLog
from repro.data.propagation import PropagationGraph
from repro.graphs.digraph import SocialGraph
from repro.kernels import resolve_backend
from repro.maximization.oracle import SpreadOracle
from repro.obs import trace as obs_trace
from repro.runtime.estimator import SpreadEstimator
from repro.runtime.executor import Executor, as_executor
from repro.utils.rng import derive_seed as _derive_seed
from repro.utils.rng import integer_seed
from repro.utils.validation import require, require_non_negative

__all__ = [
    "SelectionContext",
    "MissingTrainLog",
    "IC_PROBABILITY_METHODS",
    "ARTIFACT_NAMES",
    "GRAPH_ONLY_ARTIFACTS",
    "PREDICTION_ARTIFACTS",
]

User = Hashable
Edge = tuple[User, User]

IC_PROBABILITY_METHODS = ("UN", "TV", "WC", "EM", "PT")
ORACLE_MODELS = ("cd", "ic", "lt")
CREDIT_SCHEMES = ("timedecay", "uniform")

# The persistable learned-artifact slots (the vocabulary of
# :mod:`repro.store`): per-method IC probabilities plus the singleton
# caches and the interned CSR form.
_PROBABILITY_PREFIX = "ic_probabilities/"
ARTIFACT_NAMES = tuple(
    f"{_PROBABILITY_PREFIX}{method}" for method in IC_PROBABILITY_METHODS
) + (
    "lt_weights",
    "influence_params",
    "credit_index",
    "cd_evaluator",
    "compiled_log",
)

# The slots a context builds from the graph (and seed) alone: a run
# without a training log can read them, and a log delta cannot change
# them, so a fold carries them over by reference.
GRAPH_ONLY_ARTIFACTS = tuple(
    f"{_PROBABILITY_PREFIX}{method}" for method in ("UN", "TV", "WC")
)

# The prediction protocol's models (Figures 2-4), in listing order, each
# with the one artifact its predictor reads: the five IC probability
# assignments (Figure 2), then the Figure-3 trio — IC is the IC model
# over EM-learned probabilities, LT the learned weights, CD the exact
# sigma_cd evaluator.  SelectionContext.predictor builds from it, and
# the store's warm start saves what it lists.
PREDICTION_ARTIFACTS = {
    **{
        method: f"{_PROBABILITY_PREFIX}{method}"
        for method in IC_PROBABILITY_METHODS
    },
    "IC": f"{_PROBABILITY_PREFIX}EM",
    "LT": "lt_weights",
    "CD": "cd_evaluator",
}


class MissingTrainLog(ValueError):
    """A context without a log (a served one) lacks an artifact it needs."""


class SelectionContext:
    """Lazily built, cached learning artifacts over one (graph, log) pair.

    Parameters
    ----------
    graph:
        The social graph.
    train_log:
        The training action log.  May be omitted for purely structural
        selectors (High-Degree, PageRank, discount heuristics); any
        accessor that needs the log then raises a clear ``ValueError``.
    probability_method:
        Default IC probability assignment (``UN``/``TV``/``WC``/``EM``/
        ``PT``) used when a selector does not name one explicitly.
    num_simulations:
        Monte Carlo simulations per spread estimate for the IC/LT
        oracles.
    truncation:
        Credit-index truncation threshold (the paper's ``lambda``).
    seed:
        Base RNG seed.  Every stochastic artifact (TV probabilities, PT
        perturbation, MC oracles) derives from it, and
        :meth:`derive_seed` fans it out deterministically to stochastic
        selectors.
    credit_scheme:
        ``"timedecay"`` (Eq. 9 credits from learned influenceability —
        the paper's experiments) or ``"uniform"`` (``1/d_in`` credits,
        used by the analytics CLI).
    backend:
        Compute backend for the hot paths (the credit scan, EM
        learning, Monte-Carlo spread): ``"python"`` (the reference
        implementations), ``"numpy"`` (the vectorized kernels of
        :mod:`repro.kernels`), or ``None``/``"auto"`` to defer to the
        ``REPRO_BACKEND`` environment variable (default ``python``).
        Resolution is graceful: requesting ``numpy`` without NumPy
        installed falls back to ``python`` with a warning.
    executor:
        Optional :class:`~repro.runtime.executor.Executor` (or kind
        name) the context's consumers — the greedy/CELF candidate
        sweeps of the oracle-backed selectors, the experiment runtime's
        fan-outs — dispatch their parallel units through.  ``None``
        (the default) keeps every code path exactly serial.
    """

    def __init__(
        self,
        graph: SocialGraph,
        train_log: ActionLog | None = None,
        probability_method: str = "EM",
        num_simulations: int = 100,
        truncation: float = 0.001,
        seed: int = 7,
        credit_scheme: str = "timedecay",
        backend: str | None = None,
        executor: Executor | str | None = None,
    ) -> None:
        require(
            probability_method in IC_PROBABILITY_METHODS,
            f"probability_method must be one of {IC_PROBABILITY_METHODS}, "
            f"got {probability_method!r}",
        )
        require(
            num_simulations >= 1,
            f"num_simulations must be >= 1, got {num_simulations}",
        )
        require_non_negative(truncation, "truncation")
        require(
            credit_scheme in CREDIT_SCHEMES,
            f"credit_scheme must be one of {CREDIT_SCHEMES}, "
            f"got {credit_scheme!r}",
        )
        self.graph = graph
        self.train_log = train_log
        self.probability_method = probability_method
        self.num_simulations = num_simulations
        self.truncation = truncation
        self.seed = seed
        self.credit_scheme = credit_scheme
        self.backend = resolve_backend(backend)
        self.executor = None if executor is None else as_executor(executor)
        self._probabilities: dict[str, dict[Edge, float]] = {}
        self._lt_weights: dict[Edge, float] | None = None
        self._params = None
        self._credit_index = None
        self._cd_evaluator: CDSpreadEvaluator | None = None
        # Monte-Carlo oracles by (model, method, seed); the first one
        # built for a (model, method) lends its compiled engine to all.
        self._oracles: dict[tuple, SpreadEstimator] = {}
        self._oracle_bases: dict[tuple, SpreadEstimator] = {}
        self._models: dict[tuple, object] = {}
        # Per-action propagation DAGs, built at most once per action and
        # shared by their consumers: LT weight learning on both backends,
        # and on the python backend influenceability learning, EM, the
        # scan and the CD evaluator (the numpy kernels read the compiled
        # log instead).
        self._propagations: dict[Hashable, PropagationGraph] = {}
        # Interned CSR representation the numpy kernels share (lazy).
        self._compiled_log = None
        # The last sketch batch built, with its key: each ris/hop cell
        # reads the batch it asked for right away, so one is enough.
        self._last_sketches: tuple[tuple, object] | None = None
        self._sketchers: dict[str, object] = {}
        # Stored slots: artifact name -> the loader that fills the slot
        # on its first read (see set_artifact_loader).
        self._loaders: dict[str, Callable[[], Any]] = {}

    # ------------------------------------------------------------------
    # Guards and derived seeds
    # ------------------------------------------------------------------
    def _require_log(self, what: str) -> ActionLog:
        if self.train_log is None:
            raise MissingTrainLog(
                f"{what} needs a training action log, but this "
                "SelectionContext was built without one"
            )
        return self.train_log

    def derive_seed(self, *labels: object) -> int:
        """A deterministic child seed for ``labels`` (selector, trial, ...).

        Stable across processes (blake2b, not the salted ``hash``), so
        the same base seed and labels always yield the same stream —
        this is how ``ExperimentConfig.seed`` fans out to stochastic
        selectors.
        """
        return _derive_seed(self.seed, *labels)

    # ------------------------------------------------------------------
    # Artifact slots (the repro.store vocabulary)
    # ------------------------------------------------------------------
    def learn_spec(self) -> dict:
        """The parameters that determine every learned artifact's value.

        This is the ``learn`` component of a :mod:`repro.store` cache
        key: two contexts over the same (graph, train log) pair with
        equal specs produce byte-identical artifacts, so stored
        payloads can be injected across runs, processes and executors.
        (``num_simulations`` is deliberately absent — it parameterizes
        the Monte-Carlo *oracles*, which are derived from the artifacts
        at query time, never stored.)
        """
        return {
            "truncation": self.truncation,
            "seed": self.seed,
            "credit_scheme": self.credit_scheme,
            "backend": self.backend,
        }

    def _artifact_slot(self, name: str):
        """(getter, setter) for one artifact slot, validating ``name``."""
        require(
            name in ARTIFACT_NAMES,
            f"unknown artifact {name!r}; known: {list(ARTIFACT_NAMES)}",
        )
        if name.startswith(_PROBABILITY_PREFIX):
            method = name[len(_PROBABILITY_PREFIX):]
            return (
                lambda: self._probabilities.get(method),
                lambda value: self._probabilities.__setitem__(method, value),
            )
        if name == "cd_evaluator":
            return lambda: self._cd_evaluator, self._hold_cd_evaluator
        attr = {
            "lt_weights": "_lt_weights",
            "influence_params": "_params",
            "credit_index": "_credit_index",
            "compiled_log": "_compiled_log",
        }[name]
        return (
            lambda: getattr(self, attr),
            lambda value: setattr(self, attr, value),
        )

    def artifact_names(self) -> list[str]:
        """Names of the artifact slots populated or stored (not yet read)."""
        return [
            name for name in ARTIFACT_NAMES
            if name in self._loaders
            or self._artifact_slot(name)[0]() is not None
        ]

    def get_artifact(self, name: str):
        """The artifact in slot ``name`` (``None`` if unbuilt).

        A stored slot (:meth:`set_artifact_loader`) is decoded here, on
        its first read.
        """
        return self._stored(name)

    def set_artifact(self, name: str, value) -> None:
        """Inject a pre-built artifact into slot ``name``.

        This is the warm-start seam: :mod:`repro.store` loads a
        persisted payload and places it here, after which the lazy
        accessors (:meth:`ic_probabilities`, :meth:`credit_index`, ...)
        find the cache populated and never learn.  The caller is
        responsible for the value matching this context's
        :meth:`learn_spec` and (graph, train log) pair.  A pending
        loader of the slot is dropped without being called.
        """
        self._artifact_slot(name)[1](value)
        self._loaders.pop(name, None)

    def set_artifact_loader(self, name: str, loader: Callable[[], Any]) -> None:
        """Make slot ``name`` a stored slot, filled by ``loader()`` on first read.

        The first read is :meth:`get_artifact` or the slot's lazy
        accessor (:meth:`credit_index`, :meth:`ic_probabilities`, ...);
        until then the slot is listed by :meth:`artifact_names` but
        nothing is decoded.  A loader that raises leaves the slot
        pending.  This is how a derive reads only the base artifacts
        its fold needs (:func:`repro.stream.derive.load_base_state`).
        """
        self._artifact_slot(name)
        self._loaders[name] = loader

    def _stored(self, name: str):
        """The value in slot ``name``, running its pending loader first."""
        getter, setter = self._artifact_slot(name)
        loader = self._loaders.get(name)
        if loader is not None:
            # Fill the slot before dropping the loader: a concurrent
            # reader then finds either the loader (and decodes an equal
            # value itself) or the value, never an empty slot.
            setter(loader())
            self._loaders.pop(name, None)
        return getter()

    def build_artifact(self, name: str):
        """Build (or return the cached) artifact for slot ``name``."""
        if name.startswith(_PROBABILITY_PREFIX):
            return self.ic_probabilities(name[len(_PROBABILITY_PREFIX):])
        return {
            "lt_weights": self.lt_weights,
            "influence_params": self.influence_params,
            "credit_index": self.credit_index,
            "cd_evaluator": self.cd_evaluator,
            "compiled_log": self.compiled_log,
        }[name]()

    # ------------------------------------------------------------------
    # Shared intermediate structures (lazy, cached)
    # ------------------------------------------------------------------
    def propagation(self, action: Hashable) -> PropagationGraph:
        """The memoized propagation DAG of ``action`` over the train log.

        ``scan_action_log``, EM episode collection, influenceability
        learning and the CD evaluator all need G(a) for every action;
        memoizing here means a learn→scan pipeline builds each DAG
        exactly once instead of once per consumer.
        """
        if action not in self._propagations:
            self._propagations[action] = PropagationGraph.build(
                self.graph, self._require_log("propagation graphs"), action
            )
        return self._propagations[action]

    def compiled_log(self):
        """The interned CSR form of (graph, train log) — numpy kernels only."""
        if self._compiled_log is None and self._stored("compiled_log") is None:
            from repro.kernels.interning import CompiledGraph, CompiledLog

            with obs_trace.span("context.build", artifact="compiled_log"):
                log = self._require_log("log compilation")
                self._compiled_log = CompiledLog(
                    CompiledGraph(self.graph, log.users()), log
                )
        return self._compiled_log

    # ------------------------------------------------------------------
    # Learned artifacts (lazy, cached)
    # ------------------------------------------------------------------
    def ic_probabilities(self, method: str | None = None) -> dict[Edge, float]:
        """IC edge probabilities under ``method`` (default: the context's)."""
        from repro.probabilities.em import learn_ic_probabilities_em
        from repro.probabilities.perturb import perturb_probabilities
        from repro.probabilities.static import (
            trivalency_probabilities,
            uniform_probabilities,
            weighted_cascade_probabilities,
        )

        method = self.probability_method if method is None else method
        require(
            method in IC_PROBABILITY_METHODS,
            f"method must be one of {IC_PROBABILITY_METHODS}, got {method!r}",
        )
        name = _PROBABILITY_PREFIX + method
        if method not in self._probabilities and self._stored(name) is None:
            with obs_trace.span("context.build", artifact=name) as span:
                if method == "UN":
                    value = uniform_probabilities(self.graph)
                elif method == "TV":
                    value = trivalency_probabilities(
                        self.graph, seed=self.seed
                    )
                elif method == "WC":
                    value = weighted_cascade_probabilities(self.graph)
                elif method == "EM":
                    log = self._require_log("EM probability learning")
                    if self.backend == "numpy":
                        from repro.kernels.em_numpy import (
                            learn_ic_probabilities_em_numpy,
                        )

                        learned = learn_ic_probabilities_em_numpy(
                            self.graph, log, compiled=self.compiled_log()
                        )
                    else:
                        learned = learn_ic_probabilities_em(
                            self.graph, log, propagations=self.propagation
                        )
                    value = learned.probabilities
                    span.set(
                        iterations=learned.iterations,
                        converged=learned.converged,
                        edges=len(value),
                    )
                else:  # PT
                    value = perturb_probabilities(
                        self.ic_probabilities("EM"), noise=0.2, seed=self.seed
                    )
                self._probabilities[method] = value
        return self._probabilities[method]

    def lt_weights(self) -> dict[Edge, float]:
        """Learned LT edge weights (cached)."""
        from repro.probabilities.lt_weights import learn_lt_weights

        if self._lt_weights is None and self._stored("lt_weights") is None:
            with obs_trace.span("context.build", artifact="lt_weights"):
                self._lt_weights = learn_lt_weights(
                    self.graph,
                    self._require_log("LT weight learning"),
                    propagations=self.propagation,
                )
        return self._lt_weights

    def influence_params(self):
        """Learned Eq.-9 influenceability parameters (cached).

        Under the ``numpy`` backend the two chronological passes run as
        :func:`repro.kernels.params_numpy.learn_influenceability_numpy`
        over the cached :meth:`compiled_log` — bit-identical to the
        reference per the kernel-parity contract.
        """
        from repro.core.params import learn_influenceability

        if self._params is None and self._stored("influence_params") is None:
            with obs_trace.span("context.build", artifact="influence_params"):
                log = self._require_log("influenceability learning")
                if self.backend == "numpy":
                    from repro.kernels.params_numpy import (
                        learn_influenceability_numpy,
                    )

                    self._params = learn_influenceability_numpy(
                        self.graph, log, compiled=self.compiled_log()
                    )
                else:
                    self._params = learn_influenceability(
                        self.graph,
                        log,
                        propagations=self.propagation,
                    )
        return self._params

    def sketches(
        self,
        method: str | None = None,
        num_sketches: int = 10_000,
        hops: int | None = None,
        seed: int | None = None,
    ):
        """A deterministic reverse-reachability sketch batch.

        The batch is keyed by ``(method, count, hops, generation
        seed)``: probabilities from ``method`` (default: the context's),
        ``hops=None`` for unbounded reverse reachability.  The context
        keeps the last batch it built, so building a batch and then
        running the ``ris``/``hop`` selector bound to it generates it
        once, and a long-lived serving context holds one batch however
        many seeds its requests name.  No batch is an artifact slot:
        building one records a ``sketch.generate`` span (attributes
        ``method``, ``num_sketches``, ``hops`` and ``members``) instead
        of a ``context.build``, and reusing the last one records none.

        The generation seed is
        :func:`repro.core.sketch.sketch_generation_seed` of the base
        seed (``seed`` or the context seed), so a direct
        :func:`~repro.maximization.ris.ris_maximize` call with the same
        base seed replays the very same sketches — and both backends
        generate byte-identical batches.
        """
        method = self.probability_method if method is None else method
        require(
            num_sketches >= 1, f"num_sketches must be >= 1, got {num_sketches}"
        )
        require(
            hops is None or hops >= 1,
            f"hops must be >= 1 or None, got {hops}",
        )
        base = self.seed if seed is None else integer_seed(seed)
        from repro.core.sketch import generate_sketches, sketch_generation_seed

        generation_seed = sketch_generation_seed(base, num_sketches, hops)
        key = (method, num_sketches, hops, generation_seed)
        last = self._last_sketches
        if last is not None and last[0] == key:
            return last[1]
        with obs_trace.span(
            "sketch.generate",
            method=method,
            num_sketches=num_sketches,
            hops=hops,
        ) as span:
            probabilities = self.ic_probabilities(method)
            if self.backend == "numpy":
                from repro.kernels.sketch_numpy import CompiledSketcher

                sketcher = self._sketchers.get(method)
                if sketcher is None:
                    sketcher = CompiledSketcher.from_graph(
                        self.graph, probabilities
                    )
                    self._sketchers[method] = sketcher
                value = sketcher.generate(
                    num_sketches,
                    hops=hops,
                    seed=generation_seed,
                    method=method,
                )
            else:
                value = generate_sketches(
                    self.graph,
                    probabilities,
                    num_sketches,
                    hops=hops,
                    seed=generation_seed,
                    method=method,
                )
            span.set(members=value.total_members)
        self._last_sketches = (key, value)
        return value

    def _credit(self):
        if self.credit_scheme == "uniform":
            return None  # scan_action_log defaults to UniformCredit
        return TimeDecayCredit(self.influence_params())

    def credit_index(self):
        """The scanned credit index (cached).

        Under the ``numpy`` backend the Algorithm-2 scan runs as the
        vectorized kernel (:mod:`repro.kernels.scan_numpy`) over the
        cached :meth:`compiled_log`; it compiles both credit schemes a
        context uses (uniform and time-decay).
        """
        if self._credit_index is None and self._stored("credit_index") is None:
            with obs_trace.span("context.build", artifact="credit_index"):
                log = self._require_log("the credit-index scan")
                credit = self._credit()
                if self.backend == "numpy":
                    from repro.kernels.scan_numpy import scan_action_log_numpy

                    self._credit_index = scan_action_log_numpy(
                        self.graph,
                        log,
                        credit=credit,
                        truncation=self.truncation,
                        compiled=self.compiled_log(),
                    )
                else:
                    self._credit_index = scan_action_log(
                        self.graph,
                        log,
                        credit=credit,
                        truncation=self.truncation,
                        propagations=self.propagation,
                    )
        return self._credit_index

    def cd_evaluator(self) -> CDSpreadEvaluator:
        """The exact ``sigma_cd`` evaluator (cached) — the CD-proxy yardstick.

        Under the ``numpy`` backend it is built from the cached
        :meth:`compiled_log` by :mod:`repro.kernels.cd_numpy`, byte for
        byte the reference construction.  Built, stored or injected, the
        evaluator in this slot answers with this context's backend's
        kernel.
        """
        if self._cd_evaluator is None and self._stored("cd_evaluator") is None:
            with obs_trace.span("context.build", artifact="cd_evaluator"):
                log = self._require_log("sigma_cd evaluation")
                if self.backend == "numpy":
                    from repro.kernels.cd_numpy import cd_evaluator_numpy

                    self._cd_evaluator = cd_evaluator_numpy(
                        self.graph,
                        log,
                        credit=self._credit(),
                        compiled=self.compiled_log(),
                    )
                else:
                    self._cd_evaluator = CDSpreadEvaluator(
                        self.graph,
                        log,
                        credit=self._credit(),
                        propagations=self.propagation,
                    )
        return self._cd_evaluator

    def _hold_cd_evaluator(self, evaluator: CDSpreadEvaluator | None) -> None:
        """Fill the ``cd_evaluator`` slot with a stored or injected value."""
        if hasattr(evaluator, "_kernel"):
            # It answers with this context's kernel from now on.
            evaluator._kernel = self.backend
        self._cd_evaluator = evaluator

    # ------------------------------------------------------------------
    # Oracles and heuristic models
    # ------------------------------------------------------------------
    def oracle(
        self,
        model: str,
        method: str | None = None,
        seed: int | None = None,
    ) -> SpreadOracle:
        """A spread oracle for ``model`` (``cd``, ``ic`` or ``lt``).

        ``cd`` is the exact sigma_cd evaluator; ``ic``/``lt`` is a
        cached :class:`~repro.runtime.estimator.SpreadEstimator` over
        the IC probabilities of ``method`` (ignored for ``lt``) or the
        LT weights, with the context's simulation count, backend and
        executor.  ``seed`` overrides the context seed for the Monte
        Carlo worlds (the CD evaluator is deterministic and ignores it);
        the oracles of one (model, method) differ only in their seed and
        share one compiled engine.
        """
        require(
            model in ORACLE_MODELS,
            f"model must be one of {ORACLE_MODELS}, got {model!r}",
        )
        if model == "cd":
            return self.cd_evaluator()
        seed = self.seed if seed is None else seed
        method = (method or self.probability_method) if model == "ic" else None
        key = (model, method, seed)
        if key not in self._oracles:
            base = self._oracle_bases.get((model, method))
            if base is None:
                edge_values = (
                    self.ic_probabilities(method)
                    if model == "ic"
                    else self.lt_weights()
                )
                base = SpreadEstimator(
                    self.graph,
                    edge_values,
                    model=model,
                    num_simulations=self.num_simulations,
                    seed=seed,
                    backend=self.backend,
                    executor=self.executor,
                )
                self._oracle_bases[(model, method)] = base
            self._oracles[key] = base.with_seed(seed)
        return self._oracles[key]

    def predictor(self, method: str) -> SpreadOracle:
        """The spread predictor of prediction-protocol model ``method``.

        ``CD`` is the sigma_cd evaluator; every other model is the
        Monte-Carlo oracle over the artifact
        :data:`PREDICTION_ARTIFACTS` names, on the worlds of
        ``derive_seed("predict", method)``.  The prediction pipeline
        and ``repro serve``'s ``/predict`` both score through this, so
        a seed set gets one prediction from either.
        """
        require(
            method in PREDICTION_ARTIFACTS,
            f"prediction method must be one of {list(PREDICTION_ARTIFACTS)}, "
            f"got {method!r}",
        )
        artifact = PREDICTION_ARTIFACTS[method]
        if artifact == "cd_evaluator":
            return self.cd_evaluator()
        seed = self.derive_seed("predict", method)
        if artifact == "lt_weights":
            return self.oracle("lt", seed=seed)
        return self.oracle(
            "ic", method=artifact[len(_PROBABILITY_PREFIX):], seed=seed
        )

    def pmia_model(self, method: str | None = None, theta: float = 1.0 / 320.0):
        """A cached :class:`~repro.maximization.pmia.PMIAModel`."""
        from repro.maximization.pmia import PMIAModel

        key = ("pmia", method or self.probability_method, theta)
        if key not in self._models:
            self._models[key] = PMIAModel(
                self.graph, self.ic_probabilities(method), theta=theta
            )
        return self._models[key]

    def ldag_model(self, theta: float = 1.0 / 320.0):
        """A cached :class:`~repro.maximization.ldag.LDAGModel`."""
        from repro.maximization.ldag import LDAGModel

        key = ("ldag", theta)
        if key not in self._models:
            self._models[key] = LDAGModel(
                self.graph, self.lt_weights(), theta=theta
            )
        return self._models[key]
