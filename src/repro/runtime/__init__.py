"""``repro.runtime`` — the unified stage pipeline and its executor seam.

Three pieces:

* :mod:`repro.runtime.executor` — the pluggable parallel executor
  (``serial``/``thread``/``process``, ``max_workers``, env
  ``REPRO_EXECUTOR``) every embarrassingly parallel unit of the
  pipeline dispatches through;
* :mod:`repro.runtime.estimator` — :class:`SpreadEstimator`, the one
  Monte-Carlo IC/LT spread estimator: every seed set scored on the
  same counter-keyed worlds, bit-identical on every backend and
  executor.  It is itself the MC selectors' oracle and the IC/LT
  prediction model, built and cached by
  :meth:`repro.api.SelectionContext.oracle` and
  :meth:`~repro.api.SelectionContext.predictor`;
* :mod:`repro.runtime.pipeline` — the stage graph
  (``dataset → split → learn → select|predict → evaluate``) both of
  the paper's protocols compile into, plus the capability-flag
  validation/prefetch that makes the selector registry's flags
  load-bearing.

:func:`repro.api.run_experiment` is the public entry point; it
delegates here.  The pipeline module is imported lazily (via module
``__getattr__``) because it sits *above* :mod:`repro.api` in the layer
stack, while the executor/estimator seams sit below it.
"""

from repro.runtime.estimator import SpreadEstimator
from repro.runtime.executor import (
    EXECUTOR_ENV_VAR,
    EXECUTORS,
    Executor,
    as_executor,
    resolve_executor,
    split_chunks,
)

__all__ = [
    "EXECUTOR_ENV_VAR",
    "EXECUTORS",
    "Executor",
    "as_executor",
    "resolve_executor",
    "split_chunks",
    "SpreadEstimator",
    "Stage",
    "PipelineState",
    "compile_pipeline",
    "execute_pipeline",
]

_PIPELINE_EXPORTS = (
    "Stage",
    "PipelineState",
    "compile_pipeline",
    "execute_pipeline",
)


def __getattr__(name: str):
    if name in _PIPELINE_EXPORTS:
        from repro.runtime import pipeline

        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
