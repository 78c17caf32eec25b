"""The held-out spread-prediction protocol (Figures 2, 3 and 4).

Protocol (paper Section 3, Experiment 2, reused in Section 6):

1. split the action log 80/20 into training and test traces;
2. fit every model on the training side only;
3. for each test trace, take its *initiators* as the seed set and the
   trace's size as the ground-truth "actual spread";
4. ask each model to predict the spread of that seed set and score the
   predictions (binned RMSE, error capture curve).

``ExperimentConfig(task="prediction")`` with
:func:`repro.api.run_experiment` runs the protocol for the paper's
models.  This module owns the data it shares with any other predictor:
:func:`held_out_traces` is the one rule for which test traces are
evaluated, with which seeds and actual spread, and
:meth:`PredictionExperiment.from_predictions` is the one constructor of
the scored records.  A predictor the config cannot name (a credit-scheme
ablation, say) is scored on the same protocol through both::

    train, test = train_test_split(dataset.log)
    traces = held_out_traces(dataset.graph, test, max_test_traces=50)
    evaluator = CDSpreadEvaluator(dataset.graph, train, credit=scheme)
    experiment = PredictionExperiment.from_predictions(
        traces, {"CD": [evaluator.spread(list(seeds)) for seeds, _ in traces]}
    )
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.data.actionlog import ActionLog
from repro.data.propagation import PropagationGraph
from repro.graphs.digraph import SocialGraph
from repro.utils.validation import require

__all__ = ["PredictionExperiment", "held_out_traces"]


@dataclass
class PredictionExperiment:
    """Results of a spread-prediction run.

    ``records[method]`` is a list of ``(actual, predicted)`` pairs, one
    per test propagation.
    """

    methods: list[str] = field(default_factory=list)
    records: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    num_test_traces: int = 0

    @classmethod
    def from_predictions(
        cls,
        traces: Sequence[tuple[tuple, float]],
        predictions: Mapping[str, Sequence[float]],
    ) -> "PredictionExperiment":
        """Pair each method's predictions with the traces' actual spreads.

        ``traces`` is :func:`held_out_traces` output; ``predictions``
        maps each method, in report order, to one prediction per trace.
        """
        actuals = [actual for _, actual in traces]
        for method, predicted in predictions.items():
            require(
                len(predicted) == len(actuals),
                f"method {method!r} has {len(predicted)} predictions for "
                f"{len(actuals)} traces",
            )
        return cls(
            methods=list(predictions),
            records={
                method: list(zip(actuals, predicted))
                for method, predicted in predictions.items()
            },
            num_test_traces=len(actuals),
        )

    def pairs(self, method: str) -> list[tuple[float, float]]:
        """The ``(actual, predicted)`` pairs of one method."""
        return self.records[method]


def held_out_traces(
    graph: SocialGraph,
    test_log: ActionLog,
    max_test_traces: int | None = None,
) -> list[tuple[tuple, float]]:
    """The evaluated test traces as ``(initiators, actual spread)`` pairs.

    Traces come largest first.  The initiators — users who acted before
    any of their neighbours — are the seed set, and the trace's size is
    the actual spread.  The cap samples the size ranking *stratified*
    (every n-th trace of the ranking), so the evaluated subset keeps the
    test set's propagation-size distribution; the paper evaluates all
    test traces.
    """
    actions = sorted(
        test_log.actions(),
        key=lambda action: -test_log.trace_size(action),
    )
    if max_test_traces is not None and max_test_traces < len(actions):
        stride = len(actions) / max_test_traces
        actions = [
            actions[int(index * stride)] for index in range(max_test_traces)
        ]
    traces = []
    for action in actions:
        propagation = PropagationGraph.build(graph, test_log, action)
        traces.append(
            (tuple(propagation.initiators()), float(propagation.num_nodes))
        )
    return traces
