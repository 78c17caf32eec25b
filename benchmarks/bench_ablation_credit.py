"""Ablation: uniform direct credit vs the Eq. 9 time-decay scheme.

The paper motivates Eq. 9 (time decay + user influenceability) over the
"ease of exposition" uniform credit ``1/d_in(u, a)`` but does not
evaluate the choice directly; this ablation does.  Both credit schemes
are trained on the training traces and scored on the held-out spread-
prediction task of Figure 3.  Expected shape: time-decayed credit
predicts test spreads at least as well as uniform credit, because it
discounts stale and incidental co-activations.
"""

from benchmarks.conftest import MAX_TEST_TRACES
from repro.core.credit import TimeDecayCredit, UniformCredit
from repro.core.params import learn_influenceability
from repro.core.spread import CDSpreadEvaluator
from repro.data.split import train_test_split
from repro.evaluation.metrics import capture_curve, rmse
from repro.evaluation.prediction import PredictionExperiment, held_out_traces
from repro.evaluation.reporting import format_table


def _run(dataset):
    train, test = train_test_split(dataset.log)
    params = learn_influenceability(dataset.graph, train)
    schemes = {
        "CD-uniform": UniformCredit(),
        "CD-eq9": TimeDecayCredit(params),
    }
    traces = held_out_traces(dataset.graph, test, MAX_TEST_TRACES)
    predictions = {}
    for name, scheme in schemes.items():
        evaluator = CDSpreadEvaluator(dataset.graph, train, credit=scheme)
        predictions[name] = [
            evaluator.spread(list(seeds)) for seeds, _ in traces
        ]
    return PredictionExperiment.from_predictions(traces, predictions)


def test_ablation_credit_scheme(benchmark, report, flixster_small):
    experiment = benchmark.pedantic(
        lambda: _run(flixster_small), rounds=1, iterations=1
    )
    thresholds = [5, 10, 20, 40]
    rows = []
    for method in experiment.methods:
        pairs = experiment.pairs(method)
        curve = dict(capture_curve(pairs, thresholds))
        rows.append(
            [
                method,
                f"{rmse(pairs):.1f}",
                *[f"{curve[t]:.2f}" for t in thresholds],
            ]
        )
    report(
        format_table(
            ["credit scheme", "RMSE", *[f"cap@{t}" for t in thresholds]],
            rows,
            title=(
                "Ablation — uniform vs Eq.9 time-decay direct credit "
                "(flixster_small, Figure-3 protocol)"
            ),
        )
    )
    uniform_rmse = rmse(experiment.pairs("CD-uniform"))
    eq9_rmse = rmse(experiment.pairs("CD-eq9"))
    # Eq. 9 must not be materially worse than uniform on prediction.
    assert eq9_rmse <= 1.25 * uniform_rmse
