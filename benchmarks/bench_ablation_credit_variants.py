"""Ablation: direct-credit schemes on held-out spread prediction.

Section 4 fixes one direct-credit scheme (Eq. 9) after motivating the
design space; this ablation sweeps the schemes the library implements —
uniform, Eq. 9 exponential decay, linear decay, power-law decay, and
evidence-proportional (pair-weighted) — on the Figures-3/4 protocol:
predict held-out trace sizes from their initiators, compare RMSE and
the error-capture rate.

Expected shape: all data-based schemes land in the same accuracy band
(the paper's choice of Eq. 9 is motivated by personalisation, not raw
RMSE); none should be wildly worse than uniform, and the time-aware
schemes should not lose to uniform on the capture rate at the paper's
headline tolerance.
"""

from repro.core.credit import TimeDecayCredit, UniformCredit
from repro.core.params import learn_influenceability
from repro.core.spread import CDSpreadEvaluator
from repro.core.variants import (
    LinearDecayCredit,
    PairWeightedCredit,
    PowerDecayCredit,
)
from repro.evaluation.metrics import capture_curve, rmse
from repro.evaluation.prediction import PredictionExperiment, held_out_traces
from repro.evaluation.reporting import format_table
from repro.probabilities.lt_weights import count_propagations

MAX_TEST_TRACES = 50
CAPTURE_TOLERANCE = 10.0


def test_ablation_credit_schemes(
    benchmark, report, flixster_small, flixster_split
):
    graph = flixster_small.graph
    train, test = flixster_split
    params = learn_influenceability(graph, train)
    pair_counts = count_propagations(graph, train)

    schemes = {
        "uniform": UniformCredit(),
        "Eq.9 exp decay": TimeDecayCredit(params),
        "linear decay": LinearDecayCredit(params),
        "power decay": PowerDecayCredit(params),
        "pair-weighted": PairWeightedCredit(pair_counts),
    }
    predictors = {
        name: CDSpreadEvaluator(graph, train, credit=scheme).spread
        for name, scheme in schemes.items()
    }
    traces = held_out_traces(graph, test, MAX_TEST_TRACES)

    experiment = benchmark.pedantic(
        lambda: PredictionExperiment.from_predictions(
            traces,
            {
                name: [predict(list(seeds)) for seeds, _ in traces]
                for name, predict in predictors.items()
            },
        ),
        rounds=1,
        iterations=1,
    )

    rows = []
    results: dict[str, tuple[float, float]] = {}
    for name in schemes:
        pairs = experiment.pairs(name)
        error = rmse(pairs)
        captured = capture_curve(pairs, [CAPTURE_TOLERANCE])[0][1]
        results[name] = (error, captured)
        rows.append([name, f"{error:.1f}", f"{captured:.0%}"])
    report(
        format_table(
            ["credit scheme", "RMSE", f"captured (err<={CAPTURE_TOLERANCE:.0f})"],
            rows,
            title=(
                "Ablation — direct-credit schemes on held-out prediction "
                f"(flixster_small, {experiment.num_test_traces} test traces)\n"
                "paper: Eq. 9 chosen for personalisation; uniform shown "
                "'for ease of exposition'"
            ),
        )
    )
    errors = {name: error for name, (error, _) in results.items()}
    best = min(errors.values())
    # Every data-based scheme lands in the same accuracy band.
    assert all(error <= 2.0 * best for error in errors.values())
    # The paper's Eq. 9 scheme is competitive with the best variant.
    assert errors["Eq.9 exp decay"] <= 1.5 * best
