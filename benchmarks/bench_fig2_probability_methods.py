"""Figure 2: spread-prediction error of UN/TV/WC/EM/PT (Section 3, Exp. 2).

For each held-out propagation trace, each method predicts the spread of
the trace's initiators; error is reported as RMSE binned by actual
spread (Figures 2a/2c) plus a predicted-vs-actual scatter summary
(Figure 2b).  Expected shape: EM and PT nearly indistinguishable and
far more accurate than UN/TV/WC, which systematically mispredict.

The whole protocol is one ``ExperimentConfig(task="prediction")`` run
through the unified runtime (``repro.api.run_experiment``); the
session-scoped dataset fixture is passed in so synthesis cost is shared
across benches.
"""

from benchmarks.conftest import MAX_TEST_TRACES, NUM_SIMULATIONS
from repro.api import ExperimentConfig, run_experiment
from repro.evaluation.metrics import binned_rmse, rmse
from repro.evaluation.reporting import format_series, format_table

METHODS = ["UN", "WC", "TV", "EM", "PT"]


def _run(dataset, name):
    config = ExperimentConfig(
        task="prediction",
        dataset=name,
        scale="small",
        methods=METHODS,
        num_simulations=NUM_SIMULATIONS,
        max_test_traces=MAX_TEST_TRACES,
    )
    return run_experiment(config, dataset=dataset)


def test_fig2a_rmse_flixster(benchmark, report, flixster_small):
    result = benchmark.pedantic(
        lambda: _run(flixster_small, "flixster"), rounds=1, iterations=1
    )
    bin_width = 20.0
    series = {
        method: [
            (lower, value)
            for lower, value, _ in binned_rmse(result.pairs(method), bin_width)
        ]
        for method in METHODS
    }
    report(
        format_series(
            "spread-bin",
            series,
            title=(
                "Figure 2(a) (flixster_small) — RMSE by actual-spread bin\n"
                "paper shape: EM ~= PT << UN, TV, WC"
            ),
        )
    )
    overall = result.rmse_table()
    assert overall["EM"] <= min(overall["UN"], overall["TV"], overall["WC"])
    assert abs(overall["EM"] - overall["PT"]) <= 0.5 * overall["EM"]


def test_fig2b_scatter_summary(report, flixster_small, benchmark):
    result = benchmark.pedantic(
        lambda: _run(flixster_small, "flixster"), rounds=1, iterations=1
    )
    rows = []
    for method in METHODS:
        pairs = result.pairs(method)
        mean_actual = sum(a for a, _ in pairs) / len(pairs)
        mean_predicted = sum(p for _, p in pairs) / len(pairs)
        rows.append(
            [method, f"{mean_actual:.1f}", f"{mean_predicted:.1f}",
             f"{rmse(pairs):.1f}"]
        )
    report(
        format_table(
            ["method", "mean actual", "mean predicted", "RMSE"],
            rows,
            title=(
                "Figure 2(b) (flixster_small) — predicted vs actual summary\n"
                "paper shape: WC/TV overpredict; EM/PT track the diagonal"
            ),
        )
    )


def test_fig2c_rmse_flickr(benchmark, report, flickr_small):
    result = benchmark.pedantic(
        lambda: _run(flickr_small, "flickr"), rounds=1, iterations=1
    )
    overall = result.rmse_table()
    rows = [[method, f"{overall[method]:.1f}"] for method in METHODS]
    report(
        format_table(
            ["method", "RMSE"],
            rows,
            title="Figure 2(c) (flickr_small) — overall RMSE",
        )
    )
    # Documented deviation (docs/CLAIMS.md, row C2): at this miniature scale
    # the dense dataset's overall RMSE is dominated by a handful of very
    # large traces and does not separate the probability methods the way
    # the paper's full-size Flickr does; we assert only that EM stays in
    # the same band as the best method (WC's degree normalisation gets
    # lucky on the dense mini realization).  The discriminating version
    # of this experiment is Figure 2(a)/(b) on the sparse dataset, where
    # EM dominates clearly.
    best = min(overall.values())
    assert overall["EM"] <= 1.5 * best
