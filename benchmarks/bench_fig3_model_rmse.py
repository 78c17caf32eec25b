"""Figure 3: spread-prediction RMSE of the IC, LT and CD models.

Models are trained on the 80% training traces; each test trace's
initiators form the seed set and the trace size is the actual spread.
Expected shapes: CD has the lowest error on both datasets; the IC-vs-LT
ordering flips between the sparse (flixster) and dense (flickr) dataset.

Runs through the unified runtime as
``ExperimentConfig(task="prediction")`` — the same config format (and
stage pipeline) the selection benches use.
"""

from benchmarks.conftest import MAX_TEST_TRACES
from repro.api import ExperimentConfig, run_experiment
from repro.evaluation.metrics import binned_rmse
from repro.evaluation.reporting import format_series, format_table

NUM_SIMULATIONS = 200


def _run(dataset, name):
    config = ExperimentConfig(
        task="prediction",
        dataset=name,
        scale="small",
        methods=["IC", "LT", "CD"],
        num_simulations=NUM_SIMULATIONS,
        max_test_traces=MAX_TEST_TRACES,
    )
    return run_experiment(config, dataset=dataset)


def _report_dataset(report, result, name, bin_width):
    series = {
        method: [
            (lower, value)
            for lower, value, _ in binned_rmse(result.pairs(method), bin_width)
        ]
        for method in result.prediction_methods()
    }
    report(
        format_series(
            "spread-bin",
            series,
            title=(
                f"Figure 3 ({name}) — RMSE by actual-spread bin\n"
                "paper shape: CD lowest across bins"
            ),
        )
    )


def test_fig3_flixster(benchmark, report, flixster_small):
    result = benchmark.pedantic(
        lambda: _run(flixster_small, "flixster"), rounds=1, iterations=1
    )
    _report_dataset(report, result, "flixster_small", bin_width=20.0)
    overall = result.rmse_table()
    report(
        format_table(
            ["method", "overall RMSE"],
            [[m, f"{overall[m]:.1f}"] for m in result.prediction_methods()],
        )
    )
    # Flixster shape: CD most accurate, LT worst (IC beats LT here; the
    # ordering flips on the flickr dataset below, as in the paper).
    assert overall["CD"] <= 1.15 * overall["IC"]
    assert overall["CD"] <= overall["LT"]
    assert overall["IC"] <= overall["LT"]


def test_fig3_flickr(benchmark, report, flickr_small):
    result = benchmark.pedantic(
        lambda: _run(flickr_small, "flickr"), rounds=1, iterations=1
    )
    _report_dataset(report, result, "flickr_small", bin_width=20.0)
    overall = result.rmse_table()
    report(
        format_table(
            ["method", "overall RMSE"],
            [[m, f"{overall[m]:.1f}"] for m in result.prediction_methods()],
        )
    )
    # Flickr shape (the paper's "interesting observation"): the IC/LT
    # ordering flips — LT beats IC here — and CD sits at the accurate
    # end.  At reproduction scale CD and LT are a statistical tie on the
    # dense dataset (within a few percent), so CD is held to LT's band
    # rather than strictly below it.
    assert overall["CD"] <= 1.05 * overall["LT"]
    assert overall["CD"] <= overall["IC"]
    assert overall["LT"] <= overall["IC"]
