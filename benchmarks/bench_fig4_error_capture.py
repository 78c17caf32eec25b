"""Figure 4: fraction of propagations captured within an absolute error.

The cumulative view of the Figure-3 predictions: a point (x, y) means a
fraction y of the test propagations was predicted within absolute error
x.  Expected shape: the CD curve dominates IC and LT at (almost) every
tolerance — the paper reports e.g. 67% vs 46% (IC) and 26% (LT) at
error 30 on Flixster.

Runs through the unified runtime as
``ExperimentConfig(task="prediction")``; the capture curves come
straight off ``ExperimentResult.capture_table``.
"""

from benchmarks.conftest import MAX_TEST_TRACES
from repro.api import ExperimentConfig, run_experiment
from repro.evaluation.reporting import format_series

THRESHOLDS = [0, 2, 5, 10, 20, 30, 50, 80]
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


def _series(result):
    return result.capture_table(THRESHOLDS)


def test_fig4_flixster(benchmark, report, flixster_small):
    result = benchmark.pedantic(
        lambda: _run(flixster_small, "flixster"), rounds=1, iterations=1
    )
    series = _series(result)
    report(
        format_series(
            "abs-error",
            series,
            title=(
                "Figure 4 (flixster_small) — propagations captured within error\n"
                "paper shape: CD curve above IC and LT"
            ),
        )
    )
    cd_final = series["CD"][-1][1]
    assert cd_final >= series["IC"][-1][1] - 0.15
    assert cd_final >= series["LT"][-1][1] - 0.15


def test_fig4_flickr(benchmark, report, flickr_small):
    result = benchmark.pedantic(
        lambda: _run(flickr_small, "flickr"), rounds=1, iterations=1
    )
    series = _series(result)
    report(
        format_series(
            "abs-error",
            series,
            title="Figure 4 (flickr_small) — propagations captured within error",
        )
    )
    # Average capture across tolerances: CD should lead.
    def mean_capture(method):
        return sum(f for _, f in series[method]) / len(THRESHOLDS)

    assert mean_capture("CD") >= mean_capture("IC") - 0.1
    assert mean_capture("CD") >= mean_capture("LT") - 0.1
