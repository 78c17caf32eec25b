"""Figure 7: running time of IC, LT (MC greedy + CELF) and CD vs k.

The paper's headline efficiency result: selecting 50 seeds on
Flixster_Small takes 40 h (IC) / 25 h (LT) with MC+CELF but 3 minutes
with CD.  We reproduce the *orders-of-magnitude gap* at reduced scale
through :func:`repro.api.run_experiment`: the three methods are
registry selectors whose adapters record cumulative runtime-vs-k
(``time_log``) *including* the learning/scanning cost each method
triggers — a fresh context (no shared artifacts) keeps the attribution
honest, exactly as the paper charges each method with its own
preprocessing.
"""

from benchmarks.conftest import NUM_SIMULATIONS
from repro.api import ExperimentConfig, run_experiment
from repro.evaluation.reporting import format_series

K_RUNTIME = 10  # MC greedy is the paper's bottleneck; keep the sweep short.

SELECTORS = [
    {"name": "celf", "params": {"model": "ic", "seed": 7}, "label": "IC"},
    {"name": "celf", "params": {"model": "lt", "seed": 7}, "label": "LT"},
    {"name": "cd", "label": "CD"},
]


def test_fig7_runtime_comparison(benchmark, report, flixster_small):
    config = ExperimentConfig(
        dataset="flixster",
        scale="small",
        selectors=SELECTORS,
        ks=[K_RUNTIME],
        num_simulations=NUM_SIMULATIONS,
        evaluate_spread=False,  # pure-runtime experiment
        executor="serial",  # parallel prefetch would drop CD's scan
    )
    curves = benchmark.pedantic(
        # A fresh context per run: each method pays for the artifacts
        # it triggers (EM learning, LT learning, the credit scan).
        lambda: run_experiment(config, dataset=flixster_small).runtime_curves(),
        rounds=1,
        iterations=1,
    )
    series = {
        method: [(float(count), elapsed) for count, elapsed in points]
        for method, points in curves.items()
    }
    report(
        format_series(
            "k",
            series,
            title=(
                "Figure 7 (flixster_small) — cumulative seconds to select k seeds\n"
                "paper shape: CD orders of magnitude below IC and LT"
            ),
            y_format="{:.2f}",
        )
    )
    cd_total = series["CD"][-1][1]
    ic_total = series["IC"][-1][1]
    lt_total = series["LT"][-1][1]
    # The paper reports ~800x (IC) and ~500x (LT); at our scale demand
    # at least one order of magnitude.
    assert ic_total >= 10 * cd_total
    assert lt_total >= 5 * cd_total
