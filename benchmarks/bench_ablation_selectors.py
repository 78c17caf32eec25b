"""Ablation: the seed-selector zoo, measured on a common yardstick.

Beyond the paper's own comparison (Figure 6), this bench lines up every
seed-selection algorithm the library implements — the CD maximizer, the
lazy greedy (CELF), the sampling-based RIS selector, the
simulation-free SimPath (LT) estimator, and the structural heuristics
(High-Degree, DegreeDiscount) — on one dataset, reporting runtime and
the spread of each selector's seeds under the CD proxy (the paper's
best-available ground truth).

The whole zoo is one :class:`repro.api.ExperimentConfig`: selectors are
named registry entries and :func:`repro.api.run_experiment` owns the
learn→select→evaluate pipeline (artifacts come from the session-shared
context fixture).

Expected shape: the data-based CD seeds dominate under the CD yardstick
(by construction *and* by the Figure-6 argument); among the structural
methods DegreeDiscount ≥ HighDegree; every method runs in seconds at
this scale.
"""

import pytest

from repro.api import ExperimentConfig, run_experiment
from repro.evaluation.reporting import format_table

K = 10
NUM_RR_SETS = 3000

SELECTORS = [
    {"name": "cd", "label": "CD (cd_maximize)"},
    {"name": "celf", "params": {"model": "cd"}, "label": "CELF over sigma_cd"},
    {"name": "ris", "params": {"num_rr_sets": NUM_RR_SETS, "seed": 7},
     "label": "RIS (EM probabilities)"},
    {"name": "simpath", "params": {"eta": 1e-3},
     "label": "SimPath (LT weights)"},
    {"name": "irie", "label": "IRIE (EM probabilities)"},
    {"name": "high_degree", "label": "HighDegree"},
    {"name": "single_discount", "label": "SingleDiscount"},
    {"name": "degree_discount", "params": {"probability": 0.01},
     "label": "DegreeDiscountIC"},
]


def test_ablation_selector_zoo(
    benchmark, report, flixster_small, flixster_context
):
    config = ExperimentConfig(
        dataset="flixster", scale="small", selectors=SELECTORS, ks=[K]
    )
    result = benchmark.pedantic(
        lambda: run_experiment(
            config, dataset=flixster_small, context=flixster_context
        ),
        rounds=1,
        iterations=1,
    )

    quality = result.final_spreads()
    rows = [
        [run.label, f"{run.selection.wall_time_s:.2f}s",
         f"{quality[run.label]:.1f}"]
        for run in result.runs
    ]
    report(
        format_table(
            ["selector", "runtime", "spread under CD proxy"],
            rows,
            title=(
                f"Ablation — seed-selector zoo (flixster_small, k={K})\n"
                "yardstick: sigma_cd with Eq.9 credits (the Figure-6 proxy)"
            ),
        )
    )
    # The CD maximizer is (near-)optimal under its own yardstick.
    cd_seeds_quality = quality["CD (cd_maximize)"]
    assert all(
        cd_seeds_quality >= 0.99 * spread for spread in quality.values()
    )
    # The lazy variants agree with the index-based maximizer.
    assert quality["CELF over sigma_cd"] == pytest.approx(
        cd_seeds_quality, rel=0.01
    )
    # Discounted degree never falls behind plain degree.
    assert quality["DegreeDiscountIC"] >= 0.95 * quality["HighDegree"]
