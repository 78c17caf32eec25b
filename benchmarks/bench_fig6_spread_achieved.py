"""Figure 6: influence spread achieved by each method's seeds, under CD.

Since the actual spread of an arbitrary seed set cannot be read off the
data (the sparsity issue), the paper scores every method's seeds with
the most accurate predictor available — the CD model.  The five methods
are registry entries in one :class:`repro.api.ExperimentConfig`;
:func:`repro.api.run_experiment` selects once at the largest k and
evaluates every prefix on the grid.

Expected shape: CD on top, LT competitive, High-Degree and PageRank in
between, and IC *last* — EM's probability-1.0 edges make it pick rarely
active users (the paper's "user 168766" analysis).
"""

from benchmarks.conftest import K_SELECT
from repro.api import ExperimentConfig, run_experiment
from repro.evaluation.reporting import format_series, format_table

METHODS = ["CD", "LT", "IC", "HighDegree", "PageRank"]
SELECTORS = [
    {"name": "cd", "label": "CD"},
    {"name": "ldag", "label": "LT"},
    {"name": "pmia", "params": {"method": "EM"}, "label": "IC"},
    {"name": "high_degree", "label": "HighDegree"},
    {"name": "pagerank", "label": "PageRank"},
]
KS = [1, 5, 10, 15, 20, 25]


def _run(dataset, context, scale_name):
    config = ExperimentConfig(
        dataset=scale_name,
        scale="small",
        selectors=SELECTORS,
        ks=sorted(set(KS) | {K_SELECT}),
    )
    result = run_experiment(config, dataset=dataset, context=context)
    seed_sets = {
        label: result.selections(label)[0].seeds for label in result.labels()
    }
    series = {
        method: [(k, spread) for k, spread in points if k in KS]
        for method, points in result.spread_series().items()
    }
    return seed_sets, series


def _seed_activity_table(train, seed_sets):
    rows = []
    for method in METHODS:
        activities = [train.activity(seed) for seed in seed_sets[method]]
        rows.append([method, f"{sum(activities) / len(activities):.1f}"])
    return format_table(
        ["method", "avg actions per seed"],
        rows,
        title=(
            "Section-6 analysis — seed activity\n"
            "paper: IC seeds average 30.3 actions vs 1108.7 for CD seeds"
        ),
    )


def test_fig6_flixster(benchmark, report, flixster_small, flixster_context,
                       flixster_split):
    train, _ = flixster_split
    seed_sets, series = benchmark.pedantic(
        lambda: _run(flixster_small, flixster_context, "flixster"),
        rounds=1,
        iterations=1,
    )
    report(
        format_series(
            "k",
            series,
            title=(
                "Figure 6 (flixster_small) — spread achieved under CD\n"
                "paper shape: CD >= LT > HighDegree/PageRank > IC"
            ),
        )
    )
    report(_seed_activity_table(train, seed_sets))
    final = {method: series[method][-1][1] for method in METHODS}
    assert final["CD"] >= max(final.values()) - 1e-9  # CD dominates
    assert final["IC"] <= final["CD"]
    # The activity pathology: CD seeds are far more active than IC seeds.
    cd_activity = sum(train.activity(s) for s in seed_sets["CD"])
    ic_activity = sum(train.activity(s) for s in seed_sets["IC"])
    assert cd_activity > 2 * ic_activity


def test_fig6_flickr(benchmark, report, flickr_small, flickr_context,
                     flickr_split):
    seed_sets, series = benchmark.pedantic(
        lambda: _run(flickr_small, flickr_context, "flickr"),
        rounds=1,
        iterations=1,
    )
    report(
        format_series(
            "k",
            series,
            title="Figure 6 (flickr_small) — spread achieved under CD",
        )
    )
    final = {method: series[method][-1][1] for method in METHODS}
    assert final["CD"] >= max(final.values()) - 1e-9
