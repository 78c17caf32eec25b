"""Figure 9: solution quality vs number of training tuples.

For each tuple budget, one ``cd`` run through ``run_experiment`` selects
seeds from the sub-log; quality is (a) the spread of those seeds under
the *full-log* CD model (the full-log point's ``cd_evaluator()``) and
(b) the overlap with the "true seeds", the full-log point's own.
Expected shape: both saturate well before the full log — a small sample
of traces suffices, which is why the paper concludes memory "in reality
... is not that high".
"""

from benchmarks.conftest import tuple_sweep
from repro.evaluation.reporting import format_table

K = 25


def _sweep(dataset, fractions=(0.15, 0.3, 0.5, 0.75, 1.0)):
    rows, full = tuple_sweep(dataset, fractions, K)
    evaluator = full.cd_evaluator()
    true_seeds = set(rows[-1].seeds)
    for row in rows:
        row.spread = evaluator.spread(row.seeds)
        row.true_seed_overlap = len(true_seeds & set(row.seeds))
    return rows


def _report_rows(report, rows, name):
    report(
        format_table(
            ["#tuples", "spread (full-log CD)", f"true seeds (of {K})"],
            [
                [row.num_tuples, f"{row.spread:.1f}", row.true_seed_overlap]
                for row in rows
            ],
            title=(
                f"Figure 9 ({name}) — quality vs training tuples\n"
                "paper shape: spread and true-seed overlap saturate early"
            ),
        )
    )


def test_fig9_flixster_large(benchmark, report, flixster_large):
    rows = benchmark.pedantic(
        lambda: _sweep(flixster_large), rounds=1, iterations=1
    )
    _report_rows(report, rows, "flixster_large")
    # The full log recovers itself.
    assert rows[-1].true_seed_overlap == K
    # Saturation shape: 75% of tuples already reaches ~most of the final
    # spread, and half the tuples reaches >= 80%.
    assert rows[-2].spread >= 0.9 * rows[-1].spread
    assert rows[2].spread >= 0.8 * rows[-1].spread


def test_fig9_flickr_large(benchmark, report, flickr_large):
    # Fewer sweep points on the denser dataset to bound suite runtime.
    rows = benchmark.pedantic(
        lambda: _sweep(flickr_large, fractions=(0.3, 0.6, 1.0)),
        rounds=1,
        iterations=1,
    )
    _report_rows(report, rows, "flickr_large")
    assert rows[-1].true_seed_overlap == K
    assert rows[-2].spread >= 0.85 * rows[-1].spread
