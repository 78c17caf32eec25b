"""Figure 5: seed-set intersections between the IC, LT and CD models.

Expected shape (paper): IC's seed set is disjoint from both LT's and
CD's; LT and CD overlap substantially (~50%).  As in the paper, IC uses
the PMIA heuristic and LT uses LDAG where MC greedy would be too slow.
"""

from benchmarks.conftest import K_SELECT
from repro.evaluation.metrics import seed_set_intersections
from repro.evaluation.reporting import format_matrix
from repro.evaluation.selection import method_selector

METHODS = ["IC", "LT", "CD"]


def _matrix(context, k):
    seed_sets = {
        method: method_selector(method).select(context, k).seeds
        for method in METHODS
    }
    return seed_set_intersections(seed_sets)


def test_fig5_flixster(benchmark, report, flixster_context):
    matrix = benchmark.pedantic(
        lambda: _matrix(flixster_context, K_SELECT), rounds=1, iterations=1
    )
    report(
        format_matrix(
            METHODS,
            matrix,
            title=(
                f"Figure 5 (flixster_small, k={K_SELECT}) — model seed overlap\n"
                "paper shape: IC∩LT = IC∩CD = 0; LT∩CD ~ 50%"
            ),
        )
    )
    assert matrix[("IC", "CD")] <= matrix[("LT", "CD")]
    assert matrix[("IC", "CD")] / K_SELECT <= 0.3


def test_fig5_flickr(benchmark, report, flickr_context):
    matrix = benchmark.pedantic(
        lambda: _matrix(flickr_context, K_SELECT), rounds=1, iterations=1
    )
    report(
        format_matrix(
            METHODS,
            matrix,
            title=f"Figure 5 (flickr_small, k={K_SELECT}) — model seed overlap",
        )
    )
    assert matrix[("IC", "CD")] <= matrix[("LT", "CD")] + K_SELECT // 5
