"""Extension: Figure 6 re-run against the hidden ground truth.

The paper cannot observe the actual spread of arbitrary seed sets, so
Figure 6 scores every method with the CD model's own estimate — the
best available proxy, but a proxy.  Our synthetic substrate keeps the
hidden cascade model that generated the log, so this bench re-runs the
Figure-6 comparison with the *oracle* yardstick: Monte Carlo over the
true (never-learned) dynamics.

Expected shape — and the validation it provides: the oracle reproduces
the paper's proxy-based ordering (CD ≥ LT > High-Degree/PageRank > IC),
confirming that (a) the CD model's seeds really are the best, not just
self-preferred, and (b) using sigma_cd as the Figure-6 ground-truth
proxy was sound on this substrate.
"""

from repro.evaluation.groundtruth import ground_truth_evaluation
from repro.evaluation.reporting import format_table
from repro.evaluation.selection import method_selector

K = 10
NUM_SIMULATIONS = 150
METHODS = ["CD", "EM", "LT", "HighDegree", "PageRank"]


def test_extension_ground_truth(
    benchmark, report, flixster_small, flixster_context
):
    seed_sets = {
        method: method_selector(method).select(flixster_context, K).seeds
        for method in METHODS
    }
    scores = benchmark.pedantic(
        lambda: ground_truth_evaluation(
            flixster_small, seed_sets, num_simulations=NUM_SIMULATIONS
        ),
        rounds=1,
        iterations=1,
    )
    ranked = sorted(scores.items(), key=lambda pair: -pair[1])
    report(
        format_table(
            ["method", "true expected spread"],
            [[method, f"{score:.1f}"] for method, score in ranked],
            title=(
                f"Extension — Figure 6 under the hidden-truth oracle "
                f"(flixster_small, k={K}, {NUM_SIMULATIONS} simulations)\n"
                "paper (CD-proxy yardstick): CD >= LT > heuristics > IC"
            ),
        )
    )
    # The paper's ordering, validated by the oracle:
    # CD at the top (within MC noise of the best)...
    best = ranked[0][1]
    assert scores["CD"] >= 0.95 * best
    # ...IC-with-EM at the bottom, below both structural heuristics
    # (the Section-6 "rarely active seeds" pathology is real).
    assert scores["EM"] <= scores["HighDegree"]
    assert scores["EM"] <= scores["CD"]
    # LT's learned weights beat the structure-only heuristics.
    assert scores["LT"] >= 0.95 * scores["HighDegree"]