"""Ablation: noise-robustness curves (the PT experiment, generalised).

The paper probes robustness at one point — EM probabilities perturbed
by ±20% (PT) — and finds seed selection barely moves (Table 2's
EM∩PT = 44/50).  This bench sweeps the noise level for both the
IC-with-EM pipeline and the CD model itself, reporting seed-set overlap
with the clean run and quality retention (spread of noisy seeds under
the clean model).

Expected shape: at ±20% both pipelines retain nearly all their quality
(the paper's PT conclusion); overlap decays gracefully as noise grows;
quality retention stays high even where overlap drops (seeds are
interchangeable, not irreplaceable).
"""

from repro.evaluation.reporting import format_table
from repro.evaluation.robustness import cd_noise_sweep, ic_noise_sweep

K = 10
NOISE_LEVELS = (0.0, 0.2, 0.5, 1.0)
NUM_SIMULATIONS = 40


def test_ablation_noise_robustness(
    benchmark, report, flixster_small, flixster_split, flixster_context
):
    graph = flixster_small.graph
    train, _ = flixster_split
    em_probabilities = flixster_context.ic_probabilities("EM")

    ic_points = ic_noise_sweep(
        graph,
        em_probabilities,
        k=K,
        noise_levels=NOISE_LEVELS,
        num_simulations=NUM_SIMULATIONS,
    )
    cd_points = benchmark.pedantic(
        lambda: cd_noise_sweep(
            graph, train, k=K, noise_levels=NOISE_LEVELS
        ),
        rounds=1,
        iterations=1,
    )

    rows = []
    for ic_point, cd_point in zip(ic_points, cd_points):
        rows.append(
            [
                f"±{ic_point.noise:.0%}",
                f"{ic_point.overlap}/{K}",
                f"{ic_point.quality_ratio:.0%}",
                f"{cd_point.overlap}/{K}",
                f"{cd_point.quality_ratio:.0%}",
            ]
        )
    report(
        format_table(
            [
                "noise",
                "IC overlap",
                "IC quality",
                "CD overlap",
                "CD quality",
            ],
            rows,
            title=(
                f"Ablation — noise robustness (flixster_small, k={K})\n"
                "paper (PT, ±20% on EM): 44/50 overlap — 'robust against "
                "some noise in the probability learning step'"
            ),
        )
    )
    by_noise_ic = {point.noise: point for point in ic_points}
    by_noise_cd = {point.noise: point for point in cd_points}
    # Zero noise is a perfect control.
    assert by_noise_ic[0.0].overlap == K
    assert by_noise_cd[0.0].overlap == K
    # The paper's operating point: ±20% keeps most seeds and quality.
    assert by_noise_cd[0.2].overlap >= K // 2
    assert by_noise_cd[0.2].quality_ratio >= 0.9
    assert by_noise_ic[0.2].quality_ratio >= 0.75
