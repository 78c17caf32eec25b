"""Extension: time-bounded influence under continuous-time IC.

The paper's Eq. 9 bakes propagation *delays* into the credit model but
the IC/LT comparison still targets the unbounded final spread.  This
bench uses the CTIC model to ask the deadline question the discrete
models cannot: how much of the spread arrives within a time budget T,
and how much does the delay distribution's tail matter?

Expected shape: sigma(S, T) rises monotonically to the discrete-IC
value as T grows; heavy-tailed (lognormal) delays shift spread past any
fixed deadline relative to exponential delays with the same typical
scale — the same heavy-tail phenomenon the dataset generators model
(``delay_sigma`` in ``repro.data.datasets``) and the reason Eq. 9 learns
per-pair tau.
"""

import math

from repro.diffusion.ctic import (
    estimate_spread_ctic,
    exponential_delays,
    lognormal_delays,
)
from repro.diffusion.ic import estimate_spread_ic
from repro.evaluation.reporting import format_table
from repro.maximization.degree_discount import degree_discount_ic_seeds

K = 5
HORIZONS = (0.5, 1.0, 2.0, 4.0, 8.0)
NUM_SIMULATIONS = 300


def test_extension_ctic_deadline(
    benchmark, report, flixster_small, flixster_context
):
    graph = flixster_small.graph
    probabilities = flixster_context.ic_probabilities("EM")
    seeds = degree_discount_ic_seeds(graph, K, probability=0.01)

    unbounded = estimate_spread_ic(
        graph, probabilities, seeds, num_simulations=NUM_SIMULATIONS, seed=1
    )

    def sweep(sampler):
        return [
            estimate_spread_ctic(
                graph,
                probabilities,
                seeds,
                horizon=horizon,
                delay_sampler=sampler,
                num_simulations=NUM_SIMULATIONS,
                seed=2,
            )
            for horizon in HORIZONS
        ]

    exponential = benchmark.pedantic(
        lambda: sweep(exponential_delays(1.0)), rounds=1, iterations=1
    )
    heavy = sweep(lognormal_delays(median=1.0, sigma=2.0))

    rows = [
        [f"T = {horizon}", f"{exp:.1f}", f"{log:.1f}"]
        for horizon, exp, log in zip(HORIZONS, exponential, heavy)
    ]
    rows.append(["T = inf (discrete IC)", f"{unbounded:.1f}", f"{unbounded:.1f}"])
    report(
        format_table(
            ["deadline", "exponential delays", "lognormal delays"],
            rows,
            title=(
                f"Extension — time-bounded spread sigma(S, T) "
                f"(flixster_small, k={K}, EM probabilities)\n"
                "shape: monotone in T; heavy tails defer spread past "
                "fixed deadlines"
            ),
        )
    )
    # Monotone in the deadline, converging to the discrete-IC value.
    assert exponential == sorted(exponential)
    assert heavy == sorted(heavy)
    assert exponential[-1] <= unbounded * 1.1
    # The heavy tail defers spread at every finite deadline shown.
    assert all(
        log_spread <= exp_spread + 0.5
        for exp_spread, log_spread in zip(exponential, heavy)
    )
    # ...but both converge to the same reachability-determined limit.
    final_gap = abs(
        estimate_spread_ctic(
            graph, probabilities, seeds, horizon=math.inf,
            num_simulations=NUM_SIMULATIONS, seed=3,
        )
        - unbounded
    )
    assert final_gap <= 0.15 * unbounded
