"""Viral-marketing scenario: choosing users to seed a movie campaign.

The paper's motivating application (Section 1): a studio wants to give
free tickets to k users of a movie-rating platform so that as many
people as possible end up rating (watching) the movie.  This example
compares four ways of choosing those k users on a Flixster-like dataset:

* CD       — the paper's data-based method;
* IC (EM)  — the standard approach: learn edge probabilities with EM,
             run greedy under the IC model (via the PMIA heuristic);
* HighDegree / PageRank — structural heuristics that ignore the log.

Each method's seed set is then scored with ``sigma_cd`` — the spread
estimator the paper shows to be closest to ground truth — and we also
report the average activity of the chosen seeds, reproducing the
paper's observation that IC-with-EM picks rarely-active users.

Run with:  python examples/movie_campaign.py
"""

from repro import flixster_like, train_test_split
from repro.api import ExperimentConfig, run_experiment

K = 15
SELECTORS = [
    {"name": "cd", "label": "CD"},
    {"name": "pmia", "params": {"method": "EM"}, "label": "IC"},
    {"name": "high_degree", "label": "HighDegree"},
    {"name": "pagerank", "label": "PageRank"},
]


def main() -> None:
    dataset = flixster_like("small")
    train, _ = train_test_split(dataset.log)
    print(f"campaign dataset: {dataset.name} ({dataset.graph.num_nodes} users)")
    print(f"choosing {K} seed users per method...\n")

    result = run_experiment(
        ExperimentConfig(
            dataset="flixster", scale="small", selectors=SELECTORS, ks=[K]
        ),
        dataset=dataset,
    )
    spreads = result.final_spreads()

    print(f"{'method':<12} {'sigma_cd':>9} {'avg seed activity':>18}")
    for method in result.labels():
        spread = spreads[method]
        seeds = result.selections(method)[0].seeds
        activities = [train.activity(seed) for seed in seeds]
        average_activity = sum(activities) / len(activities)
        print(f"{method:<12} {spread:9.1f} {average_activity:18.1f}")

    print(
        "\nNote the paper's Section-6 finding: the IC model (EM-learned\n"
        "probabilities) tends to pick much less active users than CD,\n"
        "because EM assigns probability 1.0 to edges observed only once."
    )


if __name__ == "__main__":
    main()
