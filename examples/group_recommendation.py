"""Spread prediction for photo-platform interest groups (Flickr scenario).

The paper's second dataset treats "join interest group g" as the action.
A platform that can *predict* how far a group will spread from its first
few members can rank nascent groups for promotion.  This example runs
the prediction protocol through :func:`repro.api.run_experiment`:

1. builds a Flickr-like dataset (dense graph, many short cascades);
2. trains the CD, IC(EM) and LT models on 80% of the traces;
3. predicts, for each held-out group, its final size from its initiators;
4. scores the predictions exactly as Figures 3-4 do (binned RMSE and the
   absolute-error capture curve).

Run with:  python examples/group_recommendation.py
"""

from repro.api import ExperimentConfig, run_experiment
from repro.evaluation.metrics import binned_rmse, capture_curve
from repro.evaluation.reporting import format_table


def main() -> None:
    print("training IC / LT / CD on 80% of traces, predicting the rest...\n")
    result = run_experiment(
        ExperimentConfig(
            task="prediction",
            dataset="flickr",
            scale="small",
            methods=["IC", "LT", "CD"],
            num_simulations=200,
            max_test_traces=60,
        )
    )
    methods = result.prediction_methods()
    print(
        f"dataset: {result.dataset_name} "
        f"({len(result.pairs(methods[0]))} held-out group histories)\n"
    )

    print("binned RMSE (lower is better):")
    rows = []
    for method in methods:
        binned = binned_rmse(result.pairs(method), bin_width=20)
        overall = sum(r * c for _, r, c in binned) / sum(c for _, _, c in binned)
        rows.append([method, f"{overall:.1f}"])
    print(format_table(["method", "weighted RMSE"], rows))

    print("\nfraction of groups predicted within an absolute error of e:")
    thresholds = [1, 2, 5, 10, 20]
    rows = []
    for method in methods:
        curve = dict(capture_curve(result.pairs(method), thresholds))
        rows.append([method, *[f"{curve[t]:.2f}" for t in thresholds]])
    print(
        format_table(
            ["method", *[f"e<={t}" for t in thresholds]],
            rows,
        )
    )

    print(
        "\nExpected shape (paper Figures 3-4): CD captures the largest\n"
        "fraction of propagations at every error tolerance."
    )


if __name__ == "__main__":
    main()
