"""Scoring, statistics and reporting over :func:`repro.api.run_experiment`.

The paper's two evaluation protocols — held-out spread prediction
(Figures 2-4) and seed selection scored under the CD proxy (Table 2,
Figures 5-9) — run only through :func:`repro.api.run_experiment`.  This
package measures and reports what they produce:

* :mod:`~repro.evaluation.metrics` — binned RMSE (Figures 2-3), the
  absolute-error capture curve (Figure 4), seed-set intersection
  matrices (Table 2, Figure 5);
* :mod:`~repro.evaluation.prediction` — the held-out traces and the
  prediction records, shared with custom predictors;
* :mod:`~repro.evaluation.selection` — the paper's method names as
  registry selectors;
* :mod:`~repro.evaluation.comparison` — bootstrap model comparison and
  the selector head-to-head;
* :mod:`~repro.evaluation.performance` — scalability, training-size and
  truncation sweeps (Figures 8-9, Table 4);
* :mod:`~repro.evaluation.reporting` — ASCII rendering shared by the
  benchmark suite.
"""

from repro.evaluation.export import (
    export_matrix,
    export_prediction_pairs,
    export_series,
    write_rows,
)
from repro.evaluation.metrics import (
    binned_rmse,
    capture_curve,
    rmse,
    seed_set_intersections,
)
from repro.evaluation.prediction import PredictionExperiment, held_out_traces
from repro.evaluation.performance import (
    scalability_experiment,
    truncation_experiment,
)
from repro.evaluation.comparison import (
    ComparisonResult,
    ModelReport,
    SelectorComparison,
    compare_models,
    compare_selectors,
)
from repro.evaluation.groundtruth import (
    ground_truth_evaluation,
    true_spread,
)
from repro.evaluation.plots import ascii_line_chart, ascii_scatter
from repro.evaluation.reporting import format_matrix, format_series, format_table
from repro.evaluation.robustness import (
    NoisePoint,
    PerturbedCredit,
    cd_noise_sweep,
    ic_noise_sweep,
)
from repro.evaluation.significance import (
    PairedComparison,
    bootstrap_ci,
    paired_bootstrap_test,
    sign_test,
)
from repro.evaluation.selection import method_selector

__all__ = [
    "rmse",
    "binned_rmse",
    "capture_curve",
    "seed_set_intersections",
    "PredictionExperiment",
    "held_out_traces",
    "scalability_experiment",
    "truncation_experiment",
    "format_table",
    "format_series",
    "format_matrix",
    "write_rows",
    "export_prediction_pairs",
    "export_series",
    "export_matrix",
    "ascii_line_chart",
    "ascii_scatter",
    "bootstrap_ci",
    "PairedComparison",
    "paired_bootstrap_test",
    "sign_test",
    "NoisePoint",
    "PerturbedCredit",
    "ic_noise_sweep",
    "cd_noise_sweep",
    "ModelReport",
    "ComparisonResult",
    "compare_models",
    "SelectorComparison",
    "compare_selectors",
    "method_selector",
    "true_spread",
    "ground_truth_evaluation",
]
