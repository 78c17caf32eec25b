"""The model-comparison benchmarks the paper's conclusion calls for.

"These observations further highlight the need for devising techniques
and benchmarks for comparing different influence models and the
associated influence maximization methods."  Two reports answer that
call, each a statistics layer over one :func:`repro.api.run_experiment`
result:

* :func:`compare_selectors` — the *maximization* head-to-head.  Any
  registered selector can enter the comparison by name; the report
  ranks every entry by the CD-proxy spread of its seeds (the Figure-6
  yardstick) alongside runtime and oracle-call counts.
* :func:`compare_models` — the *prediction* benchmark over a
  :class:`~repro.evaluation.prediction.PredictionExperiment`: per
  model, RMSE with a bootstrap confidence interval and the capture rate
  at a chosen tolerance, plus a pairwise significance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.evaluation.metrics import capture_curve
from repro.evaluation.prediction import PredictionExperiment
from repro.evaluation.reporting import format_series, format_table
from repro.evaluation.significance import (
    PairedComparison,
    bootstrap_ci,
    paired_bootstrap_test,
)
from repro.utils.validation import require

__all__ = [
    "ModelReport",
    "ComparisonResult",
    "compare_models",
    "SelectorComparison",
    "compare_selectors",
]


@dataclass(frozen=True)
class ModelReport:
    """Per-model accuracy summary.

    Attributes
    ----------
    name:
        The model's display name.
    rmse, rmse_lower, rmse_upper:
        Point estimate and bootstrap CI of the prediction RMSE.
    capture_rate:
        Fraction of test traces predicted within the tolerance.
    """

    name: str
    rmse: float
    rmse_lower: float
    rmse_upper: float
    capture_rate: float


@dataclass
class ComparisonResult:
    """Everything :func:`compare_models` measures.

    ``pairwise[(a, b)]`` holds the paired bootstrap comparison of model
    ``a`` against model ``b`` (negative difference = ``a`` more
    accurate); only ordered pairs with ``a != b`` are present.
    """

    reports: list[ModelReport] = field(default_factory=list)
    pairwise: dict[tuple[str, str], PairedComparison] = field(
        default_factory=dict
    )
    num_test_traces: int = 0
    tolerance: float = 0.0

    def ranking(self) -> list[str]:
        """Model names by ascending RMSE (best first)."""
        return [
            report.name
            for report in sorted(self.reports, key=lambda r: r.rmse)
        ]

    def significantly_better(self, first: str, second: str) -> bool:
        """True iff ``first`` beats ``second`` with a CI excluding zero."""
        comparison = self.pairwise[(first, second)]
        return comparison.significant and comparison.difference < 0.0

    def render(self) -> str:
        """The printable report: accuracy table + significance matrix."""
        accuracy_rows = [
            [
                report.name,
                f"{report.rmse:.1f}",
                f"[{report.rmse_lower:.1f}, {report.rmse_upper:.1f}]",
                f"{report.capture_rate:.0%}",
            ]
            for report in sorted(self.reports, key=lambda r: r.rmse)
        ]
        accuracy = format_table(
            ["model", "RMSE", "95% CI", f"captured (err<={self.tolerance:g})"],
            accuracy_rows,
            title=(
                f"model comparison over {self.num_test_traces} held-out "
                "traces (best first)"
            ),
        )
        names = [report.name for report in self.reports]
        verdict_rows = []
        for first in names:
            row: list[object] = [first]
            for second in names:
                if first == second:
                    row.append("-")
                    continue
                comparison = self.pairwise[(first, second)]
                if comparison.significant:
                    row.append("<" if comparison.difference < 0 else ">")
                else:
                    row.append("~")
            verdict_rows.append(row)
        matrix = format_table(
            ["", *names],
            verdict_rows,
            title=(
                "pairwise verdicts (row vs column): '<' row better, "
                "'>' column better, '~' not significant"
            ),
        )
        return f"{accuracy}\n\n{matrix}"


def compare_models(
    experiment: PredictionExperiment,
    tolerance: float = 10.0,
    confidence: float = 0.95,
    num_resamples: int = 1000,
    seed: int = 0,
) -> ComparisonResult:
    """The statistical comparison of one prediction run's models.

    ``experiment`` is ``result.prediction`` of a ``task="prediction"``
    :func:`~repro.api.run_experiment`, or a
    :meth:`~repro.evaluation.prediction.PredictionExperiment.from_predictions`
    over :func:`~repro.evaluation.prediction.held_out_traces` for
    predictors the config cannot name.  ``tolerance`` sets the
    capture-rate threshold and ``confidence`` / ``num_resamples`` /
    ``seed`` the bootstrap layer.
    """
    names = experiment.methods
    require(len(names) >= 2, "compare_models needs at least two models")
    require(tolerance > 0.0, f"tolerance must be positive, got {tolerance}")
    result = ComparisonResult(
        num_test_traces=experiment.num_test_traces, tolerance=tolerance
    )
    for name in names:
        pairs = experiment.pairs(name)
        point, lower, upper = bootstrap_ci(
            pairs,
            confidence=confidence,
            num_resamples=num_resamples,
            seed=seed,
        )
        result.reports.append(
            ModelReport(
                name=name,
                rmse=point,
                rmse_lower=lower,
                rmse_upper=upper,
                capture_rate=capture_curve(pairs, [tolerance])[0][1],
            )
        )
    actuals = [actual for actual, _ in experiment.pairs(names[0])]
    predictions = {
        name: [predicted for _, predicted in experiment.pairs(name)]
        for name in names
    }
    for first in names:
        for second in names:
            if first == second:
                continue
            result.pairwise[(first, second)] = paired_bootstrap_test(
                actuals,
                predictions[first],
                predictions[second],
                confidence=confidence,
                num_resamples=num_resamples,
                seed=seed,
            )
    return result


@dataclass
class SelectorComparison:
    """The maximization head-to-head, as measured by one experiment."""

    experiment: ExperimentResult

    def ranking(self) -> list[str]:
        """Selector labels by descending CD-proxy spread (best first)."""
        finals = self.experiment.final_spreads()
        return sorted(finals, key=lambda label: -finals[label])

    def render(self) -> str:
        """Printable report: ranked summary table + spread-vs-k series."""
        finals = self.experiment.final_spreads()
        rows = []
        for label in self.ranking():
            selection = self.experiment.selections(label)[0]
            rows.append(
                [
                    label,
                    selection.selector,
                    f"{finals[label]:.2f}",
                    f"{selection.wall_time_s:.2f}s",
                    selection.oracle_calls or "-",
                ]
            )
        k_max = self.experiment.config.ks[-1]
        table = format_table(
            ["rank by sigma_cd", "selector", "spread", "time", "oracle calls"],
            rows,
            title=(
                f"selector comparison on {self.experiment.dataset_name} "
                f"(k={k_max}, CD-proxy yardstick)"
            ),
        )
        series = format_series(
            "k",
            self.experiment.spread_series(),
            title="spread achieved vs k (Figure-6 layout)",
        )
        return f"{table}\n\n{series}"


def compare_selectors(config: ExperimentConfig) -> SelectorComparison:
    """Head-to-head comparison of registered selectors (Figure-6 style).

    Runs :func:`repro.api.run_experiment` once — the entire dataset→
    split→learn→select→evaluate pipeline lives there — and wraps the
    result in a report that ranks every configured selector by the
    CD-proxy spread of its seed set.
    """
    require(
        config.evaluate_spread,
        "compare_selectors needs evaluate_spread=True in the config",
    )
    return SelectorComparison(experiment=run_experiment(config))
