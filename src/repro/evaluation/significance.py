"""Statistical comparison of spread-prediction models.

The paper's conclusion calls for "techniques and benchmarks for
comparing different influence models".  Point estimates of RMSE
(Figure 3) can flip ordering on small test sets by luck of the draw;
this module adds the missing statistical layer:

* :func:`bootstrap_ci` — a percentile bootstrap confidence interval for
  any statistic of the prediction errors (RMSE by default);
* :func:`paired_bootstrap_test` — a paired bootstrap comparing two
  models *on the same test propagations* (the right design: predictions
  are paired by trace, so unpaired tests waste power);
* :func:`sign_test` — the distribution-free fallback, counting on how
  many traces each model is strictly closer to the truth.

All randomness is seeded; results are deterministic and safe for
benchmarks to assert on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.evaluation.metrics import rmse
from repro.utils.rng import make_rng
from repro.utils.validation import require

__all__ = [
    "bootstrap_ci",
    "PairedComparison",
    "paired_bootstrap_test",
    "sign_test",
]

Pairs = Sequence[tuple[float, float]]  # (actual, predicted)


def bootstrap_ci(
    pairs: Pairs,
    statistic: Callable[[Pairs], float] = rmse,
    confidence: float = 0.95,
    num_resamples: int = 2000,
    seed: int | random.Random | None = None,
) -> tuple[float, float, float]:
    """Percentile-bootstrap CI for ``statistic`` over (actual, predicted).

    Returns ``(point_estimate, lower, upper)``.
    """
    require(bool(pairs), "bootstrap_ci needs at least one pair")
    require(
        0.0 < confidence < 1.0,
        f"confidence must be in (0, 1), got {confidence}",
    )
    require(
        num_resamples >= 100,
        f"num_resamples must be >= 100, got {num_resamples}",
    )
    rng = make_rng(seed)
    data = list(pairs)
    point = statistic(data)
    resampled = sorted(
        statistic(rng.choices(data, k=len(data))) for _ in range(num_resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    lower = resampled[int(math.floor(alpha * num_resamples))]
    upper = resampled[min(num_resamples - 1, int(math.ceil((1.0 - alpha) * num_resamples)) - 1)]
    return point, lower, upper


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of a paired model comparison.

    Attributes
    ----------
    statistic_a, statistic_b:
        The statistic (e.g. RMSE) of each model on the full test set.
    difference:
        ``statistic_a - statistic_b`` (negative = model A better when
        the statistic is an error).
    ci_lower, ci_upper:
        Bootstrap confidence interval for the difference.
    significant:
        True iff the interval excludes zero.
    """

    statistic_a: float
    statistic_b: float
    difference: float
    ci_lower: float
    ci_upper: float

    @property
    def significant(self) -> bool:
        """Whether the difference's CI excludes zero."""
        return self.ci_lower > 0.0 or self.ci_upper < 0.0


def paired_bootstrap_test(
    actuals: Sequence[float],
    predictions_a: Sequence[float],
    predictions_b: Sequence[float],
    statistic: Callable[[Pairs], float] = rmse,
    confidence: float = 0.95,
    num_resamples: int = 2000,
    seed: int | random.Random | None = None,
) -> PairedComparison:
    """Paired bootstrap of ``statistic(A) - statistic(B)``.

    Each resample draws test *traces* with replacement and evaluates
    both models on the identical resample, so between-trace variance
    cancels — the standard design for comparing predictors on a shared
    test set.
    """
    require(
        len(actuals) == len(predictions_a) == len(predictions_b),
        "actuals and both prediction sequences must have equal length",
    )
    require(bool(actuals), "paired_bootstrap_test needs at least one trace")
    require(
        0.0 < confidence < 1.0,
        f"confidence must be in (0, 1), got {confidence}",
    )
    require(
        num_resamples >= 100,
        f"num_resamples must be >= 100, got {num_resamples}",
    )
    rng = make_rng(seed)
    triples = list(zip(actuals, predictions_a, predictions_b))
    pairs_a = [(actual, a) for actual, a, _ in triples]
    pairs_b = [(actual, b) for actual, _, b in triples]
    stat_a = statistic(pairs_a)
    stat_b = statistic(pairs_b)
    differences = []
    for _ in range(num_resamples):
        resample = rng.choices(triples, k=len(triples))
        differences.append(
            statistic([(actual, a) for actual, a, _ in resample])
            - statistic([(actual, b) for actual, _, b in resample])
        )
    differences.sort()
    alpha = (1.0 - confidence) / 2.0
    lower = differences[int(math.floor(alpha * num_resamples))]
    upper = differences[min(num_resamples - 1, int(math.ceil((1.0 - alpha) * num_resamples)) - 1)]
    return PairedComparison(
        statistic_a=stat_a,
        statistic_b=stat_b,
        difference=stat_a - stat_b,
        ci_lower=lower,
        ci_upper=upper,
    )


def sign_test(
    actuals: Sequence[float],
    predictions_a: Sequence[float],
    predictions_b: Sequence[float],
) -> tuple[int, int, float]:
    """Distribution-free sign test on per-trace absolute errors.

    Returns ``(wins_a, wins_b, p_value)`` where a "win" is a strictly
    smaller absolute error on a trace (ties discarded) and the p-value
    is the two-sided exact binomial probability under the null that
    either model wins each non-tied trace with probability 1/2.
    """
    require(
        len(actuals) == len(predictions_a) == len(predictions_b),
        "actuals and both prediction sequences must have equal length",
    )
    wins_a = 0
    wins_b = 0
    for actual, a, b in zip(actuals, predictions_a, predictions_b):
        error_a = abs(a - actual)
        error_b = abs(b - actual)
        if error_a < error_b:
            wins_a += 1
        elif error_b < error_a:
            wins_b += 1
    trials = wins_a + wins_b
    if trials == 0:
        return 0, 0, 1.0
    observed = max(wins_a, wins_b)
    # Two-sided exact binomial tail: 2 * P[X >= observed], capped at 1.
    tail = sum(
        math.comb(trials, successes)
        for successes in range(observed, trials + 1)
    ) / 2.0**trials
    return wins_a, wins_b, min(1.0, 2.0 * tail)
