"""Classical propagation models: Independent Cascade and Linear Threshold.

These are the probabilistic models of Kempe, Kleinberg and Tardos (KDD
2003) that the paper's standard approach (Figure 1, light-blue path)
relies on.  Estimating their spread is #P-hard, so in practice one runs
Monte Carlo simulation — exactly what makes the standard approach slow
and what the credit-distribution model avoids.

Both estimators operate on a :class:`~repro.graphs.digraph.SocialGraph`
plus a ``dict[(source, target) -> value]`` of edge probabilities (IC) or
edge weights (LT), and score seed sets on counter-keyed possible worlds
through :class:`~repro.runtime.estimator.SpreadEstimator`.
:mod:`repro.diffusion.worlds` builds those worlds explicitly (the
possible-world semantics of Eq. (1)-(4)) and is the exact reference the
estimators are tested against.
"""

from repro.diffusion.ctic import (
    estimate_spread_ctic,
    exponential_delays,
    lognormal_delays,
    simulate_ctic,
)
from repro.diffusion.ic import estimate_spread_ic
from repro.diffusion.lt import estimate_spread_lt, validate_lt_weights
from repro.diffusion.worlds import (
    estimate_spread_via_worlds,
    sample_world_ic,
    sample_world_lt,
    spread_in_world,
)

__all__ = [
    "estimate_spread_ic",
    "estimate_spread_lt",
    "validate_lt_weights",
    "sample_world_ic",
    "sample_world_lt",
    "spread_in_world",
    "estimate_spread_via_worlds",
    "simulate_ctic",
    "estimate_spread_ctic",
    "exponential_delays",
    "lognormal_delays",
]
