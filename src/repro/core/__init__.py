"""The credit distribution (CD) model — the paper's primary contribution.

The CD model replaces the "learn edge probabilities, then Monte Carlo
simulate" pipeline with a direct, data-based estimator of influence
spread.  Whenever a user ``u`` performs an action ``a``, *direct credit*
``gamma_{v,u}(a)`` is assigned to each potential influencer ``v`` (a
neighbour who performed ``a`` earlier), and credit flows transitively
backwards through the propagation DAG (Eq. 5).  Aggregating over all
actions yields ``kappa_{S,u}`` — the model's stand-in for
``Pr[path(S, u) = 1]`` — and the spread

    sigma_cd(S) = sum_u kappa_{S,u}.            (Eq. 8)

Modules:

* :mod:`~repro.core.credit` — direct-credit schemes: uniform
  ``1/d_in(u, a)`` and the time-decay/influenceability scheme of Eq. 9;
* :mod:`~repro.core.params` — learning ``tau_{v,u}`` (average
  propagation time) and ``infl(u)`` (user influenceability) from the
  training log;
* :mod:`~repro.core.index` — the sparse ``UC``/``SC`` structures with
  truncation threshold ``lambda`` and memory accounting;
* :mod:`~repro.core.scan` — Algorithm 2, the single chronological scan
  of the action log;
* :mod:`~repro.core.spread` — an exact ``sigma_cd`` evaluator for
  arbitrary seed sets (the "actual spread" proxy of Figure 6);
* :mod:`~repro.core.maximize` — Algorithms 3-5: CELF greedy with
  Theorem-3 marginal gains and Lemma-2/3 incremental updates.
"""

from repro.core.credit import DirectCredit, TimeDecayCredit, UniformCredit
from repro.core.index import CreditIndex, SeedCredits
from repro.core.maximize import cd_maximize
from repro.core.params import InfluenceabilityParams, learn_influenceability
from repro.core.queries import (
    InfluenceBreakdown,
    explain_spread,
    influence_vector,
    kappa,
    most_influential,
    top_influencers,
)
from repro.core.scan import scan_action_log
from repro.core.spread import CDSpreadEvaluator, sigma_cd
from repro.core.variants import (
    LinearDecayCredit,
    PairWeightedCredit,
    PowerDecayCredit,
)

__all__ = [
    "DirectCredit",
    "UniformCredit",
    "TimeDecayCredit",
    "LinearDecayCredit",
    "PowerDecayCredit",
    "PairWeightedCredit",
    "kappa",
    "influence_vector",
    "top_influencers",
    "most_influential",
    "InfluenceBreakdown",
    "explain_spread",
    "InfluenceabilityParams",
    "learn_influenceability",
    "CreditIndex",
    "SeedCredits",
    "scan_action_log",
    "sigma_cd",
    "CDSpreadEvaluator",
    "cd_maximize",
]
