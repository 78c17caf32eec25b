"""Noise-robustness sweeps: the PT experiment, generalised.

The paper probes robustness at a single operating point — EM
probabilities perturbed by ±20% (the PT method) — and concludes "the
greedy algorithm ... is robust against some noise in the probability
learning step".  This driver turns that spot check into a curve: sweep
the noise level, re-select seeds at each level, and measure

* **seed stability** — overlap between the noisy seeds and the clean
  seeds (Table 2's EM∩PT entry as a function of noise);
* **quality retention** — the spread (under the clean model) achieved
  by the noisy seeds, relative to the clean seeds' spread.  Stability
  can drop while quality holds (interchangeable seeds), so both matter.

The same sweep applies to the CD model by perturbing the learned direct
credits, answering the analogous question for the paper's own model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.core.credit import DirectCredit, UniformCredit
from repro.core.maximize import cd_maximize
from repro.core.scan import scan_action_log
from repro.data.actionlog import ActionLog
from repro.data.propagation import PropagationGraph
from repro.graphs.digraph import SocialGraph
from repro.maximization.celf import celf_maximize
from repro.probabilities.perturb import perturb_probabilities
from repro.runtime.estimator import SpreadEstimator
from repro.utils.rng import make_rng
from repro.utils.validation import require

__all__ = [
    "NoisePoint",
    "ic_noise_sweep",
    "PerturbedCredit",
    "cd_noise_sweep",
]

User = Hashable
Edge = tuple[User, User]


@dataclass(frozen=True)
class NoisePoint:
    """One point of a robustness curve.

    Attributes
    ----------
    noise:
        The perturbation magnitude (0.2 = ±20%).
    overlap:
        ``|noisy seeds ∩ clean seeds|``.
    quality_ratio:
        Spread of the noisy seeds / spread of the clean seeds, both
        measured under the *clean* model (≤ 1 by greedy near-optimality,
        up to the oracle's own estimation noise).
    """

    noise: float
    overlap: int
    quality_ratio: float


def ic_noise_sweep(
    graph: SocialGraph,
    probabilities: dict[Edge, float],
    k: int,
    noise_levels: Sequence[float],
    num_simulations: int = 100,
    seed: int = 7,
) -> list[NoisePoint]:
    """Robustness of IC-greedy seed selection to probability noise.

    ``probabilities`` are the clean (e.g. EM-learned) values; each noise
    level re-perturbs them independently and re-runs CELF.
    """
    require(k >= 1, f"k must be >= 1, got {k}")
    clean_oracle = SpreadEstimator(
        graph, probabilities, "ic", num_simulations=num_simulations, seed=seed
    )
    clean = celf_maximize(clean_oracle, k)
    clean_spread = clean_oracle.spread(clean.seeds)
    points = []
    for level_index, noise in enumerate(noise_levels):
        require(noise >= 0.0, f"noise must be >= 0, got {noise}")
        noisy_probabilities = perturb_probabilities(
            probabilities, noise=noise, seed=seed + 1000 * (level_index + 1)
        )
        noisy_oracle = SpreadEstimator(
            graph,
            noisy_probabilities,
            "ic",
            num_simulations=num_simulations,
            seed=seed,
        )
        noisy = celf_maximize(noisy_oracle, k)
        quality = (
            clean_oracle.spread(noisy.seeds) / clean_spread
            if clean_spread > 0
            else 1.0
        )
        points.append(
            NoisePoint(
                noise=noise,
                overlap=len(set(clean.seeds) & set(noisy.seeds)),
                quality_ratio=quality,
            )
        )
    return points


class PerturbedCredit:
    """A direct-credit scheme with multiplicative noise — CD's "PT".

    Wraps any base scheme and scales each ``gamma_{v,u}(a)`` by a factor
    drawn once per (influencer, influenced, action) from
    ``[1 - noise, 1 + noise]``, clamping into [0, 1/d_in] so the
    per-user conservation constraint survives.  Draws are memoised so
    the scheme stays a pure function within a run (scans and exact
    evaluation agree).
    """

    def __init__(
        self,
        base: DirectCredit | None,
        noise: float,
        seed: int | random.Random | None = None,
    ) -> None:
        require(noise >= 0.0, f"noise must be >= 0, got {noise}")
        self._base = UniformCredit() if base is None else base
        self._noise = noise
        self._rng = make_rng(seed)
        self._factors: dict[tuple[User, User, Hashable], float] = {}

    def __call__(
        self, propagation: PropagationGraph, influencer: User, influenced: User
    ) -> float:
        """The base credit scaled by this triple's (memoised) noise factor."""
        value = self._base(propagation, influencer, influenced)
        if value <= 0.0:
            return value
        key = (influencer, influenced, propagation.action)
        factor = self._factors.get(key)
        if factor is None:
            factor = 1.0 + self._rng.uniform(-self._noise, self._noise)
            self._factors[key] = factor
        ceiling = 1.0 / propagation.in_degree(influenced)
        return min(ceiling, max(0.0, value * factor))

    def __repr__(self) -> str:
        return f"PerturbedCredit(base={self._base!r}, noise={self._noise})"


def cd_noise_sweep(
    graph: SocialGraph,
    log: ActionLog,
    k: int,
    noise_levels: Sequence[float],
    base_credit: DirectCredit | None = None,
    truncation: float = 0.001,
    seed: int = 7,
) -> list[NoisePoint]:
    """Robustness of CD seed selection to noise in the learned credits.

    The CD analogue of :func:`ic_noise_sweep`: perturb the direct
    credits (the model's learned quantity), rebuild the index, re-select
    seeds, and measure stability and quality retention against the clean
    run.  ``base_credit`` defaults to uniform; pass a
    :class:`~repro.core.credit.TimeDecayCredit` for the Eq. 9 pipeline.
    """
    require(k >= 1, f"k must be >= 1, got {k}")
    clean_index = scan_action_log(
        graph, log, credit=base_credit, truncation=truncation
    )
    clean = cd_maximize(clean_index, k, mutate=False)

    # Clean-model yardstick for noisy seed sets: a fresh index per
    # evaluation, consumed destructively by a "forced-order" greedy.
    def clean_spread_of(seeds: list[User]) -> float:
        from repro.core.index import SeedCredits
        from repro.core.maximize import _absorb_seed, marginal_gain

        index = clean_index.copy()
        seed_credits = SeedCredits()
        total = 0.0
        for node in seeds:
            total += marginal_gain(index, seed_credits, node)
            _absorb_seed(index, seed_credits, node)
        return total

    clean_spread = clean_spread_of(clean.seeds)
    points = []
    for level_index, noise in enumerate(noise_levels):
        require(noise >= 0.0, f"noise must be >= 0, got {noise}")
        noisy_credit = PerturbedCredit(
            base_credit, noise=noise, seed=seed + 1000 * (level_index + 1)
        )
        noisy_index = scan_action_log(
            graph, log, credit=noisy_credit, truncation=truncation
        )
        noisy = cd_maximize(noisy_index, k, mutate=True)
        quality = (
            clean_spread_of(noisy.seeds) / clean_spread
            if clean_spread > 0
            else 1.0
        )
        points.append(
            NoisePoint(
                noise=noise,
                overlap=len(set(clean.seeds) & set(noisy.seeds)),
                quality_ratio=quality,
            )
        )
    return points
