"""The Linear Threshold (LT) propagation model.

Each node ``u`` is influenced by each in-neighbour ``v`` with weight
``b(v, u)``, the incoming weights summing to at most 1.  Every node draws
a threshold ``theta_u`` uniformly from [0, 1]; an inactive node activates
as soon as the total weight of its active in-neighbours reaches its
threshold.  The expected spread ``sigma_LT(S)`` averages over the random
thresholds.  Kempe et al. show the same distribution of active sets
arises when every node keeps at most one incoming edge, ``(v, u)`` with
probability ``b(v, u)``, and the cascade reaches what is reachable in
that world; :func:`estimate_spread_lt` averages over such worlds.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable, Mapping

from repro.graphs.digraph import SocialGraph
from repro.runtime.estimator import SpreadEstimator

__all__ = ["estimate_spread_lt", "validate_lt_weights"]

User = Hashable
Edge = tuple[User, User]

_SUM_TOLERANCE = 1e-9


def validate_lt_weights(
    graph: SocialGraph, weights: Mapping[Edge, float]
) -> None:
    """Raise ``ValueError`` if any node's incoming weights exceed 1.

    The LT model is only well defined when
    ``sum_v b(v, u) <= 1`` for every node ``u``.
    """
    incoming: dict[User, float] = {}
    for (source, target), weight in weights.items():
        if weight < 0.0:
            raise ValueError(
                f"negative LT weight {weight!r} on edge ({source!r}, {target!r})"
            )
        incoming[target] = incoming.get(target, 0.0) + weight
    for node, total in incoming.items():
        if total > 1.0 + _SUM_TOLERANCE:
            raise ValueError(
                f"incoming LT weights of node {node!r} sum to {total}, "
                "which exceeds 1"
            )


def estimate_spread_lt(
    graph: SocialGraph,
    weights: Mapping[Edge, float],
    seeds: Iterable[User],
    num_simulations: int = 10_000,
    seed: int | random.Random | None = None,
    backend: str | None = None,
) -> float:
    """Monte Carlo estimate of ``sigma_LT(seeds)``.

    Simulation ``i`` is counter-keyed world ``i`` of ``seed``, in the
    live-edge form: every node keeps at most one in-edge, chosen with
    probability equal to its weight.  Seeds, backends and the missing-
    edge rule are exactly as in
    :func:`repro.diffusion.ic.estimate_spread_ic`.
    """
    return SpreadEstimator(
        graph, weights, "lt", num_simulations, seed, backend
    ).spread(seeds)
