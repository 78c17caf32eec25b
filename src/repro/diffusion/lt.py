"""The Linear Threshold (LT) propagation model.

Each node ``u`` is influenced by each in-neighbour ``v`` with weight
``b(v, u)``, the incoming weights summing to at most 1.  Every node draws
a threshold ``theta_u`` uniformly from [0, 1]; an inactive node activates
as soon as the total weight of its active in-neighbours reaches its
threshold.  The expected spread ``sigma_LT(S)`` averages over the random
thresholds.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Hashable, Iterable, Mapping

from repro.graphs.digraph import SocialGraph
from repro.kernels import resolve_backend
from repro.utils.rng import integer_seed, make_rng
from repro.utils.validation import require

__all__ = ["simulate_lt", "estimate_spread_lt", "validate_lt_weights"]

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


def simulate_lt(
    graph: SocialGraph,
    weights: Mapping[Edge, float],
    seeds: Iterable[User],
    rng: random.Random,
) -> set[User]:
    """Run one LT diffusion from ``seeds`` with fresh random thresholds.

    Thresholds are drawn lazily — only for nodes that receive influence —
    which keeps a single simulation O(touched edges) instead of O(V).
    """
    active = {seed for seed in seeds if seed in graph}
    thresholds: dict[User, float] = {}
    pressure: dict[User, float] = {}
    frontier = deque(active)
    while frontier:
        node = frontier.popleft()
        for target in graph.out_neighbors(node):
            if target in active:
                continue
            weight = weights.get((node, target), 0.0)
            if weight <= 0.0:
                continue
            if target not in thresholds:
                thresholds[target] = rng.random()
            new_pressure = pressure.get(target, 0.0) + weight
            pressure[target] = new_pressure
            if new_pressure >= thresholds[target]:
                active.add(target)
                frontier.append(target)
    return active


def estimate_spread_lt(
    graph: SocialGraph,
    weights: Mapping[Edge, float],
    seeds: Iterable[User],
    num_simulations: int = 10_000,
    seed: int | random.Random | None = None,
    backend: str | None = None,
) -> float:
    """Monte Carlo estimate of ``sigma_LT(seeds)``.

    ``backend`` selects the estimator exactly as in
    :func:`repro.diffusion.ic.estimate_spread_ic`: ``"python"`` is the
    reference loop below, ``"numpy"`` dispatches to the batched kernel
    in :mod:`repro.kernels.mc_numpy`.
    """
    require(num_simulations >= 1, f"num_simulations must be >= 1, got {num_simulations}")
    if resolve_backend(backend) == "numpy":
        from repro.kernels.mc_numpy import CompiledDiffusion

        return CompiledDiffusion(graph, weights).spread_lt(
            seeds, num_simulations, integer_seed(seed)
        )
    rng = make_rng(seed)
    seed_list = list(seeds)
    total = 0
    for _ in range(num_simulations):
        total += len(simulate_lt(graph, weights, seed_list, rng))
    return total / num_simulations
