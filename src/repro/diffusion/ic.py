"""The Independent Cascade (IC) propagation model.

In the IC model time unfolds in discrete steps.  When a node ``v``
becomes active at step ``t``, it gets exactly one chance to activate each
currently inactive out-neighbour ``u``, succeeding with the edge
probability ``p(v, u)``; successes activate at step ``t + 1``.  The
process stops when no new node activates.  The expected spread
``sigma_IC(S)`` is the expected number of active nodes at the end.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Hashable, Iterable, Mapping

from repro.graphs.digraph import SocialGraph
from repro.kernels import resolve_backend
from repro.utils.rng import integer_seed, make_rng
from repro.utils.validation import require

__all__ = ["simulate_ic", "estimate_spread_ic"]

User = Hashable
Edge = tuple[User, User]


def simulate_ic(
    graph: SocialGraph,
    probabilities: Mapping[Edge, float],
    seeds: Iterable[User],
    rng: random.Random,
) -> set[User]:
    """Run one IC cascade from ``seeds``; return the final active set.

    Edges missing from ``probabilities`` are treated as probability 0
    (never propagate), so sparse probability maps — e.g. EM output that
    only covers edges seen in training — work directly.
    """
    active = {seed for seed in seeds if seed in graph}
    frontier = deque(active)
    while frontier:
        node = frontier.popleft()
        for target in graph.out_neighbors(node):
            if target in active:
                continue
            probability = probabilities.get((node, target), 0.0)
            if probability > 0.0 and rng.random() < probability:
                active.add(target)
                frontier.append(target)
    return active


def estimate_spread_ic(
    graph: SocialGraph,
    probabilities: Mapping[Edge, float],
    seeds: Iterable[User],
    num_simulations: int = 10_000,
    seed: int | random.Random | None = None,
    backend: str | None = None,
) -> float:
    """Monte Carlo estimate of ``sigma_IC(seeds)``.

    The paper's standard approach uses 10,000 simulations (the default
    here); the experiment harness lowers this to keep pure-Python
    runtimes tractable, which only adds symmetric noise to every method.

    ``backend`` selects the estimator: ``"python"`` (this module's
    per-edge simulation loop — the reference semantics), ``"numpy"``
    (the batched kernel in :mod:`repro.kernels.mc_numpy`, statistically
    equivalent but ~two orders of magnitude faster), or ``None``/
    ``"auto"`` to defer to the ``REPRO_BACKEND`` environment variable.
    """
    require(num_simulations >= 1, f"num_simulations must be >= 1, got {num_simulations}")
    if resolve_backend(backend) == "numpy":
        from repro.kernels.mc_numpy import CompiledDiffusion

        return CompiledDiffusion(graph, probabilities).spread_ic(
            seeds, num_simulations, integer_seed(seed)
        )
    rng = make_rng(seed)
    seed_list = list(seeds)
    total = 0
    for _ in range(num_simulations):
        total += len(simulate_ic(graph, probabilities, seed_list, rng))
    return total / num_simulations
