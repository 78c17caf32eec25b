"""The Independent Cascade (IC) propagation model.

In the IC model time unfolds in discrete steps.  When a node ``v``
becomes active at step ``t``, it gets exactly one chance to activate each
currently inactive out-neighbour ``u``, succeeding with the edge
probability ``p(v, u)``; successes activate at step ``t + 1``.  The
process stops when no new node activates.  The expected spread
``sigma_IC(S)`` is the expected number of active nodes at the end.

Equivalently (the live-edge construction), a possible world keeps each
edge independently with its probability, and the cascade from ``S``
activates exactly the nodes reachable from ``S`` in that world.
:func:`estimate_spread_ic` averages that reach over counter-keyed
worlds through :class:`~repro.runtime.estimator.SpreadEstimator`.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable, Mapping

from repro.graphs.digraph import SocialGraph
from repro.runtime.estimator import SpreadEstimator

__all__ = ["estimate_spread_ic"]

User = Hashable
Edge = tuple[User, User]


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
    Edges missing from ``probabilities`` never propagate, so sparse
    probability maps — e.g. EM output that only covers edges seen in
    training — work directly.

    Simulation ``i`` is counter-keyed world ``i`` of ``seed`` (``None``
    draws fresh entropy; a ``random.Random`` contributes 64 bits), so
    the ``"python"`` and ``"numpy"`` backends return the same float;
    ``None``/``"auto"`` defers to the ``REPRO_BACKEND`` environment
    variable.
    """
    return SpreadEstimator(
        graph, probabilities, "ic", num_simulations, seed, backend
    ).spread(seeds)
