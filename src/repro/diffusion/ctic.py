"""Continuous-time Independent Cascade (CTIC).

The discrete-step IC model throws away *when* activations happen — yet
the paper's whole Eq. 9 credit scheme is built on propagation *delays*
(``exp(-(t_u - t_v) / tau_{v,u})``), and real action logs are
continuous-time.  CTIC (Saito et al.'s continuous-time extension; also
the hidden process behind this library's synthetic dataset generators)
closes that gap:

* when ``v`` activates at time ``t_v``, it contacts each inactive
  out-neighbour ``u`` once, succeeding with probability ``p(v, u)``;
* a successful contact activates ``u`` after a random delay drawn from
  the edge's delay distribution — ``u`` activates at the *earliest*
  successful contact time across all its in-neighbours;
* the process may be truncated at a time horizon ``T``, yielding the
  time-bounded spread ``sigma(S, T)`` — the quantity behind "how much
  influence within a week?" questions that discrete IC cannot pose.

As ``T -> infinity`` the activated set has exactly the discrete IC
distribution (delays only reorder activations; they never change
reachability), which the tests exploit as an oracle.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import Callable, Hashable, Iterable, Mapping

from repro.graphs.digraph import SocialGraph
from repro.utils.rng import make_rng
from repro.utils.validation import require

__all__ = [
    "exponential_delays",
    "lognormal_delays",
    "simulate_ctic",
    "estimate_spread_ctic",
]

User = Hashable
Edge = tuple[User, User]
# A delay sampler: (rng, edge) -> positive delay.
DelaySampler = Callable[[random.Random, Edge], float]


def exponential_delays(
    tau: Mapping[Edge, float] | float = 1.0, default: float = 1.0
) -> DelaySampler:
    """Exponential delay sampler with per-edge (or global) mean ``tau``.

    The memoryless benchmark; pairs naturally with Eq. 9, whose learned
    ``tau_{v,u}`` is exactly this distribution's mean.
    """
    require(default > 0.0, f"default must be positive, got {default}")
    if isinstance(tau, (int, float)):
        require(tau > 0.0, f"tau must be positive, got {tau}")
        fixed = float(tau)

        def sample_fixed(rng: random.Random, edge: Edge) -> float:
            return rng.expovariate(1.0 / fixed)

        return sample_fixed
    means = dict(tau)

    def sample(rng: random.Random, edge: Edge) -> float:
        return rng.expovariate(1.0 / means.get(edge, default))

    return sample


def lognormal_delays(
    median: float = 1.0, sigma: float = 1.0
) -> DelaySampler:
    """Lognormal delay sampler (heavy-tailed human response times).

    ``median`` is the distribution's median delay; ``sigma`` the shape
    (log-space standard deviation).  The dataset generators use
    ``sigma = 2`` to reproduce bursty reaction times (``delay_sigma`` in
    :mod:`repro.data.datasets`).
    """
    require(median > 0.0, f"median must be positive, got {median}")
    require(sigma > 0.0, f"sigma must be positive, got {sigma}")
    mu = math.log(median)

    def sample(rng: random.Random, edge: Edge) -> float:
        return rng.lognormvariate(mu, sigma)

    return sample


def simulate_ctic(
    graph: SocialGraph,
    probabilities: Mapping[Edge, float],
    seeds: Iterable[User],
    rng: random.Random,
    delay_sampler: DelaySampler | None = None,
    horizon: float = math.inf,
) -> dict[User, float]:
    """One CTIC cascade; returns ``{user: activation_time}``.

    Seeds activate at time 0.  Contact successes are decided once per
    edge (each active node gets one shot, as in discrete IC); successful
    contacts deliver after a sampled delay; activations after ``horizon``
    are discarded.  Event-driven via a min-heap on delivery time, so a
    run costs O(touched edges * log events).
    """
    require(horizon >= 0.0, f"horizon must be >= 0, got {horizon}")
    sampler = exponential_delays() if delay_sampler is None else delay_sampler
    activation: dict[User, float] = {
        seed: 0.0 for seed in seeds if seed in graph
    }
    counter = itertools.count()
    heap: list[tuple[float, int, User]] = []

    def contact_neighbors(node: User, at_time: float) -> None:
        for target in graph.out_neighbors(node):
            if target in activation:
                continue
            probability = probabilities.get((node, target), 0.0)
            if probability <= 0.0 or rng.random() >= probability:
                continue
            delivery = at_time + sampler(rng, (node, target))
            if delivery <= horizon:
                heapq.heappush(heap, (delivery, next(counter), target))

    for seed in list(activation):
        contact_neighbors(seed, 0.0)
    while heap:
        time, _, node = heapq.heappop(heap)
        if node in activation:
            continue  # an earlier contact already activated it
        activation[node] = time
        contact_neighbors(node, time)
    return activation


def estimate_spread_ctic(
    graph: SocialGraph,
    probabilities: Mapping[Edge, float],
    seeds: Iterable[User],
    horizon: float = math.inf,
    delay_sampler: DelaySampler | None = None,
    num_simulations: int = 1000,
    seed: int | random.Random | None = None,
) -> float:
    """Monte Carlo estimate of the time-bounded spread ``sigma(S, T)``.

    With ``horizon = inf`` this estimates the same quantity as
    :func:`repro.diffusion.ic.estimate_spread_ic`; finite horizons give
    the deadline-constrained spread.
    """
    require(
        num_simulations >= 1,
        f"num_simulations must be >= 1, got {num_simulations}",
    )
    rng = make_rng(seed)
    seed_list = list(seeds)
    total = 0
    for _ in range(num_simulations):
        total += len(
            simulate_ctic(
                graph,
                probabilities,
                seed_list,
                rng,
                delay_sampler=delay_sampler,
                horizon=horizon,
            )
        )
    return total / num_simulations
