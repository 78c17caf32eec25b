"""Possible-world semantics for IC and LT (paper Eq. 1-4).

A propagation model plus an edge-weighted graph induce a distribution
over deterministic graphs ("possible worlds"); the expected spread of a
seed set is the expected number of nodes reachable from it across worlds:

    sigma_m(S) = sum_{X} Pr[X] * |reachable_X(S)|          (Eq. 1-2)
               = sum_u Pr[path(S, u) = 1]                  (Eq. 4)

For IC, a world keeps each edge ``(v, u)`` independently with probability
``p(v, u)`` (the "live-edge" construction).  For LT, Kempe et al.'s
equivalence keeps, for each node, at most one incoming edge, chosen with
probability equal to its weight.  This is the conceptual bridge to the
credit-distribution model, which treats recorded propagation traces as
"real available worlds".

World ``i`` of ``seed`` is built here explicitly, from the same
counter-keyed coins (:mod:`repro.utils.rng`) the Monte-Carlo engines of
:class:`~repro.runtime.estimator.SpreadEstimator` draw while they walk
it, over the same canonical ids
(:func:`~repro.utils.ordering.canonical_edges`).  So this module is
their independent reference: :func:`estimate_spread_via_worlds` equals
``estimate_spread_ic``/``estimate_spread_lt`` exactly, and reachability
in each world matches the engines world by world.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable, Mapping

from repro.graphs.digraph import SocialGraph
from repro.utils.ordering import canonical_edges
from repro.utils.rng import _edge_uniform, _node_uniform, _sketch_base, keyed_seed
from repro.utils.validation import require

__all__ = [
    "sample_world_ic",
    "sample_world_lt",
    "spread_in_world",
    "estimate_spread_via_worlds",
]

User = Hashable
Edge = tuple[User, User]


def _ic_world(nodes: list, edges: list, seed: int, world: int) -> SocialGraph:
    sampled = SocialGraph()
    for node in nodes:
        sampled.add_node(node)
    base = _sketch_base(seed, world)
    for edge_id, (dst, src, probability) in enumerate(edges):
        if _edge_uniform(base, edge_id) < probability:
            sampled.add_edge(nodes[src], nodes[dst])
    return sampled


def _lt_world(nodes: list, edges: list, seed: int, world: int) -> SocialGraph:
    sampled = SocialGraph()
    for node in nodes:
        sampled.add_node(node)
    base = _sketch_base(seed, world)
    previous, cumulative, draw = None, 0.0, 0.0
    for dst, src, weight in edges:
        if dst != previous:
            previous, cumulative = dst, 0.0
            draw = _node_uniform(base, dst)
        lo = cumulative
        cumulative += weight
        if lo <= draw < cumulative:
            sampled.add_edge(nodes[src], nodes[dst])
    return sampled


def sample_world_ic(
    graph: SocialGraph,
    probabilities: Mapping[Edge, float],
    seed: int,
    world: int,
) -> SocialGraph:
    """IC world ``world`` of ``seed``: each edge kept when its coin < p."""
    return _ic_world(*canonical_edges(graph, probabilities), seed, world)


def sample_world_lt(
    graph: SocialGraph,
    weights: Mapping[Edge, float],
    seed: int,
    world: int,
) -> SocialGraph:
    """LT world ``world`` of ``seed`` via Kempe et al.'s live-edge equivalence.

    Each node keeps at most one incoming edge: its draw picks edge
    ``(v, u)`` with probability ``b(v, u)``, or none with probability
    ``1 - sum_v b(v, u)``, reading the in-weights cumulatively in
    canonical source order.
    """
    return _lt_world(*canonical_edges(graph, weights), seed, world)


def spread_in_world(world: SocialGraph, seeds: Iterable[User]) -> int:
    """``sigma_X(S)``: nodes reachable from ``seeds`` in a deterministic world."""
    return len(world.reachable_from(seeds))


def estimate_spread_via_worlds(
    graph: SocialGraph,
    edge_values: Mapping[Edge, float],
    seeds: Iterable[User],
    model: str = "ic",
    num_worlds: int = 1_000,
    seed: int | random.Random | None = None,
) -> float:
    """Estimate expected spread by sampling possible worlds (Eq. 1).

    ``model`` selects the world distribution: ``"ic"`` or ``"lt"``.
    ``seed`` is coerced as in
    :class:`~repro.runtime.estimator.SpreadEstimator`, so equal seeds
    give exactly ``estimate_spread_ic``/``estimate_spread_lt``.
    """
    require(model in ("ic", "lt"), f"model must be 'ic' or 'lt', got {model!r}")
    require(num_worlds >= 1, f"num_worlds must be >= 1, got {num_worlds}")
    seed = keyed_seed(seed)
    nodes, edges = canonical_edges(graph, edge_values)
    build = _ic_world if model == "ic" else _lt_world
    seed_list = list(seeds)
    total = 0
    for index in range(num_worlds):
        world = build(nodes, edges, seed, index)
        total += spread_in_world(world, seed_list)
    return total / num_worlds
