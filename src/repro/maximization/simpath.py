"""SimPath: simulation-free spread estimation for the LT model.

SimPath (Goyal, Lu, Lakshmanan; ICDM 2011 — the CD paper's authors,
same year) replaces Monte Carlo LT estimation with *simple-path
enumeration*.  Under the live-edge view of LT, the spread decomposes
over the seeds:

    sigma(S) = sum_{u in S} sigma^{V - S + u}(u)

where ``sigma^W(u)`` — the spread of the single node ``u`` in the
subgraph induced by ``W`` — equals the sum, over all simple paths ``P``
starting at ``u`` within ``W``, of the product of the edge weights along
``P`` (each path's weight is the probability that *exactly* that
live-edge path exists and is counted once by simplicity).  Restricting
each seed's walk to ``V - S + u`` removes double counting across seeds.

Path enumeration is exponential in the worst case, but weights shrink
multiplicatively along a path, so SimPath prunes any prefix whose
weight falls below a threshold ``eta`` — trading a small, tunable
underestimate for tractability (the authors report eta in the 1e-3
range works well).  With ``eta = 0`` on a DAG-like instance the
estimate is exact; tests compare against exact live-edge enumeration.

The seed selector wraps the estimator behind the library's
:class:`~repro.maximization.oracle.SpreadOracle` protocol so plain
greedy/CELF drive it unchanged.  (The original paper adds a
vertex-cover initialisation and a look-ahead batching optimisation;
those are engineering accelerations of the same estimator and are out
of scope — the estimator and its guarantee structure are what the
comparison needs.)
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.diffusion.lt import validate_lt_weights
from repro.graphs.digraph import SocialGraph
from repro.maximization.celf import celf_maximize
from repro.maximization.greedy import GreedyResult
from repro.utils.validation import require, require_non_negative

__all__ = ["simpath_spread", "SimPathOracle", "simpath_maximize"]

User = Hashable
Edge = tuple[User, User]


def _forward(
    graph: SocialGraph,
    weights: Mapping[Edge, float],
    start: User,
    allowed: set[User] | None,
    eta: float,
) -> float:
    """Sum of simple-path weights from ``start`` (the paper's FORWARD).

    Iterative depth-first backtracking: ``stack`` holds
    ``(node, prefix_weight, iterator over out-neighbours)``; every node
    reached contributes its prefix weight once.
    """
    total = 1.0  # the empty path: start influences itself
    on_path = {start}
    stack = [(start, 1.0, iter(sorted(graph.out_neighbors(start), key=repr)))]
    while stack:
        node, prefix, neighbors = stack[-1]
        advanced = False
        for target in neighbors:
            if target in on_path:
                continue
            if allowed is not None and target not in allowed:
                continue
            weight = weights.get((node, target), 0.0)
            if weight <= 0.0:
                continue
            extended = prefix * weight
            if extended < eta:
                continue
            total += extended
            on_path.add(target)
            stack.append(
                (
                    target,
                    extended,
                    iter(sorted(graph.out_neighbors(target), key=repr)),
                )
            )
            advanced = True
            break
        if not advanced:
            stack.pop()
            on_path.discard(node)
    return total


def simpath_spread(
    graph: SocialGraph,
    weights: Mapping[Edge, float],
    seeds: Iterable[User],
    eta: float = 1e-3,
) -> float:
    """Estimate ``sigma_LT(seeds)`` by pruned simple-path enumeration.

    Parameters
    ----------
    graph, weights:
        The LT instance (incoming weights must sum to at most 1; this is
        *not* revalidated per call — use
        :func:`~repro.diffusion.lt.validate_lt_weights` once upstream).
    seeds:
        The seed set S.
    eta:
        Pruning threshold: path prefixes with weight below ``eta`` are
        abandoned.  0 disables pruning (exact, potentially exponential).
    """
    require_non_negative(eta, "eta")
    seed_list = [seed for seed in seeds if seed in graph]
    seed_set = set(seed_list)
    total = 0.0
    for seed in seed_list:
        allowed = {
            node for node in graph.nodes() if node not in seed_set
        }
        allowed.add(seed)
        total += _forward(graph, weights, seed, allowed, eta)
    return total


class SimPathOracle:
    """A :class:`SpreadOracle` backed by SimPath's estimator.

    Drop-in replacement for the Monte-Carlo LT oracle: deterministic,
    simulation-free, with accuracy controlled by ``eta``.
    """

    def __init__(
        self,
        graph: SocialGraph,
        weights: Mapping[Edge, float],
        eta: float = 1e-3,
        validate: bool = True,
    ) -> None:
        require_non_negative(eta, "eta")
        if validate:
            validate_lt_weights(graph, weights)
        self._graph = graph
        self._weights = dict(weights)
        self._eta = eta

    def spread(self, seeds: Iterable[User]) -> float:
        """Deterministic SimPath estimate of ``sigma_LT(seeds)``."""
        return simpath_spread(self._graph, self._weights, seeds, self._eta)

    def candidates(self) -> list[User]:
        """All graph nodes are candidate seeds."""
        return list(self._graph.nodes())


def simpath_maximize(
    graph: SocialGraph,
    weights: Mapping[Edge, float],
    k: int,
    eta: float = 1e-3,
) -> GreedyResult:
    """Select ``k`` seeds for the LT model via CELF over SimPath estimates."""
    require(k >= 0, f"k must be non-negative, got {k}")
    oracle = SimPathOracle(graph, weights, eta=eta)
    return celf_maximize(oracle, k)
