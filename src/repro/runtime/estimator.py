"""Monte-Carlo IC/LT spread on counter-keyed possible worlds.

:class:`SpreadEstimator` is the library's one Monte-Carlo estimator of
``sigma_IC``/``sigma_LT``: the oracles, ``estimate_spread_ic``/
``estimate_spread_lt``, the prediction pipeline and ``repro serve`` all
call it.  Simulation ``i`` is possible world ``i``: every coin is a
pure function of ``(seed, i, key)`` (:mod:`repro.utils.rng`), keyed by
a canonical edge id for the IC liveness coin and by the target node
for the LT live-edge choice.  The key never contains the seed set, so

* every seed set is scored on the same ``N`` worlds, and
  ``spread(S) = sum_i |reach_i(S)| / N`` is an exact coverage function:
  monotone and submodular, as CELF's lazy queue assumes;
* ``[a]``, ``[a, a]`` and ``[a, "not-a-node"]`` get the same answer,
  and so does any order of a seed set;
* the python engine below and the NumPy kernel
  (:class:`~repro.kernels.mc_numpy.CompiledDiffusion`) agree bit for
  bit, because an engine returns an integer count of active nodes over
  a range of worlds.  Only :meth:`SpreadEstimator.spread_many` divides
  by ``N``, so any split of the worlds — serial, or chunked across a
  thread or process executor — gives the same float.

:mod:`repro.diffusion.worlds` builds the same worlds explicitly and is
the reference the engines are tested against, world by world.
"""

from __future__ import annotations

import copy
import random
from typing import Hashable, Iterable, Mapping, Sequence

from repro.graphs.digraph import SocialGraph
from repro.kernels import resolve_backend
from repro.obs import trace as obs_trace
from repro.runtime.executor import Executor, split_chunks
from repro.utils.ordering import canonical_edges
from repro.utils.rng import (
    _coin_bound,
    _edge_key,
    _mix64,
    _node_key,
    _sketch_base,
    keyed_seed,
)
from repro.utils.validation import require

__all__ = ["SpreadEstimator"]

User = Hashable
Edge = tuple[User, User]

MODELS = ("ic", "lt")


class _Cascades:
    """The python engine: one keyed-coin cascade per world.

    Each out-edge of a node carries ``(target, key, lo, hi)``: it is
    live in a world when the coin of ``key`` falls in ``[lo, hi)`` —
    the edge's own coin against ``[0, p)`` for IC, the target's coin
    against the edge's slice of the target's cumulative in-weights
    (summed in canonical source order) for LT.  Key words are
    precomputed, the interval is stored as raw-hash bounds
    (:func:`~repro.utils.rng._coin_bound`), and an edge into an active
    target draws no coin.
    """

    def __init__(
        self, graph: SocialGraph, edge_values: Mapping[Edge, float], model: str
    ) -> None:
        nodes, edges = canonical_edges(graph, edge_values)
        self.ids = {node: index for index, node in enumerate(nodes)}
        self.rows: list[list[tuple[int, int, int, int]]] = [
            [] for _ in nodes
        ]
        previous, cumulative = None, 0.0
        for edge_id, (dst, src, value) in enumerate(edges):
            if model == "ic":
                key, lo, hi = _edge_key(edge_id), 0.0, value
            else:
                if dst != previous:
                    previous, cumulative = dst, 0.0
                key, lo = _node_key(dst), cumulative
                cumulative += value
                hi = cumulative
            self.rows[src].append(
                (dst, key, _coin_bound(lo), _coin_bound(hi))
            )

    def active_count(
        self, seeds: Iterable[User], seed: int, worlds: range
    ) -> int:
        """Total active nodes of ``seeds`` summed over ``worlds``."""
        ids = self.ids
        initial = {ids[node] for node in seeds if node in ids}
        if not initial:
            return 0
        rows = self.rows
        total = 0
        for world in worlds:
            base = _sketch_base(seed, world)
            active = set(initial)
            frontier = list(initial)
            while frontier:
                for target, key, lo, hi in rows[frontier.pop()]:
                    if target not in active and lo <= _mix64(base ^ key) < hi:
                        active.add(target)
                        frontier.append(target)
            total += len(active)
        return total


def _count_worlds(payload: tuple) -> int:
    """Worker task: one seed set's active count over one world range.

    ``payload`` is ``(engine, seeds, seed, worlds)``; the engine is a
    :class:`_Cascades` or a
    :class:`~repro.kernels.mc_numpy.CompiledDiffusion`, both picklable,
    so the same function serves the serial, thread and process
    executors.
    """
    engine, seeds, seed, worlds = payload
    return engine.active_count(seeds, seed, worlds)


class SpreadEstimator:
    """Monte-Carlo ``sigma_IC``/``sigma_LT`` with an executor seam.

    Parameters
    ----------
    graph, edge_values:
        The diffusion network: IC probabilities or LT weights.
    model:
        ``"ic"`` or ``"lt"``.
    num_simulations:
        The number of worlds ``N`` every estimate averages over.
    seed:
        The coin seed: an ``int``, a ``random.Random`` (64 bits are
        drawn from it) or ``None`` (fresh entropy).
    backend:
        Compute backend per :func:`repro.kernels.resolve_backend`.
    executor:
        Where world ranges run; ``None`` means serial.

    The engine is compiled at construction, in the constructing
    process, so workers that receive a pickled estimator never compile.
    """

    def __init__(
        self,
        graph: SocialGraph,
        edge_values: Mapping[Edge, float],
        model: str = "ic",
        num_simulations: int = 100,
        seed: int | random.Random | None = 0,
        backend: str | None = None,
        executor: Executor | None = None,
    ) -> None:
        require(model in MODELS, f"model must be one of {MODELS}, got {model!r}")
        require(
            num_simulations >= 1,
            f"num_simulations must be >= 1, got {num_simulations}",
        )
        self.graph = graph
        self.model = model
        self.num_simulations = num_simulations
        self.seed = keyed_seed(seed)
        self.backend = resolve_backend(backend)
        self.executor = executor
        if self.backend == "numpy":
            from repro.kernels.mc_numpy import CompiledDiffusion

            self._engine = CompiledDiffusion(graph, edge_values, model)
        else:
            self._engine = _Cascades(graph, edge_values, model)

    def engine(self):
        """The compiled cascade engine."""
        return self._engine

    def with_seed(self, seed: int | random.Random | None) -> "SpreadEstimator":
        """This estimator on the worlds of ``seed``, sharing its engine.

        The engine takes the seed per call, so nothing is recompiled.
        """
        twin = copy.copy(self)
        twin.seed = keyed_seed(seed)
        return twin

    def candidates(self) -> list[User]:
        """All graph nodes (the :class:`SpreadOracle` protocol)."""
        return list(self.graph.nodes())

    def spread(self, seeds: Iterable[User]) -> float:
        """Monte-Carlo estimate of the expected spread of ``seeds``."""
        return self.spread_many([seeds])[0]

    def spread_many(self, seed_sets: Sequence[Iterable[User]]) -> list[float]:
        """Estimates for many seed sets in one dispatch pass.

        Element ``i`` equals ``spread(seed_sets[i])``.  Under a parallel
        executor the worlds are split into contiguous ranges and every
        (set, range) task goes into a single ``executor.map``.  This is
        the request-coalescing seam ``repro serve`` uses to answer
        concurrent ``/spread``/``/predict`` queries in one pass.
        """
        with obs_trace.span(
            "estimator.spread_many", model=self.model, sets=len(seed_sets)
        ):
            total = self.num_simulations
            executor = self.executor
            parallel = executor is not None and executor.is_parallel
            if parallel:
                ranges = [
                    range(chunk[0], chunk[-1] + 1)
                    for chunk in split_chunks(range(total), executor.workers())
                ]
            else:
                ranges = [range(total)]
            payloads = [
                (self._engine, list(seeds), self.seed, worlds)
                for seeds in seed_sets
                for worlds in ranges
            ]
            if parallel:
                counts = executor.map(_count_worlds, payloads)
            else:
                counts = [_count_worlds(payload) for payload in payloads]
            width = len(ranges)
            return [
                sum(counts[index:index + width]) / total
                for index in range(0, len(counts), width)
            ]
