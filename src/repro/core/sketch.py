"""Reverse-reachability sketches and hop-limited spread bounds (reference).

The possible-world identity behind Eq. (4) turns influence estimation
into set coverage: the probability that a random node in a random
live-edge world is reachable from ``S`` equals ``sigma(S) / n``
(Borgs et al. SODA'14).  A *sketch* is one sampled reverse-reachable
set — every node with a live path of at most ``hops`` edges to a random
target — and greedy maximum coverage over a batch of sketches is the
RIS/TIM selection rule.  Hop-limited sketches trade a little downward
bias for bounded work per sketch (the 1-hop/2-hop estimators of
Tang et al., arXiv:1705.10442).

Determinism is the load-bearing property here.  Sketch generation does
not consume a sequential RNG stream: edge liveness and the sketch
target are *pure functions* of ``(seed, sketch index, edge id)``
through the counter-keyed coins of :mod:`repro.utils.rng`, so

* the same seed replays the same sketches on any backend — the NumPy
  kernel (:mod:`repro.kernels.sketch_numpy`) expands frontiers in
  batches yet produces byte-identical membership, the parity suite's
  contract;
* membership is independent of traversal order (an edge's coin does
  not care when the BFS examines it), which is what lets the batched
  kernel reorder work freely.

Edge ids are canonical: the rank of ``(dst, src)`` among the graph's
positive-probability edges, i.e. the edge's position in an in-CSR
sorted by ``(dst, src)`` — reproducible here with one ``sort`` and in
the kernel with one ``lexsort``.  Node ids are assigned in
:func:`~repro.utils.ordering.node_sort_key` order, matching the
library's canonical tie-break (and :class:`repro.kernels.interning.IdMap`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from repro.graphs.digraph import SocialGraph
from repro.utils.ordering import canonical_edges, node_sort_key
from repro.utils.rng import (
    _edge_uniform,
    _mix64,
    _sketch_base,
    derive_seed,
    keyed_seed,
)
from repro.utils.validation import require

__all__ = [
    "SketchSet",
    "generate_sketches",
    "coverage_maximize",
    "hop_spread",
    "sketch_generation_seed",
]

User = Hashable
Edge = tuple[User, User]

# The sketch-target salt; the other coin constants and helpers are the
# shared counter-keyed coins of repro.utils.rng.
_TARGET_SALT = 0xD6E8FEB86659FD93


def _sketch_target(base: int, num_nodes: int) -> int:
    """The sketch's uniformly random target node id."""
    return _mix64(base ^ _TARGET_SALT) % num_nodes


def sketch_generation_seed(base: int, num_sketches: int, hops: int | None) -> int:
    """The shared seed schedule for sketch generation.

    Derived via :func:`repro.utils.rng.derive_seed` — the same fan-out
    rule as every executor/trial decomposition in the library — so a
    direct :func:`repro.maximization.ris.ris_maximize` call and
    :meth:`repro.api.context.SelectionContext.sketches` generate
    identical sketches from the same base seed.
    """
    return derive_seed(base, "sketches", num_sketches, hops)


@dataclass
class SketchSet:
    """A batch of reverse-reachability sketches in CSR form.

    Attributes
    ----------
    num_nodes:
        Size of the node universe (the spread estimator's ``n``).
    num_sketches:
        Number of sketches; sketch ``i`` owns the member slice
        ``indptr[i]:indptr[i + 1]``.
    hops:
        BFS depth limit (``None`` = unbounded, classic RIS).
    seed:
        The *generation* seed (post-:func:`sketch_generation_seed`)
        that replays this exact batch.
    method:
        The IC probability-assignment method the edge probabilities
        came from, when known (audit metadata).
    nodes:
        Node labels by id, in :func:`node_sort_key` order; ``None``
        means ids are their own labels (the raw-CSR path).
    targets / indptr / members:
        Per-sketch target ids, the CSR index, and the member node ids
        (sorted ascending within each sketch).  Plain lists on the
        python backend, arrays on numpy — values are identical.
    """

    num_nodes: int
    num_sketches: int
    hops: int | None
    seed: int
    method: str | None
    nodes: list | None
    targets: Sequence[int]
    indptr: Sequence[int]
    members: Sequence[int]

    def members_of(self, index: int) -> Sequence[int]:
        """The member node ids of sketch ``index`` (ascending)."""
        return self.members[self.indptr[index]:self.indptr[index + 1]]

    def label_of(self, node_id: int):
        """The original node label behind ``node_id``."""
        return self.nodes[node_id] if self.nodes is not None else node_id

    def _ids(self) -> dict:
        """Label -> node id, built on first use and left out of pickles."""
        mapping = self.__dict__.get("_id_of")
        if mapping is None:
            mapping = {node: i for i, node in enumerate(self.nodes)}
            self.__dict__["_id_of"] = mapping
        return mapping

    def id_of(self, label) -> int:
        """The node id of ``label`` (identity on the raw-CSR path)."""
        return label if self.nodes is None else self._ids()[label]

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_id_of", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @property
    def total_members(self) -> int:
        return len(self.members)

    def estimate_spread(self, seeds: Iterable) -> float:
        """Estimate ``sigma_IC(seeds)`` from this batch (the RR estimator).

        ``n * (covered sketches) / (total sketches)`` — unbiased, with
        variance shrinking as 1/#sketches.  Seeds outside the universe
        (labels that are not nodes, or ids outside ``[0, num_nodes)`` on
        the raw-CSR path) are skipped, as the Monte-Carlo estimators
        skip seeds missing from the graph.
        """
        if not self.num_sketches:
            return 0.0
        if self.nodes is None:
            wanted = {seed for seed in seeds if 0 <= seed < self.num_nodes}
        else:
            ids = self._ids()
            wanted = {ids[label] for label in seeds if label in ids}
        covered = sum(
            1
            for index in range(self.num_sketches)
            if not wanted.isdisjoint(self.members_of(index))
        )
        return self.num_nodes * covered / self.num_sketches


def generate_sketches(
    graph: SocialGraph,
    probabilities: Mapping[Edge, float],
    num_sketches: int = 10_000,
    hops: int | None = None,
    seed: int | None = None,
    method: str | None = None,
) -> SketchSet:
    """Generate ``num_sketches`` hop-limited RR sketches (reference).

    ``seed`` is the *generation* seed (callers derive it through
    :func:`sketch_generation_seed`); ``None`` draws fresh OS entropy,
    exactly like ``make_rng(None)``.  ``hops=None`` is unbounded
    reverse reachability; ``hops=h`` keeps nodes within ``h`` live
    edges of the target.  Kept bit-compatible with
    :meth:`repro.kernels.sketch_numpy.CompiledSketcher.generate`.
    """
    require(num_sketches >= 1, f"num_sketches must be >= 1, got {num_sketches}")
    require(
        hops is None or hops >= 1, f"hops must be >= 1 or None, got {hops}"
    )
    seed = keyed_seed(seed)
    nodes, entries = canonical_edges(graph, probabilities)
    n = len(nodes)
    if n == 0:
        return SketchSet(
            num_nodes=0, num_sketches=0, hops=hops, seed=seed,
            method=method, nodes=nodes, targets=[], indptr=[0], members=[],
        )
    in_adj: list[list[tuple[int, int, float]]] = [[] for _ in range(n)]
    for edge_id, (dst, src, probability) in enumerate(entries):
        in_adj[dst].append((src, edge_id, probability))

    targets: list[int] = []
    indptr: list[int] = [0]
    members: list[int] = []
    for index in range(num_sketches):
        base = _sketch_base(seed, index)
        target = _sketch_target(base, n)
        reached = {target}
        frontier = [target]
        level = 0
        while frontier and (hops is None or level < hops):
            next_frontier: list[int] = []
            for node in frontier:
                for src, edge_id, probability in in_adj[node]:
                    if src in reached:
                        continue
                    if _edge_uniform(base, edge_id) < probability:
                        reached.add(src)
                        next_frontier.append(src)
            frontier = next_frontier
            level += 1
        targets.append(target)
        members.extend(sorted(reached))
        indptr.append(len(members))
    return SketchSet(
        num_nodes=n, num_sketches=num_sketches, hops=hops, seed=seed,
        method=method, nodes=nodes, targets=targets, indptr=indptr,
        members=members,
    )


def coverage_maximize(
    sketches: SketchSet, k: int
) -> tuple[list[int], list[int]]:
    """Greedy maximum coverage over a sketch batch (reference).

    Returns ``(seed node ids, integer cover gains)`` — the caller
    scales gains by ``num_nodes / num_sketches``.  Exact cover-count
    bookkeeping with the library's canonical tie-break (smallest node
    id, which is :func:`node_sort_key` order by construction); integer
    state makes the numpy kernel's argmax/bincount rewrite bit-trivial
    to compare.
    """
    require(k >= 0, f"k must be non-negative, got {k}")
    if k == 0 or sketches.num_sketches == 0:
        return [], []
    membership: dict[int, list[int]] = {}
    for index in range(sketches.num_sketches):
        for node in sketches.members_of(index):
            membership.setdefault(node, []).append(index)
    cover_count = {node: len(hits) for node, hits in membership.items()}
    covered = [False] * sketches.num_sketches
    seeds: list[int] = []
    gains: list[int] = []
    for _ in range(min(k, len(cover_count))):
        best = None
        gain = 0
        for node, count in cover_count.items():
            if count > gain or (
                count == gain and best is not None and node < best
            ):
                best = node
                gain = count
        if best is None or gain <= 0:
            break
        seeds.append(best)
        gains.append(gain)
        for index in membership[best]:
            if covered[index]:
                continue
            covered[index] = True
            for node in sketches.members_of(index):
                if node in cover_count:
                    cover_count[node] -= 1
        del cover_count[best]
    return seeds, gains


def hop_spread(
    graph: SocialGraph,
    probabilities: Mapping[Edge, float],
    seeds: Iterable[User],
    hops: int = 2,
) -> float:
    """The deterministic 1-hop/2-hop spread bound (Tang et al. 2017).

    * 1-hop: ``|S| + sum_v (1 - prod_{u in S} (1 - p(u, v)))`` — exact
      on graphs where no influence travels two edges.
    * 2-hop: adds ``direct(v) * p(v, w) * (1 - direct(w))`` for every
      second-level edge, which is exact on directed trees of depth <= 2
      rooted at a single seed (the accuracy suite's test hook) and a
      near-linear-time estimate everywhere else.
    """
    require(hops in (1, 2), f"hops must be 1 or 2, got {hops}")
    seed_set = {node for node in seeds if node in graph}
    direct: dict[User, float] = {}
    for source in sorted(seed_set, key=node_sort_key):
        for target in graph.out_neighbors(source):
            if target in seed_set:
                continue
            probability = probabilities.get((source, target), 0.0)
            if probability <= 0.0:
                continue
            direct[target] = direct.get(target, 1.0) * (1.0 - probability)
    total = float(len(seed_set))
    for target, miss in direct.items():
        direct[target] = 1.0 - miss
        total += direct[target]
    if hops == 1:
        return total
    for middle, reach in direct.items():
        if reach <= 0.0:
            continue
        for target in graph.out_neighbors(middle):
            if target in seed_set:
                continue
            probability = probabilities.get((middle, target), 0.0)
            if probability <= 0.0:
                continue
            total += reach * probability * (1.0 - direct.get(target, 0.0))
    return total
