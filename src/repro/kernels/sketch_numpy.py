"""Batched reverse-reachability sketch generation and coverage (NumPy).

The vectorized twin of :mod:`repro.core.sketch`.  Sketch membership is
a pure function of ``(seed, sketch index, edge id)`` through the shared
64-bit mixer, so this kernel can expand thousands of sketches' BFS
frontiers per level in one CSR gather and still produce *byte-identical*
membership to the reference generator — the property the parity suite
pins.

The layout is :func:`repro.kernels.interning.positive_csr`'s in-CSR:
node ids in :func:`~repro.utils.ordering.node_sort_key` order, rows
sorted by ``(dst, src)`` via one ``lexsort`` whose flat positions *are*
the canonical edge ids.  Per-sketch state lives in flat ``row * n + node``
keys (no dense ``(batch, n)`` buffers), so memory scales with sketch
membership, not with graph size — that is what lets the million-node
benchmark generate 10^5 sketches over 10^6 nodes in-core.

Each BFS level dedups its candidate keys with one sort
(:func:`~repro.kernels.interning._sorted_unique`: NumPy >= 2.3 answers
a bare ``np.unique`` through a hash table, an order of magnitude
slower on these int64 keys), drops the candidates that are members
already through one ``searchsorted`` into the sorted member keys, and
inserts the fresh ones at the points that search found.  The fresh
keys are sorted and disjoint from the members, so the member keys stay
sorted (each sketch's members ascending) without a re-sort per level.

Greedy maximum coverage replaces the reference's per-set Python dicts
with ``argmax``/``bincount`` over the CSR arrays: ``argmax`` returns
the first maximal index, which is exactly the reference's smallest-id
tie-break, so selections match integer-for-integer.
"""

from __future__ import annotations

from typing import Hashable, Mapping

import numpy as np

from repro.core.sketch import _TARGET_SALT, SketchSet
from repro.graphs.digraph import SocialGraph
from repro.kernels.interning import _gather_csr, _sorted_unique, positive_csr
from repro.utils.rng import _C1, _C2, _C3, _mix64, keyed_seed
from repro.utils.validation import require

__all__ = ["CompiledSketcher", "coverage_maximize_numpy"]

User = Hashable
Edge = tuple[User, User]

_U33 = np.uint64(33)
_U11 = np.uint64(11)
_M1 = np.uint64(0xFF51AFD7ED558CCD)
_M2 = np.uint64(0xC4CEB9FE1A85EC53)
_INV53 = 2.0 ** -53


def _mix64_np(x: np.ndarray) -> np.ndarray:
    """The murmur3 finalizer on ``uint64`` arrays (wraparound == mod 2^64)."""
    x = x ^ (x >> _U33)
    x = x * _M1
    x = x ^ (x >> _U33)
    x = x * _M2
    x = x ^ (x >> _U33)
    return x


# The numpy mirror of repro.utils.rng's counter-keyed coins, bit for bit.
def _bases_np(seed: int, first: int, count: int) -> np.ndarray:
    """``_sketch_base(seed, i)`` for every world ``i`` in ``[first, first + count)``."""
    index = np.arange(first, first + count, dtype=np.uint64)
    return _mix64_np(
        np.uint64(_mix64(seed)) ^ ((index + np.uint64(1)) * np.uint64(_C1))
    )


def _edge_keys_np(edge_ids: np.ndarray) -> np.ndarray:
    """``_edge_key`` of every canonical edge id."""
    return (edge_ids.astype(np.uint64) + np.uint64(1)) * np.uint64(_C2)


def _node_keys_np(node_ids: np.ndarray) -> np.ndarray:
    """``_node_key`` of every node id."""
    return (node_ids.astype(np.uint64) + np.uint64(1)) * np.uint64(_C3)


def _uniform_np(bases: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``_uniform`` of aligned (world base, key word) pairs."""
    return (_mix64_np(bases ^ keys) >> _U11).astype(np.float64) * _INV53


class CompiledSketcher:
    """Sketch generator over an in-CSR with canonical edge ids.

    Parameters
    ----------
    in_indptr / in_indices / probabilities:
        The in-CSR of the positive-probability edges, rows sorted by
        ``(dst, src)``; ``probabilities`` aligned with ``in_indices``.
        The flat CSR position of an entry is its canonical edge id.
    nodes:
        Node labels by id (``None`` on the raw-CSR path, where ids are
        their own labels — the synthetic million-node benchmark).
    """

    def __init__(
        self,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
        probabilities: np.ndarray,
        nodes: list | None = None,
    ) -> None:
        self.in_indptr = np.asarray(in_indptr, dtype=np.int64)
        self.in_indices = np.asarray(in_indices, dtype=np.int64)
        self.probabilities = np.asarray(probabilities, dtype=np.float64)
        self.n = len(self.in_indptr) - 1
        self.nodes = nodes
        require(
            len(self.in_indices) == len(self.probabilities),
            "in_indices and probabilities must align",
        )

    @classmethod
    def from_graph(
        cls, graph: SocialGraph, probabilities: Mapping[Edge, float]
    ) -> "CompiledSketcher":
        """Compile the positive-probability in-CSR of ``graph``."""
        idmap, indptr, indices, values = positive_csr(graph, probabilities)
        return cls(indptr, indices, values, nodes=idmap.values)

    def generate(
        self,
        num_sketches: int,
        hops: int | None = None,
        seed: int | None = None,
        method: str | None = None,
        batch_size: int = 4096,
    ) -> SketchSet:
        """Generate sketches bit-identically to ``generate_sketches``.

        Whole batches of sketches advance one BFS level per iteration:
        one CSR gather expands every frontier node of every sketch in
        the batch, the liveness coins come from the shared mixer keyed
        on ``(sketch base, edge id)``, and membership dedup runs on
        sorted ``row * n + node`` keys — row-major, so each sketch's
        members end up ascending, matching the reference's ``sorted``.
        """
        require(
            num_sketches >= 1, f"num_sketches must be >= 1, got {num_sketches}"
        )
        require(
            hops is None or hops >= 1, f"hops must be >= 1 or None, got {hops}"
        )
        require(batch_size >= 1, f"batch_size must be >= 1, got {batch_size}")
        seed = keyed_seed(seed)
        n = self.n
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return SketchSet(
                num_nodes=0, num_sketches=0, hops=hops, seed=seed,
                method=method, nodes=self.nodes, targets=empty,
                indptr=np.zeros(1, dtype=np.int64), members=empty,
            )
        salt = np.uint64(_TARGET_SALT)
        target_chunks: list[np.ndarray] = []
        member_chunks: list[np.ndarray] = []
        count_chunks: list[np.ndarray] = []
        for start in range(0, num_sketches, batch_size):
            stop = min(start + batch_size, num_sketches)
            bases = _bases_np(seed, start, stop - start)
            targets = (_mix64_np(bases ^ salt) % np.uint64(n)).astype(np.int64)
            rows = np.arange(stop - start, dtype=np.int64)
            # Flat (row, node) membership keys, kept sorted: rows are
            # strictly increasing, so the initial targets already are.
            member_keys = rows * n + targets
            frontier_rows = rows
            frontier_nodes = targets
            level = 0
            while len(frontier_nodes) and (hops is None or level < hops):
                row_pos, neighbors, flat = _gather_csr(
                    self.in_indptr, self.in_indices, frontier_nodes
                )
                if len(neighbors) == 0:
                    break
                sketch_rows = frontier_rows[row_pos]
                coins = _uniform_np(bases[sketch_rows], _edge_keys_np(flat))
                live = coins < self.probabilities[flat]
                if not live.any():
                    break
                candidates = _sorted_unique(
                    sketch_rows[live] * n + neighbors[live].astype(np.int64)
                )
                at = np.searchsorted(member_keys, candidates)
                clipped = np.minimum(at, len(member_keys) - 1)
                new = (at == len(member_keys)) | (
                    member_keys[clipped] != candidates
                )
                fresh = candidates[new]
                if len(fresh) == 0:
                    break
                # The fresh keys are sorted and disjoint from the
                # members, so inserting each at its searchsorted point
                # keeps the members sorted without re-sorting them.
                member_keys = np.insert(member_keys, at[new], fresh)
                frontier_rows = fresh // n
                frontier_nodes = fresh % n
                level += 1
            target_chunks.append(targets)
            member_chunks.append(member_keys % n)
            count_chunks.append(
                np.bincount(member_keys // n, minlength=stop - start)
            )
        counts = np.concatenate(count_chunks)
        indptr = np.zeros(num_sketches + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return SketchSet(
            num_nodes=n,
            num_sketches=num_sketches,
            hops=hops,
            seed=seed,
            method=method,
            nodes=self.nodes,
            targets=np.concatenate(target_chunks),
            indptr=indptr,
            members=np.concatenate(member_chunks),
        )


def coverage_maximize_numpy(
    sketches: SketchSet, k: int
) -> tuple[list[int], list[int]]:
    """Greedy maximum coverage via ``argmax``/``bincount``.

    Integer-identical to :func:`repro.core.sketch.coverage_maximize`:
    ``argmax`` picks the smallest id among tied maxima (the reference
    tie-break), and cover counts decrement through one ``bincount``
    over the members of the newly covered sketches per selection.
    """
    require(k >= 0, f"k must be non-negative, got {k}")
    members = np.asarray(sketches.members, dtype=np.int64)
    indptr = np.asarray(sketches.indptr, dtype=np.int64)
    if k == 0 or sketches.num_sketches == 0 or len(members) == 0:
        return [], []
    n = sketches.num_nodes
    sketch_ids = np.repeat(
        np.arange(sketches.num_sketches, dtype=np.int64), np.diff(indptr)
    )
    counts = np.bincount(members, minlength=n)
    covered = np.zeros(sketches.num_sketches, dtype=bool)
    seeds: list[int] = []
    gains: list[int] = []
    for _ in range(min(k, int((counts > 0).sum()))):
        best = int(np.argmax(counts))
        gain = int(counts[best])
        if gain <= 0:
            break
        seeds.append(best)
        gains.append(gain)
        hit = (members == best) & ~covered[sketch_ids]
        newly = np.zeros(sketches.num_sketches, dtype=bool)
        newly[sketch_ids[hit]] = True
        covered |= newly
        counts -= np.bincount(members[newly[sketch_ids]], minlength=n)
    return seeds, gains
