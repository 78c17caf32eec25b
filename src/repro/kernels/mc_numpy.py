"""Batched NumPy Monte-Carlo spread for IC and LT on counter-keyed worlds.

The vectorized twin of the python engine in
:mod:`repro.runtime.estimator`.  Simulation ``i`` is possible world
``i``: every coin is a pure function of ``(seed, i, key)`` through the
counter-keyed coins of :mod:`repro.utils.rng` (mirrored here by
:mod:`repro.kernels.sketch_numpy`), never a draw from a stream.  So the
two engines agree bit for bit, any chunking of the worlds sums to the
same count, and every seed set is scored on the same worlds.

Both models reduce to one test per examined edge ``(u, v)``: draw the
edge's coin and check it against the edge's interval ``[lo, hi)``.

* **IC** — the coin is keyed by the edge's canonical id, and the
  interval is ``[0, p)``: the live-edge world keeps each edge with its
  probability.
* **LT** — the coin is keyed by the *target* node, and the interval is
  the edge's slice of the target's cumulative in-weights, summed in
  canonical source order.  Each node then keeps at most one live
  in-edge, chosen with probability equal to its weight: Kempe et al.'s
  live-edge form of the threshold model, exactly as
  :func:`repro.diffusion.worlds.sample_world_lt` builds it.

Edge ids are the canonical ``(dst, src)`` ranks of
:func:`~repro.kernels.interning.positive_csr`'s in-CSR, the ids the
sketch coins key off, so unbounded sketch ``i`` and simulation ``i``
with the same seed sample the same IC world.  The kernel walks the
out-CSR level-synchronously over all worlds of a batch at once: the
active state is a flat ``(world, node)`` boolean array for O(1)
membership, and the frontier travels as flat ``(world, node)`` pairs.
Edges into already-active targets are dropped before their coin is
drawn.  Worlds are processed in batches to bound that state on large
graphs; a batch's world indices are global, so batching never changes
a coin.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import numpy as np

from repro.graphs.digraph import SocialGraph
from repro.kernels.interning import _gather_csr, positive_csr
from repro.kernels.sketch_numpy import (
    _bases_np,
    _edge_keys_np,
    _node_keys_np,
    _uniform_np,
)
from repro.utils.validation import require

__all__ = ["CompiledDiffusion"]

User = Hashable
Edge = tuple[User, User]

# Cap on worlds * nodes so the flat per-world active state stays
# cache-resident — the frontier loop gathers into it at random offsets,
# and keeping it around L2 size is worth far more than larger batches.
_STATE_BUDGET = 262_144


def _lt_intervals(
    indptr: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each in-edge's ``[lo, hi)`` slice of its target's cumulative weight.

    ``hi`` is the running sum of the row's weights up to and including
    the edge, ``lo`` the running sum before it.  The sums are sequential
    per row, as the python engine adds them: the loop advances every
    row by one position at a time.  (A global ``cumsum`` minus row
    offsets would round differently.)
    """
    hi = weights.copy()
    starts = indptr[:-1]
    degrees = np.diff(indptr)
    rows = np.flatnonzero(degrees > 1)
    position = 1
    while len(rows):
        at = starts[rows] + position
        hi[at] += hi[at - 1]
        position += 1
        rows = rows[degrees[rows] > position]
    lo = np.zeros_like(hi)
    lo[1:] = hi[:-1]
    lo[starts[degrees > 0]] = 0.0
    return lo, hi


class CompiledDiffusion:
    """The positive-value out-CSR with every edge's coin key and interval.

    Built from :func:`~repro.kernels.interning.positive_csr`: only edges
    with a positive value are compiled (zero-value edges can never
    fire); values for edges absent from ``edge_values`` default to 0.
    ``model`` is ``"ic"`` (values are probabilities) or ``"lt"``
    (values are weights).
    """

    def __init__(
        self,
        graph: SocialGraph,
        edge_values: Mapping[Edge, float],
        model: str,
    ) -> None:
        require(model in ("ic", "lt"), f"model must be 'ic' or 'lt', got {model!r}")
        self.idmap, in_indptr, sources, values = positive_csr(
            graph, edge_values
        )
        self.n = n = len(self.idmap)
        targets = np.repeat(np.arange(n, dtype=np.int64), np.diff(in_indptr))
        if model == "ic":
            keys = _edge_keys_np(np.arange(len(values), dtype=np.int64))
            lo, hi = np.zeros_like(values), values
        else:
            keys = _node_keys_np(targets)
            lo, hi = _lt_intervals(in_indptr, values)
        # Re-sort the canonical in-CSR entries by (src, dst) for the
        # forward walk; each entry keeps its key and interval.
        order = np.lexsort((targets, sources))
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=n), out=self.indptr[1:])
        self.indices = targets[order]
        self.keys = keys[order]
        self.lo = lo[order]
        self.hi = hi[order]

    def _seed_ids(self, seeds: Iterable[User]) -> np.ndarray:
        ids = self.idmap.ids
        unique = {ids[seed] for seed in seeds if seed in ids}
        return np.fromiter(unique, dtype=np.int64, count=len(unique))

    def active_count(
        self, seeds: Iterable[User], seed: int, worlds: range
    ) -> int:
        """Total active nodes of ``seeds`` summed over ``worlds``.

        ``seeds`` outside the graph are skipped and duplicates collapse;
        ``seed`` is the integer coin seed.
        """
        seed_ids = self._seed_ids(seeds)
        if len(seed_ids) == 0:
            return 0
        n = self.n
        step = max(1, _STATE_BUDGET // max(n, 1))
        total = 0
        for first in range(worlds.start, worlds.stop, step):
            batch = min(step, worlds.stop - first)
            bases = _bases_np(seed, first, batch)
            active = np.zeros(batch * n, dtype=bool)
            rows = np.repeat(np.arange(batch, dtype=np.int64), len(seed_ids))
            nodes = np.tile(seed_ids, batch)
            active[rows * n + nodes] = True
            total += batch * len(seed_ids)
            while len(rows):
                positions, targets, flat = _gather_csr(
                    self.indptr, self.indices, nodes
                )
                rows = rows[positions]
                keys = rows * n + targets
                open_targets = ~active[keys]
                rows, keys, flat = (
                    rows[open_targets], keys[open_targets], flat[open_targets]
                )
                coins = _uniform_np(bases[rows], self.keys[flat])
                live = (self.lo[flat] <= coins) & (coins < self.hi[flat])
                # Several frontier nodes can hit one IC target in the
                # same level; one integer unique collapses them.
                keys = np.unique(keys[live])
                active[keys] = True
                total += len(keys)
                rows = keys // n
                nodes = keys % n
        return total
