"""Batched NumPy Monte-Carlo spread estimation for IC and LT.

The reference estimators (:func:`repro.diffusion.ic.estimate_spread_ic`,
:func:`repro.diffusion.lt.estimate_spread_lt`) run one cascade at a
time, drawing ``rng.random()`` per touched edge in Python.  This kernel
runs *all* simulations of one estimate together, level-synchronously,
over a precompiled CSR of positive-probability edges, and keeps every
per-level operation proportional to the frontier — the active state is
a dense ``(batch, n)`` matrix for O(1) membership tests, but it is
never rescanned; the frontier travels as flat ``(simulation, node)``
pair arrays:

* **IC** — at each level, the frontier's out-edges are expanded with
  one segmented CSR gather; edges into already-active targets are
  dropped (the reference skips their draw too), the rest get one
  vectorized Bernoulli trial each, and the hits are deduplicated with
  one integer ``unique``.  Each edge is still tried at most once per
  simulation (when its source activates), so the distribution of the
  final active set is exactly the reference's; only the order the
  uniforms are consumed in differs.
* **LT** — thresholds are drawn up-front per (simulation, node);
  frontier weights are scatter-added into a pressure matrix and the
  touched nodes activate when pressure reaches threshold.  The fixed
  point of the LT process does not depend on update order, so this
  again matches the reference distribution (the reference draws
  thresholds lazily, which is the same joint distribution).

Level-synchronous batching means spread estimates are *statistically*
equivalent to the Python backend but not sample-path identical — the
parity suite checks cross-backend agreement within Monte-Carlo error,
and the fixed per-seed-set RNG protocol (NumPy's ``default_rng`` seeded
with the same derived integer the reference protocol produces) keeps
every estimate reproducible run-to-run.

Simulations are processed in batches to bound the ``(batch, n)`` state
matrices on large graphs.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import numpy as np

from repro.graphs.digraph import SocialGraph
from repro.kernels.interning import _gather_csr, positive_csr
from repro.utils.validation import require

__all__ = ["CompiledDiffusion"]

User = Hashable
Edge = tuple[User, User]

# Cap on batch * nodes so the flat per-simulation state arrays
# (active / pressure / thresholds) stay cache-resident — the frontier
# loop gathers into them at random offsets, and keeping them around L2
# size is worth far more than larger batches.
_STATE_BUDGET = 262_144


class CompiledDiffusion:
    """The positive-value out-CSR for batched IC/LT simulation.

    Built by :func:`~repro.kernels.interning.positive_csr`: only edges
    with a positive value are compiled (zero-probability edges can
    never fire); values for edges absent from ``edge_values`` default
    to 0, matching the reference's ``.get(edge, 0.0)``.
    """

    def __init__(
        self, graph: SocialGraph, edge_values: Mapping[Edge, float]
    ) -> None:
        self.idmap, self.indptr, self.indices, self.values = positive_csr(
            graph, edge_values, reverse=False
        )
        self.n = len(self.idmap)

    # ------------------------------------------------------------------
    # Shared frontier expansion
    # ------------------------------------------------------------------
    def _expand(
        self, rows: np.ndarray, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All out-edges of the frontier's (simulation, node) pairs.

        Returns ``(simulation_row, target, value)`` flat arrays.
        """
        row_positions, targets, flat = _gather_csr(
            self.indptr, self.indices, nodes
        )
        if len(flat) == 0:
            return np.empty(0, dtype=np.int64), targets, np.empty(0)
        return rows[row_positions.astype(np.int64)], targets, self.values[flat]

    def _seed_ids(self, seeds: Iterable[User]) -> np.ndarray:
        ids = self.idmap.ids
        unique = {ids[seed] for seed in seeds if seed in ids}
        return np.fromiter(unique, dtype=np.int64, count=len(unique))

    def _batches(self, num_simulations: int) -> list[int]:
        batch = max(1, min(num_simulations, _STATE_BUDGET // max(self.n, 1)))
        sizes = [batch] * (num_simulations // batch)
        if num_simulations % batch:
            sizes.append(num_simulations % batch)
        return sizes

    def _initial_frontier(
        self, batch: int, seed_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat active state plus the seed frontier pairs for a batch.

        The active state is one flat ``batch * n`` boolean array indexed
        by ``simulation_row * n + node`` keys — O(1) membership without
        any per-level full rescan.
        """
        active = np.zeros(batch * self.n, dtype=bool)
        rows = np.repeat(np.arange(batch, dtype=np.int64), len(seed_ids))
        nodes = np.tile(seed_ids, batch)
        active[rows * self.n + nodes] = True
        return active, rows, nodes

    # ------------------------------------------------------------------
    # IC
    # ------------------------------------------------------------------
    def spread_ic(
        self,
        seeds: Iterable[User],
        num_simulations: int,
        seed: int | None = None,
    ) -> float:
        """Monte-Carlo estimate of ``sigma_IC(seeds)``."""
        require(
            num_simulations >= 1,
            f"num_simulations must be >= 1, got {num_simulations}",
        )
        seed_ids = self._seed_ids(seeds)
        if len(seed_ids) == 0:
            return 0.0
        rng = np.random.default_rng(seed)
        total_active = 0
        for batch in self._batches(num_simulations):
            active, rows, nodes = self._initial_frontier(batch, seed_ids)
            total_active += batch * len(seed_ids)
            while len(rows):
                rows, targets, probabilities = self._expand(rows, nodes)
                if len(rows) == 0:
                    break
                keys = rows * self.n + targets
                # The reference skips draws into already-active targets;
                # dropping them first matches that economy of trials.
                open_targets = ~active[keys]
                keys = keys[open_targets]
                hits = rng.random(len(keys)) < probabilities[open_targets]
                keys = keys[hits]
                if len(keys) == 0:
                    break
                # Several frontier nodes can hit one target in the same
                # level; one integer unique collapses the duplicates.
                keys = np.unique(keys)
                active[keys] = True
                total_active += len(keys)
                rows = keys // self.n
                nodes = keys % self.n
        return total_active / num_simulations

    # ------------------------------------------------------------------
    # LT
    # ------------------------------------------------------------------
    def spread_lt(
        self,
        seeds: Iterable[User],
        num_simulations: int,
        seed: int | None = None,
    ) -> float:
        """Monte-Carlo estimate of ``sigma_LT(seeds)``."""
        require(
            num_simulations >= 1,
            f"num_simulations must be >= 1, got {num_simulations}",
        )
        seed_ids = self._seed_ids(seeds)
        if len(seed_ids) == 0:
            return 0.0
        rng = np.random.default_rng(seed)
        total_active = 0
        for batch in self._batches(num_simulations):
            thresholds = rng.random(batch * self.n)
            pressure = np.zeros(batch * self.n)
            active, rows, nodes = self._initial_frontier(batch, seed_ids)
            total_active += batch * len(seed_ids)
            while len(rows):
                rows, targets, weights = self._expand(rows, nodes)
                if len(rows) == 0:
                    break
                # Accumulate this level's incoming weights per touched
                # (simulation, node) pair — ufunc.at handles duplicate
                # keys with its indexed fast path.
                keys = rows * self.n + targets
                np.add.at(pressure, keys, weights)
                # Only touched pairs can newly activate; an untouched
                # node never does (the reference's lazy thresholds),
                # and accumulated pressure keeps them monotone.  The
                # threshold check may see one pair several times; the
                # unique over the (few) crossers dedups the frontier.
                newly = (pressure[keys] >= thresholds[keys]) & ~active[keys]
                keys = np.unique(keys[newly])
                if len(keys) == 0:
                    break
                active[keys] = True
                total_active += len(keys)
                rows = keys // self.n
                nodes = keys % self.n
        return total_active / num_simulations
