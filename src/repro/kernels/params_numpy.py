"""Eq.-9 influenceability learning on the compiled log (NumPy).

The vectorized twin of :func:`repro.core.params.learn_influenceability`,
held to the bit-identity half of the kernel-parity contract: the
:class:`~repro.kernels.interning.CompiledLog` flat link arrays are laid
out in exactly the reference's iteration order (actions in log order,
trace chronologically, parents by activation time then node sort key),
so a weighted ``np.bincount`` — which adds sequentially in array order,
starting from 0.0 — accumulates every per-pair delay sum in the same
order, and therefore to the same 64-bit float, as the reference's dict
updates.  The pairs are numbered through
:func:`~repro.kernels.interning._first_seen`'s dense table over the
edge ids; ``tau`` keys are emitted in first-occurrence order (the
pairs ordered by their first index), matching the reference dict's
insertion order, and ``average_tau`` is a plain Python ``sum`` over
those values so even the global mean is byte-equal.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.core.params import InfluenceabilityParams
from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.kernels.interning import (
    CompiledGraph,
    CompiledLog,
    _first_seen,
    _sorted_unique,
)

__all__ = ["learn_influenceability_numpy"]

User = Hashable


def learn_influenceability_numpy(
    graph: SocialGraph,
    log: ActionLog,
    compiled: CompiledLog | None = None,
) -> InfluenceabilityParams:
    """Learn ``tau_{v,u}`` and ``infl(u)`` — bit-identical to the reference."""
    if compiled is None:
        compiled = CompiledLog(CompiledGraph(graph, log.users()), log)
    cgraph = compiled.graph
    child = compiled.link_child
    if len(child) == 0:
        infl = {user: 0.0 for user in log.users()}
        return InfluenceabilityParams(tau={}, infl=infl, average_tau=1.0)
    times = compiled.times_flat
    delays = times[child] - times[compiled.link_parent]
    pairs, first, inverse = _first_seen(compiled.link_edge_ids, cgraph.num_edges)
    # Sequential in array order == the reference's accumulation order.
    delay_sums = np.bincount(inverse, weights=delays, minlength=len(pairs))
    delay_counts = np.bincount(inverse, minlength=len(pairs))
    tau_values = delay_sums / delay_counts

    # Pass 2, ahead of the dicts so that they and the link-sized arrays
    # are never live together: a trace entry counts as influenced when
    # *any* parent's delay is within tau — the reference's
    # break-on-first-parent is "count each child position at most
    # once", i.e. one sorted unique.
    qualifying = delays <= tau_values[inverse]
    influenced_positions = _sorted_unique(child[qualifying])
    influenced = np.bincount(
        compiled.node_ids_flat[influenced_positions], minlength=cgraph.n
    ).tolist()

    # Reference dict order: the order each pair is first seen in the log.
    order = np.argsort(first)
    tau: dict[tuple[User, User], float] = dict(
        zip(cgraph.edges(pairs[order]), tau_values[order].tolist())
    )
    total_delay = sum(delay_sums[order].tolist())
    total_count = int(delay_counts.sum())
    average_tau = (total_delay / total_count) if total_count else 1.0
    if average_tau <= 0.0:
        average_tau = 1.0
    ids = cgraph.idmap.ids
    infl = {
        user: influenced[ids[user]] / log.activity(user)
        for user in log.users()
    }
    return InfluenceabilityParams(tau=tau, infl=infl, average_tau=average_tau)
