"""Eq.-9 influenceability learning on the compiled log (NumPy).

The vectorized twin of :func:`repro.core.params.learn_influenceability`,
held to the bit-identity half of the kernel-parity contract: the
:class:`~repro.kernels.interning.CompiledLog` flat link arrays are laid
out in exactly the reference's iteration order (actions in log order,
trace chronologically, parents by activation time then node sort key),
so ``np.add.at`` — which applies updates sequentially in array order —
accumulates every per-pair delay sum in the same order, and therefore
to the same 64-bit float, as the reference's dict updates.  ``tau``
keys are emitted in first-occurrence order (one stable argsort over
``np.unique`` first indices), matching the reference dict's insertion
order, and ``average_tau`` is a plain Python ``sum`` over those values
so even the global mean is byte-equal.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.core.params import InfluenceabilityParams
from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.kernels.interning import CompiledGraph, CompiledLog, _sorted_unique

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
    idmap = cgraph.idmap
    child = compiled.link_child
    if len(child) == 0:
        infl = {user: 0.0 for user in log.users()}
        return InfluenceabilityParams(tau={}, infl=infl, average_tau=1.0)
    times = compiled.times_flat
    delays = times[child] - times[compiled.link_parent]
    pairs, first, inverse = np.unique(
        compiled.link_edge_ids, return_index=True, return_inverse=True
    )
    delay_sums = np.zeros(len(pairs))
    np.add.at(delay_sums, inverse, delays)  # sequential == reference order
    delay_counts = np.bincount(inverse, minlength=len(pairs))
    tau_values = delay_sums / delay_counts
    # Reference dict order: the order each pair is first seen in the log.
    order = np.argsort(first, kind="stable")
    sources, targets = cgraph.edge_endpoints(pairs)
    tau: dict[tuple[User, User], float] = {}
    for position in order:
        pair = (
            idmap.value_of(int(sources[position])),
            idmap.value_of(int(targets[position])),
        )
        tau[pair] = float(tau_values[position])
    total_delay = sum(float(delay_sums[position]) for position in order)
    total_count = int(delay_counts.sum())
    average_tau = (total_delay / total_count) if total_count else 1.0
    if average_tau <= 0.0:
        average_tau = 1.0

    # Pass 2: a trace entry counts as influenced when *any* parent's
    # delay is within tau — the reference's break-on-first-parent is
    # "count each child position at most once", i.e. one sorted unique.
    qualifying = delays <= tau_values[inverse]
    influenced_positions = _sorted_unique(child[qualifying])
    influenced = np.bincount(
        compiled.node_ids_flat[influenced_positions], minlength=cgraph.n
    )
    infl = {
        user: int(influenced[idmap.id_of(user)]) / log.activity(user)
        for user in log.users()
    }
    return InfluenceabilityParams(tau=tau, infl=infl, average_tau=average_tau)
