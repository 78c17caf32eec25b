"""CD-model kernels (NumPy): the maximizer's initial gain sweep and the
sigma_cd evaluator build.

Algorithm 3's cold start evaluates the Theorem-3 marginal gain of
*every* user against the empty seed set — by far the hottest part of
:func:`repro.core.maximize.cd_maximize` (the CELF queue touches only a
handful of users afterwards).  Against an empty seed set the gain
collapses to ``1 + sum_a sum_u UC[x][a][u] / A_u``, so the whole sweep
is two segmented sums over the credit index flattened in its own dict
order.

Bit-identity with :func:`repro.core.maximize.marginal_gain` holds
because ``np.add.at`` applies updates sequentially in array order and
the flattening enumerates ``(user, action, target)`` in exactly the
reference's dict-iteration order; the ``(1 - Gamma)`` factor is
exactly ``1.0`` for every action when no seeds exist, and
``1.0 * term == term`` in IEEE arithmetic, so even the per-action
accumulation order matches.  Users with zero activity get ``0.0``, as
the reference's early return does.

:func:`cd_evaluator_numpy` builds the exact sigma_cd evaluator (Eq. 8)
from the context's cached :class:`~repro.kernels.interning.CompiledLog`
instead of one :class:`~repro.data.propagation.PropagationGraph` per
action.  Its state is pickled into stored payloads, so it equals the
reference construction byte for byte: the users come from
``log.trace(action)`` and each parent from ``graph.in_neighbors(child)``
(the very objects :meth:`PropagationGraph.build` holds, which matters to
the pickle memo when ids are equal but distinct strings), and the gammas
from :meth:`~repro.kernels.scan_numpy.CompiledCredit.exact_gammas`.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable

import numpy as np

from repro.core.credit import DirectCredit
from repro.core.index import CreditIndex
from repro.core.spread import CDSpreadEvaluator
from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.kernels.interning import CompiledGraph, CompiledLog
from repro.kernels.scan_numpy import CompiledCredit

__all__ = ["cd_initial_gains", "cd_evaluator_numpy"]

User = Hashable


def cd_initial_gains(index: CreditIndex) -> list[tuple[User, float]]:
    """Empty-seed-set marginal gains, in ``index.users()`` order.

    Returns ``(user, gain)`` pairs bit-identical to
    ``marginal_gain(index, SeedCredits(), user)`` — the exact values
    ``cd_maximize`` pushes into its lazy queue on a cold start.
    """
    users = list(index.users())
    activity = index.activity
    values: list[float] = []
    target_activity: list[int] = []
    entry_block: list[int] = []
    block_user: list[int] = []
    blocks = 0
    for position, user in enumerate(users):
        if activity.get(user, 0) == 0:
            continue
        for action, targets in index.out.get(user, {}).items():
            for target, value in targets.items():
                values.append(value)
                target_activity.append(activity[target])
                entry_block.append(blocks)
            block_user.append(position)
            blocks += 1
    gains = np.zeros(len(users))
    active = np.asarray(
        [activity.get(user, 0) > 0 for user in users], dtype=bool
    )
    gains[active] = 1.0
    if blocks:
        quotients = np.asarray(values) / np.asarray(
            target_activity, dtype=np.float64
        )
        terms = np.zeros(blocks)
        np.add.at(terms, np.asarray(entry_block, dtype=np.int64), quotients)
        np.add.at(gains, np.asarray(block_user, dtype=np.int64), terms)
    return [(user, float(gains[position])) for position, user in enumerate(users)]


def cd_evaluator_numpy(
    graph: SocialGraph,
    log: ActionLog,
    credit: DirectCredit | None = None,
    compiled: CompiledLog | None = None,
) -> CDSpreadEvaluator:
    """``CDSpreadEvaluator(graph, log, credit)``, built from a CompiledLog.

    ``compiled`` reuses a cached :class:`CompiledLog` of every action of
    ``log`` (compiled on the fly otherwise).  Raises
    :class:`~repro.kernels.scan_numpy.UnsupportedCreditScheme` for
    credit schemes other than uniform and time-decay.
    """
    if compiled is None:
        compiled = CompiledLog(CompiledGraph(graph, log.users()), log)
    compiled_graph = compiled.graph
    idmap = compiled_graph.idmap
    node_ids = compiled.node_ids_flat
    link_child = compiled.link_child
    # Links are grouped by child position, so a bincount is the CSR.
    total = len(node_ids)
    link_indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(link_child, minlength=total), out=link_indptr[1:])
    gammas = CompiledCredit(credit, compiled_graph).exact_gammas(
        link_child,
        compiled.link_parent,
        compiled.link_edge_ids,
        node_ids,
        compiled.times_flat,
        np.diff(link_indptr)[link_child],
    )
    # Every in-neighbour object of every child, filed under the global
    # id of its social edge to that child; the links then gather theirs.
    children = np.unique(node_ids[link_child]).astype(np.int64)
    in_indptr = compiled_graph.in_indptr
    degrees = in_indptr[children + 1] - in_indptr[children]
    neighbors = np.empty(int(degrees.sum()), dtype=object)
    neighbors[:] = [
        neighbor
        for child in children.tolist()
        for neighbor in graph.in_neighbors(idmap.value_of(child))
    ]
    edge_ids, _ = compiled_graph.edge_ids(
        idmap.intern(neighbors), np.repeat(children, degrees)
    )
    by_edge = np.empty(compiled_graph.num_edges, dtype=object)
    by_edge[edge_ids] = neighbors
    pairs = list(
        zip(by_edge[compiled.link_edge_ids].tolist(), gammas.tolist())
    )
    bounds = link_indptr.tolist()
    users = [
        user
        for compiled_action in compiled.actions
        for user, _ in log.trace(compiled_action.action)
    ]
    entries = list(
        zip(users, [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
    )
    offsets = compiled.offsets.tolist()
    # Counter keeps each user's first object and first-seen order, as
    # the reference's get-and-increment loop does.
    return CDSpreadEvaluator.from_compiled(
        dict(Counter(users)),
        [entries[lo:hi] for lo, hi in zip(offsets, offsets[1:])],
    )
