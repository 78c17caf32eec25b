"""CD-model kernels (NumPy): the maximizer's initial gain sweep, its
Lemma-2 update, and the sigma_cd evaluator build.

Algorithm 3's cold start evaluates the Theorem-3 marginal gain of
*every* user against the empty seed set — by far the hottest part of
:func:`repro.core.maximize.cd_maximize` (the CELF queue touches only a
handful of users afterwards).  Against an empty seed set the gain
collapses to ``1 + sum_a sum_u UC[x][a][u] / A_u``, so the whole sweep
is one segmented pass over the credit index's columns, read in place
through ``np.frombuffer``.

Bit-identity with :func:`repro.core.maximize.marginal_gain` holds
because ``np.add.at`` applies updates sequentially in array order and
the columns hold ``(user, action, target)`` in exactly the order the
reference walks a row; the ``(1 - Gamma)`` factor is exactly ``1.0``
for every action when no seeds exist, and ``1.0 * term == term`` in
IEEE arithmetic, so even the per-action accumulation order matches.

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
from repro.core.index import _ZERO, CreditIndex
from repro.core.spread import CDSpreadEvaluator
from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.kernels.interning import CompiledGraph, CompiledLog
from repro.kernels.scan_numpy import CompiledCredit

__all__ = ["cd_initial_gains", "Lemma2Discount", "cd_evaluator_numpy"]

User = Hashable


def _columns(index: CreditIndex) -> tuple[np.ndarray, ...]:
    """Zero-copy views ``(src, act, dst, val, alive)`` of the index."""
    return (
        np.frombuffer(index.src, dtype=np.int32),
        np.frombuffer(index.act, dtype=np.int32),
        np.frombuffer(index.dst, dtype=np.int32),
        np.frombuffer(index.val, dtype=np.float64),
        np.frombuffer(index.alive, dtype=np.bool_),
    )


def cd_initial_gains(index: CreditIndex) -> list[tuple[User, float]]:
    """Empty-seed-set marginal gains, in ``index.users()`` order.

    Returns ``(user, gain)`` pairs bit-identical to
    ``marginal_gain(index, SeedCredits(), user)`` — the exact values
    ``cd_maximize`` pushes into its lazy queue on a cold start.
    """
    src, act, dst, val, alive = _columns(index)
    if not alive.all():
        live = np.flatnonzero(alive)
        src, act, dst, val = src[live], act[live], dst[live], val[live]
    counts = np.frombuffer(index.counts, dtype=np.int32)
    gains = np.where(counts > 0, 1.0, 0.0)
    if len(val):
        # One segment per (user, action) run of the layout.
        starts = np.ones(len(val), dtype=bool)
        starts[1:] = (src[1:] != src[:-1]) | (act[1:] != act[:-1])
        terms = np.zeros(int(starts.sum()))
        np.add.at(terms, np.cumsum(starts) - 1, val / counts[dst])
        np.add.at(gains, src[starts], terms)
    return list(zip(index.user_of, gains.tolist()))


class Lemma2Discount:
    """Lemma 2 over one working index, vectorized per seed.

    ``Lemma2Discount(index)(seed)`` leaves exactly the state of
    ``index.discount_through(seed)``: every ``(v, a, u)`` it touches is
    updated once, from the seed's own entries, with the same float
    operations.  The ``(influencer, action)`` key of each entry never
    decreases in layout order, so it is computed once per run; per seed
    one gather collects the ``(v, a)`` segments of the seed's sources and
    a sorted-key lookup matches their targets against the seed's.
    Only values and the alive mask change, so the index keeps its
    positions while this object lives.
    """

    def __init__(self, index: CreditIndex) -> None:
        self._index = index
        src, self._act, self._dst, self._val, self._alive = _columns(index)
        self._keys = src.astype(np.int64) * max(len(index.action_of), 1)
        self._keys += self._act
        self._inc = np.frombuffer(index.inc_order, dtype=np.int32)
        self._users = len(index.user_of)

    def __call__(self, seed: User) -> None:
        index = self._index
        seed_id = index.user_ids.get(seed)
        if seed_id is None:
            return
        act, dst, val, alive = self._act, self._dst, self._val, self._alive
        lo, hi = index.row_start[seed_id], index.row_start[seed_id + 1]
        outgoing = lo + np.flatnonzero(alive[lo:hi])
        lo, hi = index.inc_start[seed_id], index.inc_start[seed_id + 1]
        incoming = self._inc[lo:hi]
        incoming = incoming[alive[incoming]]
        if not len(outgoing) or not len(incoming):
            return
        # The seed's targets, keyed by (action, target) and sorted.
        target_keys = act[outgoing].astype(np.int64) * self._users + dst[outgoing]
        order = np.argsort(target_keys)
        target_keys = target_keys[order]
        seed_to_target = val[outgoing[order]]
        # Each source's (v, a) segment, gathered in one pass.
        keys = self._keys[incoming]
        starts = np.searchsorted(self._keys, keys, side="left")
        lengths = np.searchsorted(self._keys, keys, side="right") - starts
        owner = np.repeat(np.arange(len(incoming)), lengths)
        flat = np.arange(int(lengths.sum())) + np.repeat(
            starts - np.concatenate(([0], np.cumsum(lengths)[:-1])), lengths
        )
        live = alive[flat]
        flat, owner = flat[live], owner[live]
        entry_keys = act[flat].astype(np.int64) * self._users + dst[flat]
        slot = np.minimum(
            np.searchsorted(target_keys, entry_keys), len(target_keys) - 1
        )
        hit = target_keys[slot] == entry_keys
        flat = flat[hit]
        remaining = val[flat] - val[incoming[owner[hit]]] * seed_to_target[slot[hit]]
        dead = remaining <= _ZERO
        alive[flat[dead]] = False
        val[flat[~dead]] = remaining[~dead]


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
        user for action in compiled.actions for user, _ in log.trace(action)
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
