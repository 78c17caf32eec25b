"""CD-model kernels (NumPy): the maximizer's initial gain sweep, its
Lemma-2 update, and the sigma_cd evaluator's build and query kernel.

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
action: the compiled log's positions and links are already the
evaluator's columns, the users are the objects ``log.trace(action)``
holds, and the gammas come from
:meth:`~repro.kernels.scan_numpy.CompiledCredit.exact_gammas`.  Its
pickle equals the reference construction's byte for byte.
:func:`cd_kappa_numpy` answers its queries level by level over the
whole link table, bit-identical to the reference walk.
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Iterable

import numpy as np

from repro.core.credit import DirectCredit
from repro.core.index import _ZERO, CreditIndex
from repro.core.spread import CDSpreadEvaluator
from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.kernels.interning import CompiledGraph, CompiledLog
from repro.kernels.scan_numpy import CompiledCredit, _compute_depths

__all__ = [
    "cd_initial_gains", "Lemma2Discount", "cd_evaluator_numpy", "cd_kappa_numpy",
]

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
    ``log`` (compiled on the fly otherwise).  The evaluator answers with
    :func:`cd_kappa_numpy`.  Raises
    :class:`~repro.kernels.scan_numpy.UnsupportedCreditScheme` for
    credit schemes other than uniform and time-decay.
    """
    if compiled is None:
        compiled = CompiledLog(CompiledGraph(graph, log.users()), log)
    node_ids = compiled.node_ids_flat
    link_child = compiled.link_child
    # Links are grouped by child position, so a bincount is the CSR.
    total = len(node_ids)
    link_start = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(link_child, minlength=total), out=link_start[1:])
    gammas = CompiledCredit(credit, compiled.graph).exact_gammas(
        link_child,
        compiled.link_parent,
        compiled.link_edge_ids,
        node_ids,
        compiled.times_flat,
        np.diff(link_start)[link_child],
    )
    # User ids in first-seen order: every graph id ranked by its first
    # position, as the reference's append loop numbers them.
    node_set, first, inverse = np.unique(
        node_ids, return_index=True, return_inverse=True
    )
    by_first = np.argsort(first)
    rank = np.empty(len(node_set), dtype=np.int32)
    rank[by_first] = np.arange(len(node_set), dtype=np.int32)
    position_user = rank[inverse]
    # Each user is the object log.trace holds at its first position.
    first = first[by_first]
    offsets = compiled.offsets
    action_index = np.searchsorted(offsets, first, side="right") - 1
    actions, starts = compiled.actions, offsets.tolist()
    users = [
        log.trace(actions[action])[position - starts[action]][0]
        for action, position in zip(action_index.tolist(), first.tolist())
    ]
    evaluator = CDSpreadEvaluator.from_columns(
        users,
        counts=np.bincount(position_user, minlength=len(users)).astype(
            np.int32
        ),
        offsets=offsets,
        position_user=position_user,
        link_start=link_start,
        link_parent=compiled.link_parent.astype(np.int32),
        link_gamma=gammas,
    )
    evaluator._kernel = "numpy"
    return evaluator


def _depth_order(
    evaluator: CDSpreadEvaluator,
) -> list[tuple[np.ndarray, ...]]:
    """The evaluator's links grouped by their child's depth, built once.

    One ``(parents, gammas, ranks, children)`` tuple per depth level
    ``1, 2, ...``: the level's links in link order (a stable sort by
    depth keeps every child's links together and in
    :meth:`PropagationGraph.parents` order), each link's child as a rank
    into ``children``, the level's child positions ascending.  A
    position's parents all sit at smaller depths.  Published by a
    single attribute assignment and never pickled, like the
    evaluator's user -> positions map.
    """
    levels = evaluator.__dict__.get("_levels")
    if levels is None:
        link_start = np.frombuffer(evaluator.link_start, dtype=np.int64)
        total = len(link_start) - 1
        parent = np.frombuffer(evaluator.link_parent, dtype=np.int32)
        parent = parent.astype(np.int64)
        child = np.repeat(np.arange(total, dtype=np.int64), np.diff(link_start))
        depth = _compute_depths(total, child, parent)[child]
        order = np.argsort(depth, kind="stable")
        child, parent, depth = child[order], parent[order], depth[order]
        gamma = np.frombuffer(evaluator.link_gamma, dtype=np.float64)[order]
        # The walk skips a link whose gamma is not positive.
        gamma[~(gamma > 0.0)] = 0.0
        first = np.ones(len(child), dtype=bool)
        first[1:] = child[1:] != child[:-1]
        rank = np.cumsum(first) - 1
        bounds = [0, *(np.flatnonzero(np.diff(depth)) + 1).tolist(), len(child)]
        levels = [
            (
                parent[lo:hi],
                gamma[lo:hi],
                rank[lo:hi] - rank[lo],
                child[lo:hi][first[lo:hi]],
            )
            for lo, hi in zip(bounds, bounds[1:])
            if hi > lo
        ]
        evaluator._levels = levels
    return levels


def cd_kappa_numpy(
    evaluator: CDSpreadEvaluator, seeds: Iterable[User]
) -> dict[User, float]:
    """``evaluator.kappa(seeds)``, level-synchronous over every link.

    Each depth level is one gather of the parents' credits times the
    gammas and one ``np.bincount`` into the level's children; seeds stay
    pinned at 1.0.  ``bincount`` adds a child's links one by one in
    link order, starting from 0.0, which is the walk's own sum: a link
    the walk skips (a parent without credit, a gamma that is not
    positive) adds an exact ``+0.0`` here.  Per-user totals are added in position order
    the same way, and users come in the order of their first credited
    position, so values and dict order equal the Python walk's bit for
    bit.
    """
    positions = evaluator._user_positions()
    pinned = np.fromiter(
        chain.from_iterable(positions.get(seed, ()) for seed in set(seeds)),
        dtype=np.int64,
    )
    if not len(pinned):
        return {}
    levels = _depth_order(evaluator)
    credit = np.zeros(len(evaluator.position_user))
    credit[pinned] = 1.0
    for parents, gammas, ranks, children in levels:
        credit[children] = np.bincount(
            ranks, weights=credit[parents] * gammas, minlength=len(children)
        )
        credit[pinned] = 1.0
    credited = np.flatnonzero(credit > 0.0)
    owners = np.frombuffer(evaluator.position_user, dtype=np.int32)[credited]
    totals = np.bincount(owners, weights=credit[credited])
    ids, first = np.unique(owners, return_index=True)
    ids = ids[np.argsort(first)]
    values = totals[ids] / np.frombuffer(evaluator.counts, dtype=np.int32)[ids]
    users = evaluator.users
    return dict(zip([users[i] for i in ids.tolist()], values.tolist()))
