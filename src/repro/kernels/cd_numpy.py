"""CD-model kernels (NumPy): the maximizer's engine, and the sigma_cd
evaluator's build and query kernel.

Algorithm 3's cold start evaluates the Theorem-3 marginal gain of
*every* user against the empty seed set.  Against an empty seed set
the gain collapses to ``1 + sum_a sum_u UC[x][a][u] / A_u``, so
:func:`cd_initial_gains` is one segmented pass over the credit index's
columns, read in place through ``np.frombuffer``.  :class:`CDEngine`
runs the rest of the CD selectors' CELF loop
(:func:`repro.core.maximize._celf_loop`) on the same columns: each
CELF re-evaluation, Lemma 3 and Lemma 2 is a handful of array passes
over the user's row, the seed's row or its sources' segments, matched
through dense ``(action, user)`` pair ids.

Bit-identity with :func:`repro.core.maximize.marginal_gain` and
:func:`repro.core.maximize._absorb_seed` holds because every float sum
adds in the reference's left-to-right order: ``np.add.at``,
``np.bincount`` and ``np.add.accumulate`` add sequentially in array
order, an indexed ``+=`` with distinct indices adds once per element,
and the columns hold ``(user, action, target)`` in exactly the order
the reference walks a row.  ``np.add.reduceat``, ``np.sum`` and
``np.add.reduce`` sum pairwise and change bits, so no float sum here
uses them (``tests/test_cd_engine.py`` checks the source).  With no
seeds, the ``(1 - Gamma)`` factor is exactly ``1.0`` and
``1.0 * term == term``, so the initial sweep matches too.

:func:`cd_evaluator_numpy` builds the exact sigma_cd evaluator (Eq. 8)
from the context's cached :class:`~repro.kernels.interning.CompiledLog`
instead of one :class:`~repro.data.propagation.PropagationGraph` per
action: the compiled log's positions and links are already the
evaluator's columns, the users are the objects ``log.trace(action)``
holds, numbered in first-seen order through
:func:`~repro.kernels.interning._first_seen`'s dense table over the
interned ids, and the gammas come from
:meth:`~repro.kernels.scan_numpy.CompiledCredit.exact_gammas`.  Its
pickle equals the reference construction's byte for byte.
:func:`cd_kappa_numpy` answers its queries level by level over the
whole link table, bit-identical to the reference walk, and orders the
credited users by first position through the same table.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Hashable, Iterable

import numpy as np

from repro.core.credit import DirectCredit
from repro.core.index import _ZERO, CreditIndex, SeedCredits
from repro.core.spread import CDSpreadEvaluator
from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.kernels.interning import CompiledGraph, CompiledLog, _first_seen
from repro.kernels.scan_numpy import CompiledCredit, _compute_depths

__all__ = [
    "cd_initial_gains", "CDEngine", "cd_evaluator_numpy", "cd_kappa_numpy",
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


def _segment_heads(src: np.ndarray, act: np.ndarray) -> np.ndarray:
    """Where each ``(influencer, action)`` run of the layout, a
    *segment*, starts."""
    heads = np.ones(len(src), dtype=bool)
    heads[1:] = (src[1:] != src[:-1]) | (act[1:] != act[:-1])
    return heads


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
        starts = _segment_heads(src, act)
        terms = np.zeros(int(starts.sum()))
        np.add.at(terms, np.cumsum(starts) - 1, val / counts[dst])
        np.add.at(gains, src[starts], terms)
    return list(zip(index.user_of, gains.tolist()))


def _encode_pairs(width: int, *parts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``user * width + action`` over the ``(users, actions)`` parts, as
    one int64 array built in place."""
    keys = np.empty(sum(len(users) for users, _ in parts), dtype=np.int64)
    lo = 0
    for users, actions in parts:
        part = keys[lo:lo + len(users)]
        np.multiply(users, width, out=part, dtype=np.int64)
        part += actions
        lo += len(users)
    return keys


def _dense_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct, ids)``: the sorted distinct ``keys`` and each key's
    int32 rank among them, as ``np.unique(keys, return_inverse=True)``
    gives them, with int32 ranks and fewer int64 temporaries.  Sorts
    ``keys`` in place.
    """
    order = np.argsort(keys)
    keys.sort()
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    ranks = np.cumsum(fresh, dtype=np.int32)
    ranks -= 1
    ids = np.empty(len(keys), dtype=np.int32)
    ids[order] = ranks
    return keys[fresh], ids


class CDEngine:
    """Algorithm 3's per-seed work over one working index, as array passes.

    The CD selectors' numpy engine: :meth:`gain` is
    :func:`~repro.core.maximize.marginal_gain` and :meth:`absorb` is
    :func:`~repro.core.maximize._absorb_seed` (Lemma 3, Lemma 2, then
    the seed's removal), bit for bit.  The index's ``val`` and ``alive``
    columns change in place, so the index keeps its positions while
    this object lives.

    State derived from the columns alone, O(entries):

    * each entry's *segment*, its ``(influencer, action)`` run of the
      layout, with the segments' start positions;
    * one dense int32 id per ``(action, user)`` pair, numbered by one
      sort of the keys ``user * actions + action``, so a user's pairs
      are contiguous.  The pairs cover every entry's target, every
      segment's owner (the Theorem-3 factor and Lemma 3 read the
      owner's seed credit) and every pair of the restored
      ``seed_credits``, which may have neither left;
    * SC (the seed credits) as a float64 array over the pair ids plus
      a per-user sum array, and the pairs' first-add order, from which
      :meth:`seed_credits` rebuilds the reference's dicts.

    Every float sum keeps the reference's left-to-right order: indexed
    adds with distinct indices, ``np.add.at``, ``np.bincount`` and
    ``np.add.accumulate``.  The counters ``lemma2_updates`` (entries
    Lemma 2 changed or deleted) and ``lemma3_adds`` (seed-credit
    increments) equal the python engine's.
    """

    def __init__(
        self, index: CreditIndex, seed_credits: SeedCredits | None = None
    ) -> None:
        self._index = index
        src, self._act, self._dst, self._val, self._alive = _columns(index)
        self._counts = np.frombuffer(index.counts, dtype=np.int32)
        self._inc = np.frombuffer(index.inc_order, dtype=np.int32)
        self._width = width = max(len(index.action_of), 1)
        heads = _segment_heads(src, self._act)
        self._entry_segment = np.cumsum(heads, dtype=np.int32)
        self._entry_segment -= 1
        heads = np.flatnonzero(heads)
        self._segment_start = np.append(heads, len(src))
        restored = [] if seed_credits is None else [
            (index.user_ids[user], index.action_ids[action], value)
            for user, per_action in seed_credits._credits.items()
            for action, value in per_action.items()
        ]
        users, actions, values = (
            zip(*restored) if restored else ((), (), ())
        )
        self._pair_keys, pair_ids = _dense_ids(_encode_pairs(
            width,
            (self._dst, self._act),
            (src[heads], self._act[heads]),
            (np.array(users, dtype=np.int32), np.array(actions, dtype=np.int32)),
        ))
        entries = len(src)
        self._entry_pair = pair_ids[:entries]
        self._segment_owner = pair_ids[entries:entries + len(heads)]
        pairs = len(self._pair_keys)
        self._pair_start = np.searchsorted(
            self._pair_keys, np.arange(len(index.user_of) + 1) * width
        )
        self._credit = np.zeros(pairs)
        self._present = np.zeros(pairs, dtype=bool)
        self._sums = np.zeros(len(index.user_of))
        self._first_adds: list[np.ndarray] = []
        if restored:
            loaded = pair_ids[entries + len(heads):]
            self._credit[loaded] = values
            self._present[loaded] = True
            self._first_adds.append(loaded)
            for user, total in seed_credits._sums.items():
                self._sums[index.user_ids[user]] = total
        # Lemma 2's per-seed stamps: the seed's targets by pair id, its
        # actions by action id.
        self._stamp = 0
        self._pair_stamp = np.zeros(pairs, dtype=np.int32)
        self._seed_to_target = np.zeros(pairs)
        self._action_stamp = np.zeros(width, dtype=np.int32)
        self.lemma2_updates = 0
        self.lemma3_adds = 0

    def initial_gains(
        self, admits: Callable[[User], bool] | None = None
    ) -> list[tuple[User, float]]:
        """The empty-seed-set gains (:func:`cd_initial_gains`) of the
        users ``admits`` accepts (all by default)."""
        return [pair for pair in cd_initial_gains(self._index)
                if admits is None or admits(pair[0])]

    def gain(self, node: User) -> float:
        """``marginal_gain(index, SC, node)``, always a Python ``float``.

        One ``np.bincount`` over the node's row sums each segment's
        term, and ``np.add.accumulate`` folds the ``factor * term``
        products into the base term.  A dead entry, or a segment with no
        live entry, adds an exact ``+0.0`` where the reference skips it.
        """
        index = self._index
        user = index.user_ids.get(node)
        if user is None:
            return 0.0
        gain = 1.0 - float(self._sums[user]) / index.counts[user]
        lo, hi = index.row_start[user], index.row_start[user + 1]
        if lo == hi:
            return gain
        segments = self._entry_segment[lo:hi]
        first = segments[0]
        terms = np.bincount(
            segments - first,
            weights=self._val[lo:hi] / self._counts[self._dst[lo:hi]]
            * self._alive[lo:hi],
        )
        factor = 1.0 - self._credit[
            self._segment_owner[first:first + len(terms)]
        ]
        kept = factor > 0.0
        return float(np.add.accumulate(
            np.concatenate(([gain], factor[kept] * terms[kept]))
        )[-1])

    def absorb(self, seed: User) -> None:
        """Algorithm 5 for a new seed: Lemma 3, Lemma 2, then its removal
        (one slice write and one scatter into the alive mask, one slice
        write into SC)."""
        index = self._index
        user = index.user_ids.get(seed)
        if user is None:
            return
        alive = self._alive
        lo, hi = index.row_start[user], index.row_start[user + 1]
        incoming = self._inc[index.inc_start[user]:index.inc_start[user + 1]]
        row = lo + np.flatnonzero(alive[lo:hi])
        if len(row):
            self._lemma3(row)
            self._lemma2(row, incoming[alive[incoming]])
        alive[lo:hi] = False
        alive[incoming] = False
        pairs = slice(self._pair_start[user], self._pair_start[user + 1])
        self._credit[pairs] = 0.0
        self._present[pairs] = False
        self._sums[user] = 0.0

    def _lemma3(self, row: np.ndarray) -> None:
        """Gamma_{S+x,u}(a) += Gamma^{V-S}_{x,u}(a) (1 - Gamma_{S,x}(a))
        over the seed's live row; a row holds each pair once, so the
        pair array takes one indexed add."""
        factor = 1.0 - self._credit[self._segment_owner[self._entry_segment[row]]]
        kept = factor > 0.0
        if not kept.all():
            row, factor = row[kept], factor[kept]
        amounts = self._val[row] * factor
        pairs = self._entry_pair[row]
        fresh = pairs[~self._present[pairs]]
        if len(fresh):
            self._present[fresh] = True
            self._first_adds.append(fresh)
        self._credit[pairs] += amounts
        np.add.at(self._sums, self._dst[row], amounts)
        self.lemma3_adds += len(row)

    def _lemma2(self, row: np.ndarray, incoming: np.ndarray) -> None:
        """Gamma^{W-x}_{v,u}(a) -= Gamma^W_{v,x}(a) Gamma^W_{x,u}(a) for the
        seed's live sources ``incoming`` and targets ``row``.

        The seed's targets are stamped by pair id; each source on one of
        the seed's actions contributes its whole ``(v, a)`` segment, and
        one stamp gather matches every gathered entry.
        """
        act, val, alive = self._act, self._val, self._alive
        self._stamp += 1
        stamp = self._stamp
        targets = self._entry_pair[row]
        self._pair_stamp[targets] = stamp
        self._seed_to_target[targets] = val[row]
        self._action_stamp[act[row]] = stamp
        incoming = incoming[self._action_stamp[act[incoming]] == stamp]
        if not len(incoming):
            return
        segments = self._entry_segment[incoming]
        starts = self._segment_start[segments]
        lengths = self._segment_start[segments + 1] - starts
        gathered = np.arange(int(lengths.sum())) + np.repeat(
            starts - (np.cumsum(lengths) - lengths), lengths
        )
        source_to_seed = np.repeat(val[incoming], lengths)
        pairs = self._entry_pair[gathered]
        hit = np.flatnonzero(alive[gathered] & (self._pair_stamp[pairs] == stamp))
        gathered = gathered[hit]
        current = val[gathered]
        remaining = current - (
            source_to_seed[hit] * self._seed_to_target[pairs[hit]]
        )
        # A deleted entry keeps its value, as in the reference.
        dead = remaining <= _ZERO
        alive[gathered] = ~dead
        val[gathered] = np.where(dead, current, remaining)
        self.lemma2_updates += len(gathered)

    def seed_credits(self) -> SeedCredits:
        """SC as the reference's :class:`SeedCredits`: the same values,
        users in first-add order, each user's actions in first-add order
        (pickle bytes included)."""
        order = np.concatenate(self._first_adds or [np.empty(0, np.int32)])
        order = order[self._present[order]]
        keys = self._pair_keys[order]
        action_of = self._index.action_of
        by_user: dict[int, dict] = {}
        for user, action, value in zip(
            (keys // self._width).tolist(),
            (keys % self._width).tolist(),
            self._credit[order].tolist(),
        ):
            by_user.setdefault(user, {})[action_of[action]] = value
        user_of = self._index.user_of
        credits = SeedCredits()
        credits._credits = {user_of[user]: d for user, d in by_user.items()}
        credits._sums = dict(zip(
            credits._credits, self._sums[list(by_user)].tolist()
        ))
        return credits


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
    node_set, first, inverse = _first_seen(node_ids, compiled.graph.n)
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
    ids, first, _ = _first_seen(owners, len(totals))
    ids = ids[np.argsort(first)]
    values = totals[ids] / np.frombuffer(evaluator.counts, dtype=np.int32)[ids]
    users = evaluator.users
    return dict(zip([users[i] for i in ids.tolist()], values.tolist()))
