"""NumPy kernel for Algorithm 2 — the chronological credit scan.

Same recursion as :func:`repro.core.scan.scan_action_log` (Eq. 5 with
per-increment ``lambda`` truncation), computed *level-synchronously
across every action at once*:

* each DAG node's depth is its longest credited-parent chain, computed
  with a bucketed Kahn pass that touches every link exactly once;
  nodes at the same depth have no dependencies on each other, across
  actions included, so one batched array pass per depth level handles
  every action simultaneously (a handful of passes total, instead of a
  Python iteration per trace node);
* accumulated credits live in one flat *row pool* shared by all
  actions: a node's row is appended when its level is processed and is
  final before any deeper level reads it;
* a level step gathers every credited parent's pooled row with a
  segmented CSR expansion, scales by the parent's ``gamma``, zeroes
  increments below ``lambda`` *before* summation (exactly like the
  reference drops them at accumulation time — adding an exact ``0.0``
  to a positive partial sum cannot change it), and merges duplicate
  (child, influencer) cells with one dense ``bincount`` over
  level-local keys, falling back to a radix sort + ``reduceat`` when
  the key space would be too large — work proportional to the
  reference's increment count, with no per-increment Python;
* the pool's rows are handed to the
  :class:`~repro.core.index.CreditIndex` as its columns after one
  stable sort by influencer (:meth:`~repro.core.index.CreditIndex.adopt`),
  with no per-entry Python, and activity counters come from one global
  ``bincount``.

Direct-credit schemes are compiled to flat ``gamma`` arrays; the two
schemes the :class:`~repro.api.context.SelectionContext` uses
(:class:`UniformCredit`, :class:`TimeDecayCredit`) are supported, and
anything else raises :class:`UnsupportedCreditScheme` (no caller falls
back: a context holds only those two).

Credit values can differ from the reference in the last float bit
(summation order inside a row is direct-then-transitive rather than
interleaved); the parity suite pins both backends to the same entry
*sets* and values to ``1e-9``.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable

import numpy as np

from repro.core.credit import DirectCredit, TimeDecayCredit, UniformCredit
from repro.core.index import CreditIndex
from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.kernels.interning import (
    CompiledGraph,
    CompiledLog,
    _gather_csr,
    _sorted_unique,
)
from repro.utils.validation import require_non_negative

__all__ = ["scan_action_log_numpy", "CompiledCredit", "UnsupportedCreditScheme"]

User = Hashable

# A level's dense merge buffer (children-at-level x longest trace) is
# only worth allocating while it stays within a small multiple of the
# increments it merges — the table is zeroed and rescanned in full, so
# the guard keeps every level's merge work proportional to its input;
# beyond the slack the radix-sort path wins.
_DENSE_MERGE_SLACK = 8
_DENSE_MERGE_FLOOR = 1 << 12


class UnsupportedCreditScheme(TypeError):
    """The NumPy scan cannot vectorize this direct-credit scheme."""


class CompiledCredit:
    """A :class:`DirectCredit` scheme compiled to flat edge tables.

    Building one interns the scheme's learned parameters (for
    :class:`TimeDecayCredit`: per-edge ``tau`` and per-user ``infl``)
    against a :class:`CompiledGraph` — preparation that is reusable
    across scans of the same graph, so callers that scan repeatedly
    (or benchmark the scan itself) can build it once up front.
    """

    def __init__(self, credit: DirectCredit | None, graph: CompiledGraph) -> None:
        if credit is None or isinstance(credit, UniformCredit):
            self._mode = "uniform"
        elif isinstance(credit, TimeDecayCredit):
            self._mode = "timedecay"
            params = credit.params
            self._tau_edges = np.full(
                max(graph.num_edges, 1), credit.default_tau
            )
            if params.tau:
                sources, targets = zip(*params.tau)
                src = graph.idmap.intern(sources)
                dst = graph.idmap.intern(targets)
                edge_ids, found = graph.edge_ids(src, dst)
                taus = np.asarray(list(params.tau.values()))
                self._tau_edges[edge_ids[found]] = taus[found]
            self._infl = np.zeros(graph.n)
            for user, value in params.infl.items():
                interned = graph.idmap.ids.get(user)
                if interned is not None:
                    self._infl[interned] = value
        else:
            raise UnsupportedCreditScheme(
                f"the NumPy scan supports UniformCredit and TimeDecayCredit, "
                f"got {type(credit).__name__}; use the python backend"
            )

    def gammas_flat(
        self,
        link_child: np.ndarray,
        link_parent: np.ndarray,
        link_edge_ids: np.ndarray,
        node_ids_flat: np.ndarray,
        times_flat: np.ndarray,
        total_positions: int,
        floor: float = 0.0,
    ) -> np.ndarray:
        """``gamma`` per link, over the whole log's flat link arrays.

        ``floor`` is the caller's truncation threshold: the exponential
        decay only shrinks ``infl / d_in``, so links whose pre-decay
        bound already sits under the floor are reported as 0 without
        evaluating ``exp`` — exact, because the caller prunes
        sub-``floor`` gammas anyway (see the Gamma <= 1 argument at the
        call site).
        """
        in_degrees = np.bincount(link_child, minlength=total_positions)
        inverse_degree = 1.0 / in_degrees[link_child]
        if self._mode == "uniform":
            return inverse_degree
        influenceability = self._infl[
            node_ids_flat.astype(np.int64)[link_child]
        ]
        base = influenceability * inverse_degree
        alive = np.flatnonzero(base >= floor) if floor > 0.0 else None
        if alive is None:
            delays = times_flat[link_child] - times_flat[link_parent]
            taus = self._tau_edges[link_edge_ids]
            return np.where(
                influenceability > 0.0, base * np.exp(-delays / taus), 0.0
            )
        gammas = np.zeros(len(link_child))
        child_alive = link_child[alive]
        delays = times_flat[child_alive] - times_flat[link_parent[alive]]
        taus = self._tau_edges[link_edge_ids[alive]]
        influenceability = influenceability[alive]
        gammas[alive] = np.where(
            influenceability > 0.0,
            base[alive] * np.exp(-delays / taus),
            0.0,
        )
        return gammas

    def exact_gammas(
        self,
        link_child: np.ndarray,
        link_parent: np.ndarray,
        link_edge_ids: np.ndarray,
        node_ids_flat: np.ndarray,
        times_flat: np.ndarray,
        in_degrees: np.ndarray,
    ) -> np.ndarray:
        """``gamma`` per link, bit-identical to the scheme's ``__call__``.

        :meth:`gammas_flat` multiplies by ``1 / d_in`` and decays with
        ``np.exp``, which the scan's 1e-9 contract allows; the sigma_cd
        evaluator stores its gammas, so here ``infl / d_in`` is divided
        as :class:`TimeDecayCredit` divides it, and :func:`math.exp`
        (which ``np.exp`` may miss by an ulp) runs per link whose child
        has positive influenceability.  ``in_degrees`` is the child's
        ``d_in`` per link.
        """
        if self._mode == "uniform":
            return 1.0 / in_degrees
        influenceability = self._infl[node_ids_flat[link_child]]
        gammas = np.zeros(len(link_child))
        alive = np.flatnonzero(influenceability > 0.0)
        child = link_child[alive]
        exponents = -(
            times_flat[child] - times_flat[link_parent[alive]]
        ) / self._tau_edges[link_edge_ids[alive]]
        decays = np.fromiter(
            map(math.exp, exponents.tolist()), dtype=np.float64,
            count=len(alive),
        )
        gammas[alive] = influenceability[alive] / in_degrees[alive] * decays
        return gammas


class _RowPool:
    """Flat (column, value) storage for every node's accumulated credits.

    Rows are addressed by *global trace position* (action offset +
    trace index); columns are positions *within* the owning action.  A
    row is written exactly once — at its node's depth level — and only
    read by strictly deeper levels, so no slot is ever rewritten.
    """

    def __init__(self, total_positions: int, capacity_hint: int) -> None:
        capacity = max(capacity_hint, 1024)
        self.cols = np.empty(capacity, dtype=np.int64)
        self.vals = np.empty(capacity)
        self.start = np.zeros(total_positions, dtype=np.int64)
        self.length = np.zeros(total_positions, dtype=np.int64)
        self.write = 0

    def append_level(
        self, owners: np.ndarray, counts: np.ndarray,
        cols: np.ndarray, vals: np.ndarray,
    ) -> None:
        """Store one level's merged rows (grouped by owner, in order)."""
        needed = self.write + len(cols)
        if needed > len(self.cols):
            capacity = max(needed, 2 * len(self.cols))
            self.cols = np.concatenate(
                (self.cols[: self.write], np.empty(capacity - self.write, dtype=np.int64))
            )
            self.vals = np.concatenate(
                (self.vals[: self.write], np.empty(capacity - self.write))
            )
        self.cols[self.write:needed] = cols
        self.vals[self.write:needed] = vals
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        self.start[owners] = self.write + starts
        self.length[owners] = counts
        self.write = needed

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenate the pooled rows ``rows`` (one segmented expansion).

        Returns ``(row_positions, cols, vals)`` where ``row_positions``
        indexes back into ``rows``.
        """
        lengths = self.length[rows]
        total = int(lengths.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0)
        row_positions = np.repeat(np.arange(len(rows), dtype=np.int64), lengths)
        # start-of-row minus its running offset, repeated per entry,
        # plus one global arange = every flat pool position.
        shifts = self.start[rows].copy()
        shifts[1:] -= np.cumsum(lengths)[:-1]
        flat = np.repeat(shifts, lengths)
        flat += np.arange(total, dtype=np.int64)
        return row_positions, self.cols[flat], self.vals[flat]


def _compute_depths(
    total_positions: int, child_g: np.ndarray, parent_g: np.ndarray
) -> np.ndarray:
    """Longest credited-parent chain per global position.

    Bucketed Kahn propagation: a node joins the depth-``d`` bucket once
    all its in-links are accounted for, and each bucket relaxes its
    out-links in one batch — every link is touched exactly once, with
    plain scatter stores (a bucket's members share one depth, so the
    children they reach all move to exactly ``d + 1``).
    """
    depth = np.zeros(total_positions, dtype=np.int64)
    remaining = np.bincount(child_g, minlength=total_positions)
    # CSR over parents: the out-links of each position.
    order = np.argsort(parent_g, kind="stable")
    out_indptr = np.zeros(total_positions + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(parent_g, minlength=total_positions), out=out_indptr[1:]
    )
    sorted_children = child_g[order]

    roots = np.nonzero(
        (remaining == 0) & (np.diff(out_indptr) > 0)
    )[0]
    buckets: dict[int, list[np.ndarray]] = {0: [roots]}
    level = 0
    while buckets:
        members = buckets.pop(level, None)
        if members is None:
            level += 1
            continue
        frontier = members[0] if len(members) == 1 else np.concatenate(members)
        _, frontier_children, _ = _gather_csr(
            out_indptr, sorted_children, frontier
        )
        if len(frontier_children):
            # Per-round work stays proportional to the frontier's
            # out-links — no full-graph buffers in the loop.
            touched, hits = np.unique(frontier_children, return_counts=True)
            depth[touched] = level + 1
            remaining[touched] -= hits
            finalized = touched[remaining[touched] == 0]
            if len(finalized):
                buckets.setdefault(level + 1, []).append(finalized)
        level += 1
    return depth


def _merge_level(
    keys_direct: np.ndarray,
    weights_direct: np.ndarray,
    keys_transitive: np.ndarray,
    weights_transitive: np.ndarray,
    slots: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum duplicate cells of one level; returns ``(keys, values)`` sorted.

    Both paths add the direct partial sums before the transitive ones
    and skip zero-weight (sub-``lambda``) increments by construction:
    the dense table drops all-zero cells with ``nonzero``, the sorted
    path with an explicit positivity filter.
    """
    total = len(keys_direct) + len(keys_transitive)
    if slots <= max(_DENSE_MERGE_SLACK * total, _DENSE_MERGE_FLOOR):
        table = np.bincount(keys_direct, weights=weights_direct, minlength=slots)
        if len(keys_transitive):
            table += np.bincount(
                keys_transitive, weights=weights_transitive, minlength=slots
            )
        merged_keys = np.nonzero(table)[0]
        return merged_keys, table[merged_keys]
    keys = np.concatenate((keys_direct, keys_transitive))
    weights = np.concatenate((weights_direct, weights_transitive))
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.concatenate(([0], np.nonzero(np.diff(sorted_keys))[0] + 1))
    sums = np.add.reduceat(weights[order], boundaries)
    heads = sorted_keys[boundaries]
    populated = sums > 0.0
    return heads[populated], sums[populated]


def scan_action_log_numpy(
    graph: SocialGraph,
    log: ActionLog,
    credit: DirectCredit | None = None,
    truncation: float = 0.001,
    actions: Iterable[Hashable] | None = None,
    index: CreditIndex | None = None,
    compiled: CompiledLog | None = None,
    compiled_credit: CompiledCredit | None = None,
) -> CreditIndex:
    """Vectorized Algorithm 2 — same contract as ``scan_action_log``.

    ``compiled`` reuses a cached :class:`CompiledLog` and scans every
    action it holds; ``actions`` and ``compiled`` cannot be passed
    together (a subset of actions is compiled on the fly).
    ``compiled_credit`` reuses a cached :class:`CompiledCredit` (it
    must have been built for ``credit`` against the same compiled
    graph).  Raises :class:`UnsupportedCreditScheme` for credit
    schemes the kernel cannot vectorize.
    """
    if actions is not None and compiled is not None:
        raise ValueError(
            "pass actions or compiled, not both: a CompiledLog already "
            "fixes the actions it scans"
        )
    require_non_negative(truncation, "truncation")
    if index is None:
        index = CreditIndex(truncation=truncation)
    else:
        truncation = index.truncation
    if compiled is None:
        compiled = CompiledLog(
            CompiledGraph(graph, log.users()), log, actions=actions
        )
    gamma_compiler = (
        CompiledCredit(credit, compiled.graph)
        if compiled_credit is None else compiled_credit
    )

    # Global position = action offset + trace index; columns stay
    # action-local.
    offsets = compiled.offsets
    link_child = compiled.link_child
    total_positions = int(offsets[-1])
    if len(link_child):
        gammas = gamma_compiler.gammas_flat(
            link_child, compiled.link_parent, compiled.link_edge_ids,
            compiled.node_ids_flat, compiled.times_flat, total_positions,
            floor=truncation,
        )
        # Credits are bounded by 1 (the gammas into any node sum to at
        # most 1, so Gamma <= 1 by induction up the DAG), which makes
        # every link with gamma < lambda *provably* inert: its direct
        # credit is below the threshold and any transitive increment
        # gamma * Gamma <= gamma is too.  Pruning them up front — an
        # exact reduction, not an approximation — collapses the depth
        # chains the level loop would otherwise walk.
        credited = (
            gammas >= truncation if truncation > 0.0 else gammas > 0.0
        )
        child_g = link_child[credited]
        parent_g = compiled.link_parent[credited]
        gamma_g = gammas[credited]
    else:
        child_g = parent_g = np.empty(0, dtype=np.int64)
        gamma_g = np.empty(0)

    pool = _RowPool(total_positions, capacity_hint=4 * len(child_g))
    if len(child_g):
        _run_levels(pool, child_g, parent_g, gamma_g, offsets, truncation)

    _hand_over(index, pool, compiled)
    return index


def _run_levels(
    pool: _RowPool,
    child_g: np.ndarray,
    parent_g: np.ndarray,
    gamma_g: np.ndarray,
    offsets: np.ndarray,
    truncation: float,
) -> None:
    """Run Eq. 5 over the global link list, one pass per depth level."""
    total_positions = len(pool.start)
    depth = _compute_depths(total_positions, child_g, parent_g)
    # Links grouped by their child's level, one stable (radix) sort.
    link_levels = depth[child_g]
    link_order = np.argsort(link_levels, kind="stable")
    level_starts = np.searchsorted(
        link_levels[link_order], np.arange(1, int(depth.max()) + 2)
    )
    # Action-local columns, and a per-position rank buffer reused by
    # every level's dense merge keys.
    action_of = (
        np.searchsorted(offsets, np.arange(total_positions), side="right") - 1
    )
    local_col = np.arange(total_positions) - offsets[action_of]
    rank = np.zeros(total_positions, dtype=np.int64)

    for level in range(len(level_starts) - 1):
        segment = link_order[level_starts[level]:level_starts[level + 1]]
        if len(segment) == 0:
            continue
        children = child_g[segment]
        parents = parent_g[segment]
        gammas = gamma_g[segment]

        level_children = _sorted_unique(children)
        rank[level_children] = np.arange(len(level_children), dtype=np.int64)
        # Columns are strictly earlier local positions than their owner,
        # so the owners' largest local position bounds every column.
        max_cols = int(np.max(local_col[level_children])) + 1
        base = rank[children] * max_cols

        # Links were already pruned to gamma >= truncation (or > 0 when
        # truncation is 0) before the levels ran, so every remaining
        # gamma is a surviving direct credit.
        keys_direct = base + local_col[parents]
        weights_direct = gammas

        row_pos, parent_cols, parent_vals = pool.gather(parents)
        if len(row_pos):
            increments = parent_vals * gammas[row_pos]
            increments[increments < truncation] = 0.0
            keys_transitive = base[row_pos] + parent_cols
        else:
            increments = parent_vals
            keys_transitive = row_pos

        merged_keys, merged_vals = _merge_level(
            keys_direct, weights_direct, keys_transitive, increments,
            len(level_children) * max_cols,
        )
        if len(merged_keys) == 0:
            continue
        owner_ranks = merged_keys // max_cols
        counts = np.bincount(owner_ranks, minlength=len(level_children))
        populated = np.nonzero(counts)[0]
        pool.append_level(
            level_children[populated],
            counts[populated],
            merged_keys % max_cols,
            merged_vals,
        )


def _stable_argsort(ids: np.ndarray) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for ids in ``[0, 2**32)``.

    Two least-significant-first passes over 16-bit digits, which NumPy
    radix-sorts: several times faster than its stable sort of wider
    integers, with the same result.
    """
    order = np.argsort((ids & 0xFFFF).astype(np.uint16), kind="stable")
    if len(ids) and int(ids.max()) >> 16:
        high = (ids[order] >> 16).astype(np.uint16)
        order = order[np.argsort(high, kind="stable")]
    return order


def _hand_over(
    index: CreditIndex, pool: _RowPool, compiled: CompiledLog
) -> None:
    """Move the activity counts and the pooled credit rows into the index.

    The pool gathers its rows owner-major, which is action-major in scan
    order with each action's targets in trace order; one stable sort by
    influencer turns that into the index's layout.  Folding into a
    standing index appends the new entries behind the live old ones
    before that sort, so each influencer's old actions stay first.
    """
    graph = compiled.graph
    offsets = compiled.offsets
    node_ids = compiled.node_ids_flat
    # np.asarray would turn uniform-length tuple/list node ids into a
    # 2-D object array; explicit assignment keeps one slot per id.
    values_obj = np.empty(len(graph.idmap.values), dtype=object)
    values_obj[:] = graph.idmap.values

    # Activity: one global bincount; new users join in compiled-id order.
    users = list(index.user_of)
    counts = index.counts.tolist()
    user_ids = dict(index.user_ids)
    per_node = np.bincount(node_ids, minlength=graph.n)
    touched = np.flatnonzero(per_node)
    touched_ids = []
    for user, count in zip(
        values_obj[touched].tolist(), per_node[touched].tolist()
    ):
        user_id = user_ids.get(user)
        if user_id is None:
            user_id = user_ids[user] = len(users)
            users.append(user)
            counts.append(count)
        else:
            counts[user_id] += count
        touched_ids.append(user_id)
    remap = np.arange(len(users), dtype=np.int32)
    if index.user_of:
        # A fresh scan orders activity by compiled id; folding into a
        # standing index restores that order, so the incremental result
        # equals one global scan of the union log.
        position = graph.idmap.ids
        unknown = len(position)
        order = sorted(
            range(len(users)),
            key=lambda user_id: position.get(users[user_id], unknown),
        )
        remap[order] = np.arange(len(order))
        users = [users[user_id] for user_id in order]
        counts = [counts[user_id] for user_id in order]
    index_of_node = np.full(graph.n, -1, dtype=np.int32)
    index_of_node[touched] = remap[np.asarray(touched_ids, dtype=np.int64)]

    populated = np.flatnonzero(pool.length)
    row_pos, cols, vals = pool.gather(populated)
    owners = populated[row_pos]
    del row_pos
    action_pos = np.searchsorted(offsets, owners, side="right") - 1
    present = _sorted_unique(action_pos)
    new_actions = [compiled.actions[position] for position in present.tolist()]
    for action in new_actions:
        if action in index.action_ids:
            raise ValueError(f"action {action!r} is already in the index")
    action_id = np.full(len(compiled.actions), -1, dtype=np.int32)
    action_id[present] = len(index.action_of) + np.arange(len(present))
    # Columns are trace indexes within the owner's action.
    cols += offsets[action_pos]
    entries = {
        "src": index_of_node[node_ids[cols]],
        "act": action_id[action_pos],
        "dst": index_of_node[node_ids[owners]],
        "val": vals,
    }
    del cols, owners, action_pos
    if index.val:
        live = np.flatnonzero(np.frombuffer(index.alive, dtype=np.bool_))
        old = {
            name: np.frombuffer(getattr(index, name), dtype=values.dtype)[live]
            for name, values in entries.items()
        }
        old["src"], old["dst"] = remap[old["src"]], remap[old["dst"]]
        entries = {
            name: np.concatenate((old[name], values))
            for name, values in entries.items()
        }
        del old
    order = _stable_argsort(entries["src"])
    columns = {name: values[order] for name, values in entries.items()}
    del entries, order
    inc_order = _stable_argsort(columns["dst"])
    bounds = np.arange(len(users) + 1)
    columns.update(
        inc_order=inc_order.astype(np.int32),
        row_start=np.searchsorted(columns["src"], bounds),
        inc_start=np.searchsorted(columns["dst"][inc_order], bounds),
    )
    del inc_order
    index.adopt(users, counts, index.action_of + new_actions, **columns)
