"""Interning and CSR compilation for the NumPy kernels.

The dict-of-dicts structures the reference implementations operate on
(:class:`~repro.graphs.digraph.SocialGraph` adjacency sets, per-action
:class:`~repro.data.propagation.PropagationGraph` parent lists) are
rebuilt here exactly once per ``(graph, log)`` pair as flat arrays:

* :class:`IdMap` interns arbitrary hashable user ids to contiguous
  ``int32`` ids, assigned in :func:`~repro.utils.ordering.node_sort_key`
  order — so sorting by interned id reproduces every tie-break the
  pure-Python code makes;
* :class:`CompiledGraph` is the social graph in CSR form (both
  orientations), with a sorted ``src * n + dst`` key array that gives
  every social edge a stable *global edge id* — the key the EM kernel
  uses to accumulate per-edge statistics with ``np.bincount`` /
  ``np.add.at``;
* :func:`positive_csr` is the one CSR over the edges carrying a
  positive value (an IC probability or an LT weight) — the layout the
  Monte-Carlo and sketch kernels run on, interned over the graph's own
  nodes only;
* :class:`CompiledLog` is the whole log as flat arrays: every
  chronological trace as id/time arrays over one global position space
  (an action's offset plus its trace index), and every propagation-DAG
  link as child/parent positions plus its global edge id, parents
  ordered exactly like :meth:`PropagationGraph.parents` (activation
  time, then node sort key).

Compilation itself is vectorized (one ``lexsort``/``repeat`` pipeline
per chunk of actions rather than per-user Python loops), so the scan
benchmark's "build + scan" comparison charges both backends for DAG
construction.

Instances are built lazily by
:class:`~repro.api.context.SelectionContext` and cached for every
kernel that needs them.

Serialization.  Compiled forms travel — the process executor pickles
them into workers, and :mod:`repro.store` persists them as warm-start
payloads.  :class:`IdMap` and :class:`CompiledGraph` keep compact
pickle state: the id map drops its reverse dict (rebuilt from the value
list), and the graph drops its derived arrays (``in_indices_wide``,
``edge_keys``, ``num_edges``), rebuilt bit-identically on load.
:class:`CompiledLog` pickles its attributes as they are: its flat
arrays are the whole state, so decoding rebuilds nothing.
"""

from __future__ import annotations

from math import isfinite
from operator import itemgetter
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.utils.ordering import node_sort_key

__all__ = [
    "IdMap",
    "positive_csr",
    "CompiledGraph",
    "CompiledLog",
]

User = Hashable
Edge = tuple[User, User]


def _concat(chunks: list, dtype) -> "np.ndarray":
    """Concatenate array chunks (typed empty array when there are none)."""
    if not chunks:
        return np.empty(0, dtype=dtype)
    if len(chunks) == 1:
        return np.asarray(chunks[0], dtype=dtype)
    return np.concatenate(chunks).astype(dtype, copy=False)


class IdMap:
    """Bidirectional mapping between node ids and contiguous ``int32`` ids.

    Ids are assigned in :func:`node_sort_key` order, making interned-id
    order identical to the library's canonical tie-break order.
    """

    def __init__(self, values: Iterable[User]) -> None:
        self.values: list[User] = sorted(set(values), key=node_sort_key)
        if len(self.values) > np.iinfo(np.int32).max:
            raise OverflowError(
                f"IdMap supports at most {np.iinfo(np.int32).max} ids"
            )
        self.ids: dict[User, int] = {
            value: index for index, value in enumerate(self.values)
        }

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value: User) -> bool:
        return value in self.ids

    def id_of(self, value: User) -> int:
        """The interned id of ``value`` (raises ``KeyError`` if unknown)."""
        return self.ids[value]

    def intern(self, values: Iterable[User]) -> np.ndarray:
        """Intern a sequence of node ids to an ``int32`` array."""
        ids = self.ids
        values = list(values)
        if len(values) > 1:
            # operator.itemgetter resolves the whole batch in C.
            return np.asarray(itemgetter(*values)(ids), dtype=np.int32)
        if values:
            return np.asarray([ids[values[0]]], dtype=np.int32)
        return np.empty(0, dtype=np.int32)

    def value_of(self, interned: int) -> User:
        """The original node id behind an interned id."""
        return self.values[interned]

    def __getstate__(self) -> dict:
        # The forward dict is half the footprint and fully derivable.
        return {"values": self.values}

    def __setstate__(self, state: dict) -> None:
        self.values = state["values"]
        self.ids = {value: index for index, value in enumerate(self.values)}


def positive_csr(
    graph: SocialGraph, edge_values: Mapping[Edge, float]
) -> tuple[IdMap, np.ndarray, np.ndarray, np.ndarray]:
    """In-CSR over the edges with a positive value, sorted by ``(dst, src)``.

    Returns ``(idmap, indptr, indices, values)``: row ``v`` of the
    ``int64`` index arrays lists the sources of ``v``'s positive
    in-edges, and the ``float64`` values are aligned with ``indices``.
    An edge's flat position is its canonical edge id, the key the
    Monte-Carlo and sketch coins use.  Edges absent from
    ``edge_values`` count as 0 and, like every other non-positive edge,
    are left out — they can never fire.  A NaN or infinite value raises
    ``ValueError`` naming the edge.

    The id map covers ``graph.nodes()`` and nothing else: sketch
    targets are ``hash % n`` over exactly these nodes, so a map that
    also interned log users missing from the graph (as the context's
    :class:`CompiledGraph` does) would shift every id.
    """
    idmap = IdMap(graph.nodes())
    n = len(idmap)
    ids = idmap.ids
    sources: list[int] = []
    targets: list[int] = []
    weights: list[float] = []
    for source, target in graph.edges():
        value = edge_values.get((source, target), 0.0)
        if not isfinite(value):
            raise ValueError(
                f"edge {(source, target)!r} has a non-finite value {value!r}"
            )
        if value > 0.0:
            sources.append(ids[source])
            targets.append(ids[target])
            weights.append(value)
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(targets, dtype=np.int64)
    values = np.asarray(weights, dtype=np.float64)
    order = np.lexsort((src, dst))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n), out=indptr[1:])
    return idmap, indptr, src[order], values[order]


def _gather_csr(
    indptr: np.ndarray, indices: np.ndarray, row_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate the CSR rows ``row_ids``.

    Returns ``(row_positions, neighbors, flat_positions)``: for every
    adjacency entry, the position *within* ``row_ids`` it belongs to,
    the neighbor id, and its position in the CSR ``indices`` array
    (for the out-CSR, that position is the global edge id).
    """
    starts = indptr[row_ids]
    degrees = indptr[row_ids + 1] - starts
    total = int(degrees.sum())
    if total == 0:
        empty32 = np.empty(0, dtype=np.int32)
        return empty32, empty32, np.empty(0, dtype=np.int64)
    row_positions = np.repeat(
        np.arange(len(row_ids), dtype=np.int32), degrees
    )
    # Flat CSR offsets: each row's start minus its running offset,
    # repeated per entry, plus one global arange.
    shifts = starts.copy()
    shifts[1:] -= np.cumsum(degrees)[:-1]
    flat = np.repeat(shifts, degrees)
    flat += np.arange(total, dtype=np.int64)
    return row_positions, indices[flat], flat


class CompiledGraph:
    """The social graph as CSR arrays over interned ids.

    Attributes
    ----------
    idmap:
        Interning map covering the graph's nodes plus any extra users
        (log users missing from the graph become isolated rows).
    out_indptr / out_indices:
        Out-adjacency in CSR form, neighbors sorted by interned id.
        The position of ``(v, u)`` inside ``out_indices`` is the edge's
        *global edge id*.
    edge_src:
        Source id per global edge id (the CSR row expanded).
    in_indptr / in_indices:
        In-adjacency in CSR form, neighbors sorted by interned id.
    in_edge_ids:
        Global edge id per in-CSR position — a gather through it turns
        any in-adjacency expansion into edge ids with no searching.
    edge_keys:
        ``src * n + dst`` per global edge id — strictly increasing, so
        edge-id lookup is one :func:`np.searchsorted`.
    """

    def __init__(self, graph: SocialGraph, extra_users: Iterable[User] = ()) -> None:
        self.idmap = IdMap([*graph.nodes(), *extra_users])
        n = len(self.idmap)
        self.n = n
        sources: list[int] = []
        targets: list[int] = []
        ids = self.idmap.ids
        for source, target in graph.edges():
            sources.append(ids[source])
            targets.append(ids[target])
        src = np.asarray(sources, dtype=np.int32)
        dst = np.asarray(targets, dtype=np.int32)
        out_order = np.lexsort((dst, src))
        self.edge_src = src[out_order]
        self.out_indices = dst[out_order]
        self.out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.out_indptr[1:])
        in_order = np.lexsort((src, dst))
        self.in_indices = src[in_order]
        self.in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=self.in_indptr[1:])
        # Original edge j landed at out position inverse_out[j]; mapping
        # the in-ordering through it labels every in-CSR slot with its
        # global (out-CSR) edge id.
        inverse_out = np.empty(len(out_order), dtype=np.int64)
        inverse_out[out_order] = np.arange(len(out_order), dtype=np.int64)
        self.in_edge_ids = inverse_out[in_order]
        # Wide copy for the compile hot loop: gathering int64 directly
        # beats an int32 gather followed by an astype pass.
        self.in_indices_wide = self.in_indices.astype(np.int64)
        self.edge_keys = (
            self.edge_src.astype(np.int64) * n
            + self.out_indices.astype(np.int64)
        )
        self.num_edges = len(self.edge_keys)

    # Arrays derivable from the canonical CSR state; dropped from the
    # pickle payload and rebuilt on load.
    _DERIVED = ("in_indices_wide", "edge_keys", "num_edges")

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._DERIVED:
            state.pop(name)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.in_indices_wide = self.in_indices.astype(np.int64)
        self.edge_keys = (
            self.edge_src.astype(np.int64) * self.n
            + self.out_indices.astype(np.int64)
        )
        self.num_edges = len(self.edge_keys)

    def edge_ids(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Global edge ids for ``(src, dst)`` pairs, plus a found mask."""
        keys = src.astype(np.int64) * self.n + dst.astype(np.int64)
        positions = np.searchsorted(self.edge_keys, keys)
        clipped = np.minimum(positions, max(self.num_edges - 1, 0))
        found = (
            (positions < self.num_edges)
            & (self.edge_keys[clipped] == keys)
            if self.num_edges
            else np.zeros(len(keys), dtype=bool)
        )
        return positions, found

    def edge_endpoints(self, edge_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` interned ids for global edge ids."""
        return self.edge_src[edge_ids], self.out_indices[edge_ids]


class CompiledLog:
    """Every action of a log compiled against one :class:`CompiledGraph`.

    The whole log is held as flat arrays over one *global position*
    space (an action's offset plus the trace index):

    * ``actions`` — the compiled action names, in compilation order;
    * ``offsets`` — action ``i`` owns positions
      ``offsets[i]:offsets[i + 1]``;
    * ``node_ids_flat`` / ``times_flat`` — every chronological trace,
      concatenated;
    * ``link_child`` / ``link_parent`` / ``link_edge_ids`` — one entry
      per propagation-DAG link: the child's and the parent's global
      positions and the global social-edge id of ``(parent, child)``.
      Links are grouped by child position, each child's parents in
      exactly the order :meth:`PropagationGraph.parents` yields them.

    Actions are compiled in *chunks*: the traces of ~dozens of actions
    are concatenated and pushed through one batched pipeline — one
    intern call, one candidate expansion over the in-CSR, one
    strictly-earlier filter and one lexsort per chunk — against a
    ``(chunk slot, node)``-keyed scratch buffer.  Per-action Python
    overhead all but disappears.
    """

    # Scratch slots (chunk size x graph nodes) kept within a fixed
    # budget so the buffers stay small on large graphs.
    _CHUNK_SLOT_BUDGET = 1 << 21
    _MAX_CHUNK_ACTIONS = 64

    def __init__(
        self,
        graph: CompiledGraph,
        log: ActionLog,
        actions: Sequence[Hashable] | None = None,
    ) -> None:
        # Attribute order is the pickle's byte order (stored payloads):
        # graph, actions, then the flat arrays as assigned below.
        self.graph = graph
        self.actions: list[Hashable] = (
            list(log.actions()) if actions is None else list(actions)
        )
        chunk_actions = max(
            1, min(self._MAX_CHUNK_ACTIONS, self._CHUNK_SLOT_BUDGET // max(graph.n, 1))
        )
        # Scratch buffers reused across chunks: activation time (inf =
        # did not perform) and trace position, per (slot, node) key.
        time_buf = np.full(chunk_actions * graph.n, np.inf)
        pos_buf = np.zeros(chunk_actions * graph.n, dtype=np.int32)
        node_chunks: list[np.ndarray] = []
        time_chunks: list[np.ndarray] = []
        child_chunks: list[np.ndarray] = []
        parent_chunks: list[np.ndarray] = []
        edge_chunks: list[np.ndarray] = []
        sizes: list[int] = []
        base = 0
        for start in range(0, len(self.actions), chunk_actions):
            base = self._compile_chunk(
                self.actions[start:start + chunk_actions], log,
                time_buf, pos_buf, base, sizes, node_chunks, time_chunks,
                child_chunks, parent_chunks, edge_chunks,
            )
        self.offsets = np.zeros(len(self.actions) + 1, dtype=np.int64)
        np.cumsum(np.asarray(sizes, dtype=np.int64), out=self.offsets[1:])
        self.node_ids_flat = _concat(node_chunks, np.int32)
        self.times_flat = _concat(time_chunks, np.float64)
        self.link_child = _concat(child_chunks, np.int64)
        self.link_parent = _concat(parent_chunks, np.int64)
        self.link_edge_ids = _concat(edge_chunks, np.int64)

    def _compile_chunk(
        self,
        chunk: list[Hashable],
        log: ActionLog,
        time_buf: np.ndarray,
        pos_buf: np.ndarray,
        base: int,
        sizes: list[int],
        node_chunks: list[np.ndarray],
        time_chunks: list[np.ndarray],
        child_chunks: list[np.ndarray],
        parent_chunks: list[np.ndarray],
        edge_chunks: list[np.ndarray],
    ) -> int:
        graph = self.graph
        n = graph.n
        traces = [log.trace(action) for action in chunk]
        counts = np.asarray([len(trace) for trace in traces], dtype=np.int64)
        offsets = np.zeros(len(chunk) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        sizes.extend(len(trace) for trace in traces)
        users: list[User] = []
        stamps: list[float] = []
        for trace in traces:
            for user, stamp in trace:
                users.append(user)
                stamps.append(stamp)
        node_ids = graph.idmap.intern(users)
        times = np.asarray(stamps, dtype=np.float64)
        node_chunks.append(node_ids)
        time_chunks.append(times)
        if total == 0:
            return base

        # Scatter the chunk's activations into the (slot, node) keys.
        slots = np.repeat(np.arange(len(chunk), dtype=np.int64), counts)
        node_bases = slots * n
        keys = node_bases + node_ids.astype(np.int64)
        local_pos = np.arange(total, dtype=np.int64)
        local_pos -= np.repeat(offsets[:-1], counts)
        time_buf[keys] = times
        pos_buf[keys] = local_pos.astype(np.int32)

        # Candidate expansion: every in-neighbor of every trace node.
        ids64 = node_ids.astype(np.int64)
        starts = graph.in_indptr[ids64]
        degrees = graph.in_indptr[ids64 + 1] - starts
        cand_total = int(degrees.sum())
        if cand_total:
            shifts = starts.copy()
            shifts[1:] -= np.cumsum(degrees)[:-1]
            in_flat = np.repeat(shifts, degrees)
            in_flat += np.arange(cand_total, dtype=np.int64)
            # Per-candidate (slot, neighbor) keys, built in place.
            neighbor_keys = np.repeat(node_bases, degrees)
            neighbor_keys += graph.in_indices_wide[in_flat]
            # A social in-neighbor is a potential influencer iff it
            # performed the action strictly earlier (ties excluded) —
            # the PropagationGraph.build rule.  One flatnonzero, then
            # link-sized gathers instead of candidate-sized compactions.
            earlier = np.flatnonzero(
                time_buf[neighbor_keys] < np.repeat(times, degrees)
            )
            trace_pos = np.repeat(
                np.arange(total, dtype=np.int64), degrees
            )
            child_rows = trace_pos[earlier]
            parent_keys = neighbor_keys[earlier]
            # key = slot * n + neighbor, so the neighbor id is one
            # link-sized modulo away.
            parent_ids = (parent_keys % n).astype(np.int32)
            in_flat = in_flat[earlier]
        else:
            child_rows = np.empty(0, dtype=np.int64)
            parent_ids = np.empty(0, dtype=np.int32)
            parent_keys = in_flat = np.empty(0, dtype=np.int64)
        parent_times = time_buf[parent_keys]
        # Parents per child ordered by (activation time, node_sort_key);
        # interned ids are assigned in node_sort_key order, so sorting
        # by id matches the reference tie-break exactly.  child_rows is
        # the primary key, so one lexsort groups the whole chunk.
        order = np.lexsort((parent_ids, parent_times, child_rows))
        child_rows = child_rows[order]
        parent_pos = pos_buf[parent_keys[order]]
        edge_ids = graph.in_edge_ids[in_flat[order]]

        time_buf[keys] = np.inf  # reset the scratch buffer
        # Chunk-local trace rows plus this chunk's base give global
        # positions directly; a parent's global position is its own
        # local trace index on top of its action's offset (the child's
        # action — links never cross actions).
        child_chunks.append(base + child_rows)
        action_offset = np.repeat(offsets[:-1], counts)
        parent_chunks.append(
            base + action_offset[child_rows] + parent_pos.astype(np.int64)
        )
        edge_chunks.append(edge_ids)
        return base + total
