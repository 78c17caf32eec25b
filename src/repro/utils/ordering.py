"""One deterministic ordering for heterogeneous node ids.

Seed-selection code breaks score ties constantly — in heaps, in argmax
scans, in top-k sorts.  Node ids are opaque hashables (ints in the
synthetic datasets, strings once a dataset round-trips through TSV), so
they cannot be compared directly; historically each algorithm carried
its own private ``_sort_key`` copy, and the copies had started to drift
(tuple keys in RIS/heuristics, string keys in PMIA/LDAG, an insertion
counter in degree-discount).

:func:`node_sort_key` is the single canonical key: order by type name
first, then by ``repr``.  Every tie anywhere in the library breaks the
same way, which is what makes registry-dispatched selector runs
byte-identical to direct calls.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

__all__ = ["node_sort_key", "ranked_nodes", "canonical_edges"]


def node_sort_key(value: object) -> tuple[str, str]:
    """Deterministic, type-safe sort key for arbitrary hashable node ids.

    Orders by type name, then by ``repr`` — total over mixed int/str/
    tuple id spaces, and stable across processes (unlike ``hash``).
    """
    return (type(value).__name__, repr(value))


def ranked_nodes(
    scores: Mapping[Hashable, float] | Iterable[tuple[Hashable, float]],
    k: int | None = None,
) -> list[Hashable]:
    """Nodes by decreasing score, ties broken by :func:`node_sort_key`.

    Accepts a mapping or an iterable of ``(node, score)`` pairs; returns
    the first ``k`` nodes (all of them when ``k`` is ``None``).
    """
    items = scores.items() if isinstance(scores, Mapping) else scores
    ranked = [
        node
        for node, _ in sorted(
            items, key=lambda pair: (-pair[1], node_sort_key(pair[0]))
        )
    ]
    return ranked if k is None else ranked[:k]


def canonical_edges(
    graph, edge_values: Mapping[tuple, float]
) -> tuple[list, list[tuple[int, int, float]]]:
    """The canonical id space of the counter-keyed coins.

    Returns ``(nodes, edges)``.  ``nodes`` lists the graph's nodes in
    :func:`node_sort_key` order; a node's id is its position.  ``edges``
    holds every edge with a positive value (missing edges count as 0)
    as a ``(dst id, src id, value)`` triple, sorted, so an edge's rank
    is its canonical edge id: its position in the ``(dst, src)``-sorted
    in-CSR of :func:`repro.kernels.interning.positive_csr`.
    """
    nodes = sorted(graph.nodes(), key=node_sort_key)
    id_of = {node: index for index, node in enumerate(nodes)}
    edges = []
    for source, target in graph.edges():
        value = edge_values.get((source, target), 0.0)
        if value > 0.0:
            edges.append((id_of[target], id_of[source], value))
    edges.sort()
    return nodes, edges
