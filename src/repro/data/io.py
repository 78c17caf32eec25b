"""TSV persistence for social graphs and action logs.

The on-disk formats mirror the files that influence-maximization research
code conventionally exchanges:

* graph file — one ``source<TAB>target`` pair per line;
* action-log file — one ``user<TAB>action<TAB>time`` triple per line;
* edge-value file — one ``source<TAB>target<TAB>value`` triple per line,
  for learned influence probabilities or LT weights.

Node and action identifiers are written as strings; :func:`load_graph`
and :func:`load_action_log` convert identifiers that look like integers
back to ``int`` so round trips preserve the synthetic datasets exactly.
"""

from __future__ import annotations

import math
import os
from typing import Hashable

from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph

__all__ = [
    "save_graph",
    "load_graph",
    "save_action_log",
    "load_action_log",
    "save_edge_values",
    "load_edge_values",
    "parse_id",
]


def save_graph(graph: SocialGraph, path: str | os.PathLike[str]) -> None:
    """Write ``graph`` as a two-column TSV edge list.

    Isolated nodes are written as a single-column line so they survive a
    round trip.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for node in graph.nodes():
            if graph.out_degree(node) == 0 and graph.in_degree(node) == 0:
                handle.write(f"{node}\n")
        for source, target in graph.edges():
            handle.write(f"{source}\t{target}\n")


def load_graph(path: str | os.PathLike[str]) -> SocialGraph:
    """Read a graph written by :func:`save_graph`."""
    graph = SocialGraph()
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) == 1:
                graph.add_node(parse_id(fields[0]))
            elif len(fields) == 2:
                graph.add_edge(parse_id(fields[0]), parse_id(fields[1]))
            else:
                raise ValueError(
                    f"{path}:{line_number}: expected 1 or 2 fields, "
                    f"got {len(fields)}"
                )
    return graph


def save_action_log(log: ActionLog, path: str | os.PathLike[str]) -> None:
    """Write ``log`` as a three-column TSV (user, action, time)."""
    with open(path, "w", encoding="utf-8") as handle:
        for user, action, time in log.tuples():
            handle.write(f"{user}\t{action}\t{time!r}\n")


def load_action_log(path: str | os.PathLike[str]) -> ActionLog:
    """Read an action log written by :func:`save_action_log`."""
    log = ActionLog()
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(
                    f"{path}:{line_number}: expected 3 fields, got {len(fields)}"
                )
            log.add(parse_id(fields[0]), parse_id(fields[1]), float(fields[2]))
    return log


def save_edge_values(
    values: dict[tuple[Hashable, Hashable], float],
    path: str | os.PathLike[str],
) -> None:
    """Write learned edge probabilities/weights as a three-column TSV.

    Lets a CLI pipeline learn once (``repro learn``) and reuse the
    model across `maximize` runs, mirroring how research code exchanges
    weighted edge lists.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for (source, target), value in values.items():
            handle.write(f"{source}\t{target}\t{value!r}\n")


def load_edge_values(
    path: str | os.PathLike[str],
) -> dict[tuple[Hashable, Hashable], float]:
    """Read an edge-value file written by :func:`save_edge_values`.

    A line without three fields, or with a NaN or infinite value,
    raises ``ValueError`` naming ``path:line``.
    """
    values: dict[tuple[Hashable, Hashable], float] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(
                    f"{path}:{line_number}: expected 3 fields, got {len(fields)}"
                )
            edge = (parse_id(fields[0]), parse_id(fields[1]))
            value = float(fields[2])
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}:{line_number}: edge value must be finite, "
                    f"got {fields[2]!r}"
                )
            values[edge] = value
    return values


def parse_id(token: str) -> Hashable:
    """Convert an integer-looking identifier back to ``int``.

    The coercion rule of every loader in this module, shared with the
    ``repro serve`` request layer so JSON-borne seed ids match the ids
    stored artifacts are keyed by.
    """
    try:
        return int(token)
    except ValueError:
        return token
