"""Scalability, training-size and truncation sweeps of the CD pipeline.

Covers the paper's Figure 8 (runtime and memory vs number of action-log
tuples), Figure 9 (solution quality vs number of tuples) and Table 4
(the truncation threshold sweep).  Figure 7 (runtime vs seed-set size
for IC/LT/CD) is ``run_experiment(...).runtime_curves()`` of
:func:`repro.api.run_experiment`.

Memory is reported as the credit index's exact buffer size
(:attr:`repro.core.index.CreditIndex.nbytes`) — the quantity the paper's
Figure 8 (right) tracks.  It stands in for the process memory the paper
measured: a Python process's RSS is mostly interpreter and allocator
overhead and noise, which would hide how the index grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

from repro.core.credit import TimeDecayCredit
from repro.core.maximize import cd_maximize
from repro.core.params import learn_influenceability
from repro.core.scan import scan_action_log
from repro.core.spread import CDSpreadEvaluator
from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.utils.timing import Timer
from repro.utils.validation import require

__all__ = [
    "ScalabilityRow",
    "scalability_experiment",
    "TruncationRow",
    "truncation_experiment",
]

User = Hashable


@dataclass
class ScalabilityRow:
    """One point of the Figures 8-9 sweeps."""

    num_tuples: int
    scan_seconds: float
    select_seconds: float
    total_seconds: float
    index_entries: int
    memory_bytes: int
    seeds: list[User]
    spread: float = 0.0
    true_seed_overlap: int = 0


def scalability_experiment(
    graph: SocialGraph,
    log: ActionLog,
    tuple_counts: Iterable[int],
    k: int = 50,
    truncation: float = 0.001,
) -> list[ScalabilityRow]:
    """Figures 8 and 9: sweep the number of training tuples.

    For each tuple budget, whole propagation traces are sampled until
    the budget is reached (``ActionLog.head_tuples``), the CD pipeline
    (parameter learning + scan + maximization) is timed, the index's
    memory is recorded, and the selected seeds are scored against the
    full log: spread under the full-log CD evaluator and overlap with
    the "true seeds" — those selected using the complete action log.
    """
    counts = sorted(set(tuple_counts))
    require(bool(counts), "tuple_counts must be non-empty")
    rows: list[ScalabilityRow] = []
    for count in counts:
        sublog = log.head_tuples(count)
        with Timer() as scan_timer:
            params = learn_influenceability(graph, sublog)
            index = scan_action_log(
                graph, sublog, credit=TimeDecayCredit(params), truncation=truncation
            )
        entries = index.total_entries
        memory = index.nbytes
        with Timer() as select_timer:
            selection = cd_maximize(index, k, mutate=True)
        rows.append(
            ScalabilityRow(
                num_tuples=sublog.num_tuples,
                scan_seconds=scan_timer.elapsed,
                select_seconds=select_timer.elapsed,
                total_seconds=scan_timer.elapsed + select_timer.elapsed,
                index_entries=entries,
                memory_bytes=memory,
                seeds=selection.seeds,
            )
        )
    # Score every row against the full log (Figure 9).
    full_params = learn_influenceability(graph, log)
    evaluator = CDSpreadEvaluator(graph, log, credit=TimeDecayCredit(full_params))
    full_index = scan_action_log(
        graph, log, credit=TimeDecayCredit(full_params), truncation=truncation
    )
    true_seeds = set(cd_maximize(full_index, k, mutate=True).seeds)
    for row in rows:
        row.spread = evaluator.spread(row.seeds)
        row.true_seed_overlap = len(true_seeds & set(row.seeds))
    return rows


@dataclass
class TruncationRow:
    """One row of Table 4."""

    truncation: float
    spread: float
    true_seeds_discovered: int
    memory_bytes: int
    runtime_seconds: float
    index_entries: int
    seeds: list[User] = field(default_factory=list)


def truncation_experiment(
    graph: SocialGraph,
    log: ActionLog,
    truncations: Iterable[float],
    k: int = 50,
) -> list[TruncationRow]:
    """Table 4: sweep the truncation threshold ``lambda``.

    "True seeds" are, as in the paper, those obtained at the smallest
    threshold in the sweep; spread is measured with the exact
    (untruncated) CD evaluator so that quality differences reflect what
    the truncated index *lost*.
    """
    lambdas = sorted(set(truncations), reverse=True)
    require(bool(lambdas), "truncations must be non-empty")
    params = learn_influenceability(graph, log)
    credit = TimeDecayCredit(params)
    evaluator = CDSpreadEvaluator(graph, log, credit=credit)
    rows: list[TruncationRow] = []
    for value in lambdas:
        with Timer() as timer:
            index = scan_action_log(graph, log, credit=credit, truncation=value)
            entries = index.total_entries
            memory = index.nbytes
            selection = cd_maximize(index, k, mutate=True)
        rows.append(
            TruncationRow(
                truncation=value,
                spread=evaluator.spread(selection.seeds),
                true_seeds_discovered=0,
                memory_bytes=memory,
                runtime_seconds=timer.elapsed,
                index_entries=entries,
                seeds=selection.seeds,
            )
        )
    reference = set(rows[-1].seeds)  # smallest lambda = highest fidelity
    for row in rows:
        row.true_seeds_discovered = len(reference & set(row.seeds))
    return rows
