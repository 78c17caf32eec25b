"""Temporal views of the action log.

The action log is a timestamped relation, and several workflows slice
it by time rather than by action: online replay (which traces complete
before a cutoff?), burst analysis (how does activity evolve?), and the
delay statistics that Eq. 9's parameters summarise.  This module keeps
those views in one place:

* :func:`time_span` — the log's observation window;
* :func:`restrict_to_window` — the sub-log of traces fully contained in
  a time window (whole traces only, matching the model's requirement
  that credits see complete traces);
* :func:`traces_by_completion` — actions ordered by when their trace
  finished (the natural streaming replay order);
* :func:`activity_series` — tuples per time bucket, the log's tempo;
* :func:`inter_activation_delays` — the raw delay sample behind
  ``tau_{v,u}`` (per pair or pooled).
"""

from __future__ import annotations

from typing import Hashable

from repro.data.actionlog import ActionLog
from repro.data.propagation import PropagationGraph
from repro.graphs.digraph import SocialGraph
from repro.utils.validation import require

__all__ = [
    "time_span",
    "restrict_to_window",
    "traces_by_completion",
    "activity_series",
    "inter_activation_delays",
]

User = Hashable
Action = Hashable


def time_span(log: ActionLog) -> tuple[float, float]:
    """The ``(earliest, latest)`` timestamps in the log.

    Raises ``ValueError`` on an empty log — an undefined window is a
    caller bug, not ``(0, 0)``.
    """
    require(log.num_tuples > 0, "time_span of an empty log is undefined")
    earliest = float("inf")
    latest = float("-inf")
    for action in log.actions():
        trace = log.trace(action)
        earliest = min(earliest, trace[0][1])
        latest = max(latest, trace[-1][1])
    return earliest, latest


def restrict_to_window(
    log: ActionLog, start: float, end: float
) -> ActionLog:
    """The sub-log of traces fully contained in ``[start, end]``.

    Whole traces only: a trace straddling the boundary is excluded
    entirely, because partial traces would mis-assign credits (the same
    rule the train/test split follows for the same reason).
    """
    require(end >= start, f"end ({end}) must be >= start ({start})")
    wanted = [
        action
        for action in log.actions()
        if log.trace(action)[0][1] >= start
        and log.trace(action)[-1][1] <= end
    ]
    return log.restrict_to_actions(wanted)


def traces_by_completion(log: ActionLog) -> list[tuple[Action, float]]:
    """Actions with their completion time, earliest-finishing first.

    The order a streaming consumer sees traces close, in which a replay
    closes actions in its :class:`~repro.stream.ActionLogDelta` waves.
    Ties break on the action's representation so replays are
    deterministic.
    """
    completions = [
        (action, log.trace(action)[-1][1]) for action in log.actions()
    ]
    completions.sort(key=lambda pair: (pair[1], repr(pair[0])))
    return completions


def activity_series(
    log: ActionLog, bucket_width: float
) -> list[tuple[float, int]]:
    """Tuples per time bucket: ``(bucket_start, count)`` rows, sorted.

    Empty buckets inside the span are included (count 0), so the series
    plots directly.
    """
    require(bucket_width > 0, f"bucket_width must be positive, got {bucket_width}")
    if log.num_tuples == 0:
        return []
    start, end = time_span(log)
    counts: dict[int, int] = {}
    for _, _, time in log.tuples():
        index = int((time - start) // bucket_width)
        counts[index] = counts.get(index, 0) + 1
    last_bucket = int((end - start) // bucket_width)
    return [
        (start + index * bucket_width, counts.get(index, 0))
        for index in range(last_bucket + 1)
    ]


def inter_activation_delays(
    graph: SocialGraph,
    log: ActionLog,
    pair: tuple[User, User] | None = None,
) -> list[float]:
    """Observed propagation delays ``t(u, a) - t(v, a)``.

    ``pair = (v, u)`` restricts to one influencer/influenced pair (the
    sample whose mean is ``tau_{v,u}``); ``None`` pools every potential-
    influencer relation in the log.
    """
    delays: list[float] = []
    for action in log.actions():
        propagation = PropagationGraph.build(graph, log, action)
        for user in propagation.nodes():
            user_time = propagation.time_of(user)
            for parent in propagation.parents(user):
                if pair is not None and pair != (parent, user):
                    continue
                delays.append(user_time - propagation.time_of(parent))
    return delays
