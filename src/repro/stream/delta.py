"""The versioned action-log delta format.

An :class:`ActionLogDelta` carries what arrived since a model was
learned: new ``(user, action, time)`` tuples, plus *closed-action
markers* declaring which propagation traces are now complete.  The
split matters because the CD model folds credit per whole trace — a
trace must be folded once and entirely (a user's credits depend on
every earlier activation in the trace, so late tuples would be
mis-credited).
Tuples for actions that are not yet closed ride along as *pending*
state until a later delta closes them.

On disk a delta is a TSV file in the :mod:`repro.data.io` style::

    # repro-delta v1
    <user>\t<action>\t<time>     (one new tuple)
    !\t<action>                  (one closed-action marker)

The version header is mandatory; readers reject files with a missing
or future version instead of guessing.  Identifiers round-trip through
:func:`repro.data.io.parse_id` exactly like graphs and action logs.

:func:`apply_delta` is the single definition of delta semantics: it
validates the delta against the base log and pending state
(all-or-nothing — nothing is mutated on failure), then produces the
*union log* (base + newly closed traces, base traces first) and the
new pending set.  Every consumer — ``fold_delta``, ``derive_bundle``,
the ``/ingest`` endpoint — goes through it, so "what a delta means"
cannot drift between layers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from repro.data.actionlog import ActionLog
from repro.data.io import parse_id

__all__ = [
    "DELTA_FORMAT_VERSION",
    "ActionLogDelta",
    "DeltaApplication",
    "apply_delta",
    "save_action_log_delta",
    "load_action_log_delta",
]

User = Hashable
Action = Hashable
Tuple3 = tuple[User, Action, float]

DELTA_FORMAT_VERSION = 1

_HEADER_PREFIX = "# repro-delta v"
_CLOSE_MARK = "!"


@dataclass
class ActionLogDelta:
    """New action-log tuples plus the actions they complete.

    ``tuples`` are in arrival order; ``closed`` lists the actions whose
    traces are complete once this delta lands (order preserved,
    duplicates ignored).  A closed action may draw its tuples from this
    delta, from earlier pending state, or both.
    """

    tuples: list[Tuple3] = field(default_factory=list)
    closed: list[Action] = field(default_factory=list)

    def add(self, user: User, action: Action, time: float) -> None:
        """Append one new tuple; its time must be a finite number."""
        time = float(time)
        if not math.isfinite(time):
            raise ValueError(f"tuple times must be finite, got {time}")
        self.tuples.append((user, action, time))

    def close(self, action: Action) -> None:
        """Mark ``action``'s trace as complete."""
        if action not in self.closed:
            self.closed.append(action)

    @property
    def num_tuples(self) -> int:
        return len(self.tuples)

    def actions(self) -> list[Action]:
        """Distinct actions appearing in the tuples, first-seen order."""
        seen: dict[Action, None] = {}
        for _user, action, _time in self.tuples:
            seen.setdefault(action)
        return list(seen)

    @classmethod
    def from_log(
        cls, log: ActionLog, closed: Iterable[Action] | None = None
    ) -> "ActionLogDelta":
        """A delta carrying every tuple of ``log``.

        By default every action in ``log`` is marked closed — the
        common "a batch of complete traces arrived" case.
        """
        delta = cls()
        for user, action, time in log.tuples():
            delta.add(user, action, time)
        for action in log.actions() if closed is None else closed:
            delta.close(action)
        return delta

    def __repr__(self) -> str:
        return (
            f"ActionLogDelta(tuples={len(self.tuples)}, "
            f"closed={len(self.closed)})"
        )


@dataclass
class DeltaApplication:
    """The result of folding one delta into a base log.

    ``union_log`` is the log a batch rerun would scan: the base traces
    first (in base iteration order), then each newly closed trace in
    closure order — the ordering that makes incrementally maintained
    artifacts byte-identical to a full rescan.  ``closed_log`` holds
    just the newly closed traces; ``pending`` the tuples still awaiting
    closure.
    """

    union_log: ActionLog
    closed_log: ActionLog
    pending: list[Tuple3]


def _validate(
    base_log: ActionLog,
    delta: ActionLogDelta,
    pending: Sequence[Tuple3],
) -> None:
    """Reject a bad delta before any state is touched (all-or-nothing)."""
    frozen = set(base_log.actions())
    pending_pairs: set[tuple[User, Action]] = set()
    pending_actions: set[Action] = set()
    for user, action, _time in pending:
        if action in frozen:
            raise ValueError(
                f"pending state is inconsistent: action {action!r} is "
                "already part of the learned log"
            )
        pending_pairs.add((user, action))
        pending_actions.add(action)
    seen: set[tuple[User, Action]] = set()
    for user, action, _time in delta.tuples:
        if action in frozen:
            raise ValueError(
                f"delta tuple for action {action!r} rejected: the action "
                "is already part of the learned log, so its trace is "
                "frozen and cannot accept late tuples"
            )
        pair = (user, action)
        if pair in seen or pair in pending_pairs:
            raise ValueError(
                f"user {user!r} already performed action {action!r}; "
                "the data model allows at most one tuple per (user, action)"
            )
        seen.add(pair)
    delta_actions = {action for _user, action, _time in delta.tuples}
    for action in delta.closed:
        if action in frozen:
            raise ValueError(
                f"cannot close action {action!r}: it is already part of "
                "the learned log"
            )
        if action not in delta_actions and action not in pending_actions:
            raise ValueError(
                f"cannot close action {action!r}: it has no tuples in "
                "this delta or in the pending state"
            )


def apply_delta(
    base_log: ActionLog,
    delta: ActionLogDelta,
    pending: Sequence[Tuple3] = (),
) -> DeltaApplication:
    """Fold ``delta`` into ``base_log`` + ``pending``; nothing is mutated.

    Raises ``ValueError`` (before constructing anything) when the delta
    touches a frozen action, duplicates a ``(user, action)`` pair, or
    closes an action it has no tuples for.
    """
    _validate(base_log, delta, pending)
    closing = set(delta.closed)
    closed_log = ActionLog()
    new_pending: list[Tuple3] = []
    for user, action, time in list(pending) + list(delta.tuples):
        if action in closing:
            closed_log.add(user, action, time)
        else:
            new_pending.append((user, action, float(time)))
    union_log = ActionLog()
    for user, action, time in base_log.tuples():
        union_log.add(user, action, time)
    for user, action, time in closed_log.tuples():
        union_log.add(user, action, time)
    return DeltaApplication(
        union_log=union_log, closed_log=closed_log, pending=new_pending
    )


# ----------------------------------------------------------------------
# TSV reader/writer (the data/io.py idiom)
# ----------------------------------------------------------------------
def save_action_log_delta(
    delta: ActionLogDelta, path: str | os.PathLike[str]
) -> None:
    """Write ``delta`` as a versioned TSV file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{_HEADER_PREFIX}{DELTA_FORMAT_VERSION}\n")
        for user, action, time in delta.tuples:
            handle.write(f"{user}\t{action}\t{time!r}\n")
        for action in delta.closed:
            handle.write(f"{_CLOSE_MARK}\t{action}\n")


def load_action_log_delta(path: str | os.PathLike[str]) -> ActionLogDelta:
    """Read a delta written by :func:`save_action_log_delta`.

    Rejects files without the ``# repro-delta v<N>`` header or with a
    version this library does not read.
    """
    delta = ActionLogDelta()
    version: int | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if line.startswith(_HEADER_PREFIX):
                try:
                    version = int(line[len(_HEADER_PREFIX):].strip())
                except ValueError:
                    raise ValueError(
                        f"{path}:{line_number}: malformed delta header {line!r}"
                    ) from None
                if version != DELTA_FORMAT_VERSION:
                    raise ValueError(
                        f"{path}: delta format v{version} is not readable "
                        f"by this library (expects v{DELTA_FORMAT_VERSION})"
                    )
                continue
            if not line.strip() or line.startswith("#"):
                continue
            if version is None:
                raise ValueError(
                    f"{path}:{line_number}: not an action-log delta (missing "
                    f"'{_HEADER_PREFIX}{DELTA_FORMAT_VERSION}' header)"
                )
            fields = line.split("\t")
            if len(fields) == 2 and fields[0] == _CLOSE_MARK:
                delta.close(parse_id(fields[1]))
            elif len(fields) == 3:
                user, action = parse_id(fields[0]), parse_id(fields[1])
                try:
                    delta.add(user, action, float(fields[2]))
                except ValueError as error:
                    raise ValueError(f"{path}:{line_number}: {error}") from None
            else:
                raise ValueError(
                    f"{path}:{line_number}: expected a 3-field tuple or a "
                    f"'{_CLOSE_MARK}\\t<action>' marker, got {len(fields)} "
                    "fields"
                )
    if version is None:
        raise ValueError(
            f"{path}: not an action-log delta (missing "
            f"'{_HEADER_PREFIX}{DELTA_FORMAT_VERSION}' header)"
        )
    return delta
