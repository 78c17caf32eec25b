"""Sparse credit structures: UC (user credits) and SC (seed credits).

:class:`CreditIndex` is the output of Algorithm 2 and the working state
of Algorithms 3-5.  An entry ``UC[v][a][u]`` holds
``Gamma^{V-S}_{v,u}(a)`` — the total credit ``v`` earns for influencing
``u`` on action ``a``, restricted to paths avoiding the current seed set
``S`` (initially empty, so it starts as plain ``Gamma_{v,u}(a)``).

The index is one columnar table on stdlib :class:`array.array`, one row
per entry:

* ``src``, ``act``, ``dst`` — int32 influencer, action and influenced
  ids; ``val`` — the float64 credit;
* entries sit in *layout order*: each influencer's entries are
  contiguous (its row, rows in user-id order), its actions follow scan
  order, and the targets within an action keep the order the scan
  found them in.  ``row_start[i]:row_start[i + 1]`` is user ``i``'s
  row, and within a row ``act`` never decreases;
* ``inc_order`` lists entry positions grouped by influenced user (a
  stable sort of layout order by ``dst``); ``inc_start`` bounds each
  user's group.  It drives the Lemma-2 update (Algorithm 5);
* ``alive`` masks deleted entries.  Lemma 2 and :meth:`remove_user`
  only ever delete, so masking keeps every remaining entry where it
  was and every summation order unchanged.

User ids follow the activity order (``user_of[i]``, ``counts[i]`` is
``A_u``), action ids the order actions were added in (``action_of``).
Outside this module the columns are read-only; the NumPy kernels view
them with ``np.frombuffer``.  :attr:`CreditIndex.nbytes` is the exact
buffer size behind Figure 8 (right) and Table 4.

:class:`SeedCredits` is SC: ``sc[x][a] = Gamma_{S,x}(a)``, the credit
the *current seed set* earns for influencing ``x`` — the
``(1 - Gamma_{S,x}(a))`` factor of Theorem 3.
"""

from __future__ import annotations

import copy
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from itertools import compress
from typing import Hashable, Iterable, Iterator

from repro.utils.validation import require_non_negative

__all__ = ["CreditIndex", "SeedCredits"]

User = Hashable
Action = Hashable

# Entries whose value falls to (numerically) zero after a Lemma-2 update
# are dropped to keep the index tight.
_ZERO = 1e-15

# The columns and their array typecodes: int32 ids and entry positions,
# float64 credits, int64 row bounds (``users + 1`` each).
_COLUMNS = {
    "src": "i", "act": "i", "dst": "i", "val": "d",
    "inc_order": "i", "row_start": "q", "inc_start": "q",
}


class _Activity(Mapping):
    """Read-only ``{user: A_u}`` view of an index, in user-id order."""

    __slots__ = ("_index",)

    def __init__(self, index: "CreditIndex") -> None:
        self._index = index

    def __getitem__(self, user: User) -> int:
        return self._index.counts[self._index.user_ids[user]]

    def __iter__(self) -> Iterator[User]:
        return iter(self._index.user_of)

    def __len__(self) -> int:
        return len(self._index.user_of)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class CreditIndex:
    """The UC structure: total credits per (influencer, action, influenced).

    Instances are produced by :func:`repro.core.scan.scan_action_log`;
    the maximizer then mutates them in place (the paper's Algorithm 5).
    Use :meth:`copy` to preserve a pristine index across runs.
    """

    def __init__(self, truncation: float = 0.0) -> None:
        require_non_negative(truncation, "truncation")
        self.truncation = truncation
        self.user_of: list[User] = []
        self.user_ids: dict[User, int] = {}
        self.counts = array("i")
        self.action_of: list[Action] = []
        self.action_ids: dict[Action, int] = {}
        self._install(
            self._layout(array("i"), array("i"), array("i"), array("d"))
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def activity(self) -> Mapping[User, int]:
        """``{user: A_u}``, the number of actions each user performed."""
        return _Activity(self)

    def record_activity(self, user: User) -> None:
        """Count one action performed by ``user`` (the ``A_u`` counter)."""
        user_id = self.user_ids.get(user)
        if user_id is not None:
            self.counts[user_id] += 1
            return
        self.user_ids[user] = len(self.user_of)
        self.user_of.append(user)
        self.counts.append(1)
        self.row_start.append(self.row_start[-1])
        self.inc_start.append(self.inc_start[-1])

    def add_entries(
        self, entries: Iterable[tuple[User, Action, User, float]]
    ) -> None:
        """Append ``(influencer, action, influenced, value)`` entries.

        Both users must have recorded activity, and every action must
        be new to the index: a scanned action is never rescanned.  The
        entries are appended in the given order, then one stable sort by
        influencer moves them into layout order, so each influencer's
        actions and each action's targets keep the order given.
        """
        user_ids, action_ids, action_of = (
            self.user_ids, self.action_ids, self.action_of,
        )
        known = len(action_of)
        src, act, dst, val = array("i"), array("i"), array("i"), array("d")
        for influencer, action, influenced, value in entries:
            action_id = action_ids.get(action)
            if action_id is None:
                action_id = action_ids[action] = len(action_of)
                action_of.append(action)
            elif action_id < known:
                raise ValueError(f"action {action!r} is already in the index")
            if influencer not in user_ids or influenced not in user_ids:
                raise ValueError(
                    f"entry ({influencer!r}, {action!r}, {influenced!r}) "
                    "names a user with no recorded activity"
                )
            src.append(user_ids[influencer])
            act.append(action_id)
            dst.append(user_ids[influenced])
            val.append(value)
        if not val:
            return
        old = self._compacted()
        src, act, dst, val = (
            old["src"] + src, old["act"] + act, old["dst"] + dst,
            old["val"] + val,
        )
        order, _ = _stable_order(src, len(self.user_of))
        self._install(self._layout(*(
            _take(column, order) for column in (src, act, dst, val)
        )))

    def adopt(
        self, users: list, counts: Iterable[int], actions: list, **columns
    ) -> None:
        """Replace the contents with a layout built elsewhere.

        The NumPy scan's hand-over: ``users``/``counts`` are the id
        space in activity order and ``actions`` the action ids;
        ``columns`` holds every column of :data:`_COLUMNS` as a buffer of
        its type, entries already in layout order.
        """
        self.user_of = list(users)
        self.user_ids = {user: id_ for id_, user in enumerate(self.user_of)}
        self.counts = array("i", counts)
        self.action_of = list(actions)
        self.action_ids = {
            action: id_ for id_, action in enumerate(self.action_of)
        }
        self._install({
            name: _column(code, columns[name])
            for name, code in _COLUMNS.items()
        })

    def _install(self, columns: dict[str, array]) -> None:
        """Take every column of :data:`_COLUMNS`; all entries are live."""
        self.__dict__.update(columns)
        self.alive = bytearray(b"\x01") * len(self.val)

    def _layout(self, src: array, act: array, dst: array,
                val: array) -> dict[str, array]:
        """All columns, given the entry columns in layout order."""
        users = len(self.user_of)
        inc_order, inc_start = _stable_order(dst, users)
        return {
            "src": src, "act": act, "dst": dst, "val": val,
            "inc_order": inc_order,
            "row_start": array(
                "q", [bisect_left(src, user) for user in range(users + 1)]
            ),
            "inc_start": inc_start,
        }

    def _compacted(self) -> dict[str, array]:
        """All columns, holding the live entries only."""
        if self.alive.count(0) == 0:
            return {name: getattr(self, name) for name in _COLUMNS}
        keep = array("i", compress(range(len(self.alive)), self.alive))
        return self._layout(*(
            _take(column, keep)
            for column in (self.src, self.act, self.dst, self.val)
        ))

    # ------------------------------------------------------------------
    # Lemma 2 and seed removal
    # ------------------------------------------------------------------
    def discount_through(self, seed: User) -> int:
        """Apply Lemma 2 for a new seed: remove the credit that flowed through it.

        ``Gamma^{W-x}_{v,u}(a) = Gamma^W_{v,u}(a) - Gamma^W_{v,x}(a) Gamma^W_{x,u}(a)``
        for every source ``v`` and target ``u`` of ``seed`` on each of its
        actions, dropping entries that fall to ``<= 1e-15``.  A missing
        ``(v, a, u)`` entry is skipped: with truncation active, that
        credit may have been below ``lambda`` at scan time and never
        stored.

        Every entry changes at most once and reads only the seed's own
        entries, which stay live until :meth:`remove_user`, so the order
        the pairs are visited in cannot change any value.  Each source's
        ``(v, a)`` segment is found by bisection inside its row.

        Returns the number of entries changed or deleted.
        """
        seed_id = self.user_ids.get(seed)
        if seed_id is None:
            return 0
        act, dst, val, alive = self.act, self.dst, self.val, self.alive
        targets: dict[int, dict[int, float]] = {}
        for action, target, value in self.row_ids(seed_id):
            targets.setdefault(action, {})[target] = value
        if not targets:
            return 0
        updates = 0
        lo, hi = self.inc_start[seed_id], self.inc_start[seed_id + 1]
        for position in self.inc_order[lo:hi]:
            action = act[position]
            by_target = targets.get(action)
            if by_target is None or not alive[position]:
                continue
            source = self.src[position]
            source_to_seed = val[position]
            start = bisect_left(act, action, self.row_start[source], position)
            end = bisect_right(act, action, position, self.row_start[source + 1])
            for entry in range(start, end):
                seed_to_target = by_target.get(dst[entry])
                if seed_to_target is None or not alive[entry]:
                    continue
                remaining = val[entry] - source_to_seed * seed_to_target
                if remaining <= _ZERO:
                    alive[entry] = 0
                else:
                    val[entry] = remaining
                updates += 1
        return updates

    def remove_user(self, user: User) -> None:
        """Delete every credit entry to or from ``user`` (it became a seed).

        After ``user`` joins ``S`` it is no longer part of ``V - S``:
        credits *into* it are conceptually zero (Lemma 2 with ``u = x``)
        and credits *from* it are never read again (Algorithm 4 only
        evaluates non-seeds).
        """
        user_id = self.user_ids.get(user)
        if user_id is None:
            return
        lo, hi = self.row_start[user_id], self.row_start[user_id + 1]
        self.alive[lo:hi] = bytes(hi - lo)
        lo, hi = self.inc_start[user_id], self.inc_start[user_id + 1]
        for position in self.inc_order[lo:hi]:
            self.alive[position] = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def row_ids(self, user_id: int) -> Iterator[tuple[int, int, float]]:
        """``(action id, influenced id, value)`` of one row's live entries."""
        lo, hi = self.row_start[user_id], self.row_start[user_id + 1]
        return compress(
            zip(self.act[lo:hi], self.dst[lo:hi], self.val[lo:hi]),
            self.alive[lo:hi],
        )

    def row(self, influencer: User) -> Iterator[tuple[Action, User, float]]:
        """``(action, influenced, value)`` of ``influencer``'s live entries."""
        user_id = self.user_ids.get(influencer)
        if user_id is None:
            return iter(())
        action_of, user_of = self.action_of, self.user_of
        return (
            (action_of[action], user_of[target], value)
            for action, target, value in self.row_ids(user_id)
        )

    def sources(self, influenced: User) -> Iterator[tuple[User, Action, float]]:
        """``(influencer, action, value)`` of the live entries into a user.

        Grouped by influencer in user-id order; each influencer's
        actions in scan order.
        """
        user_id = self.user_ids.get(influenced)
        if user_id is None:
            return iter(())
        lo, hi = self.inc_start[user_id], self.inc_start[user_id + 1]
        src, act, val, alive = self.src, self.act, self.val, self.alive
        return (
            (self.user_of[src[position]], self.action_of[act[position]],
             val[position])
            for position in self.inc_order[lo:hi]
            if alive[position]
        )

    def entries(self) -> Iterator[tuple[User, Action, User, float]]:
        """Every live ``(influencer, action, influenced, value)``, in order."""
        action_of, user_of = self.action_of, self.user_of
        for user_id, influencer in enumerate(user_of):
            for action, influenced, value in self.row_ids(user_id):
                yield influencer, action_of[action], user_of[influenced], value

    def credit(self, influencer: User, action: Action, influenced: User) -> float:
        """``Gamma^{V-S}_{influencer, influenced}(action)`` (0 if absent)."""
        source = self.user_ids.get(influencer)
        action_id = self.action_ids.get(action)
        target = self.user_ids.get(influenced)
        if source is None or action_id is None or target is None:
            return 0.0
        lo, hi = self.row_start[source], self.row_start[source + 1]
        start = bisect_left(self.act, action_id, lo, hi)
        end = bisect_right(self.act, action_id, start, hi)
        for position in range(start, end):
            if self.dst[position] == target and self.alive[position]:
                return self.val[position]
        return 0.0

    def users(self) -> Iterator[User]:
        """Users with recorded activity (the candidate seed universe)."""
        return iter(self.user_of)

    @property
    def total_entries(self) -> int:
        """Number of live (v, a, u) credit entries."""
        return self.alive.count(1)

    @property
    def nbytes(self) -> int:
        """Exact size in bytes of the index's buffers.

        The entry columns, the ``inc_order`` and the alive mask, plus
        the per-user row bounds and activity counts — the quantity
        behind the paper's Figure-8 memory curve and Table 4.
        """
        columns = [getattr(self, name) for name in _COLUMNS] + [self.counts]
        return len(self.alive) + sum(
            column.itemsize * len(column) for column in columns
        )

    def copy(self) -> "CreditIndex":
        """Copy the index (the maximizer mutates it in place)."""
        duplicate = CreditIndex.__new__(CreditIndex)
        duplicate.__dict__ = {
            name: copy.copy(value) for name, value in self.__dict__.items()
        }
        return duplicate

    # ------------------------------------------------------------------
    # Pickling: raw column bytes, dead entries compacted away
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        columns = self._compacted()
        # ``src`` is implied by the row bounds.
        return {
            "truncation": self.truncation,
            "users": self.user_of,
            "counts": self.counts.tobytes(),
            "actions": self.action_of,
            **{
                name: column.tobytes()
                for name, column in columns.items() if name != "src"
            },
        }

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        self.truncation = state.pop("truncation")
        rows = _column("q", state["row_start"])
        src = array("i")
        for user_id in range(len(rows) - 1):
            src.extend(
                array("i", [user_id]) * (rows[user_id + 1] - rows[user_id])
            )
        self.adopt(
            state.pop("users"), _column("i", state.pop("counts")),
            state.pop("actions"), src=src, **state,
        )

    def __repr__(self) -> str:
        return (
            f"CreditIndex(users={len(self.user_of)}, "
            f"entries={self.total_entries}, truncation={self.truncation})"
        )


def _column(typecode: str, data) -> array:
    """An array of ``typecode`` over ``data``'s buffer (copied unless it
    already is one)."""
    if isinstance(data, array) and data.typecode == typecode:
        return data
    column = array(typecode)
    column.frombytes(memoryview(data).cast("B"))
    return column


def _take(column: array, order: array) -> array:
    """``column`` gathered at the positions ``order``."""
    return array(column.typecode, map(column.__getitem__, order))


def _stable_order(keys: array, size: int) -> tuple[array, array]:
    """``(order, starts)``: positions of ``keys`` (ids below ``size``) in
    stable key order, and where each key's run starts (``size + 1``).

    A counting sort: linear in ``len(keys) + size``.
    """
    slots = [0] * size
    for key in keys:
        slots[key] += 1
    total = 0
    for key, count in enumerate(slots):
        slots[key] = total
        total += count
    starts = array("q", slots)
    starts.append(total)
    order = array("i", bytes(4 * len(keys)))
    for position, key in enumerate(keys):
        order[slots[key]] = position
        slots[key] += 1
    return order, starts


class SeedCredits:
    """The SC structure: ``Gamma_{S,x}(a)`` for the current seed set S."""

    def __init__(self) -> None:
        self._credits: dict[User, dict[Action, float]] = {}
        self._sums: dict[User, float] = {}

    def get(self, user: User, action: Action) -> float:
        """``Gamma_{S, user}(action)`` (0 if S has no credit on user)."""
        return self._credits.get(user, {}).get(action, 0.0)

    def by_action(self, user: User) -> dict[Action, float]:
        """All per-action seed credits on ``user`` (read-only view)."""
        return self._credits.get(user, {})

    def total(self, user: User) -> float:
        """``sum_a Gamma_{S, user}(a)`` — the numerator of kappa_{S,user}."""
        return self._sums.get(user, 0.0)

    def add(self, user: User, action: Action, amount: float) -> None:
        """Apply the Lemma-3 increment to ``Gamma_{S, user}(action)``."""
        per_action = self._credits.setdefault(user, {})
        per_action[action] = per_action.get(action, 0.0) + amount
        self._sums[user] = self._sums.get(user, 0.0) + amount

    def drop_user(self, user: User) -> None:
        """Forget a user's entries (called when it joins the seed set)."""
        self._credits.pop(user, None)
        self._sums.pop(user, None)

    def copy(self) -> "SeedCredits":
        """Deep-copy (resuming a persisted CD run must not mutate the
        cached state)."""
        duplicate = SeedCredits()
        duplicate._credits = {
            user: dict(per_action) for user, per_action in self._credits.items()
        }
        duplicate._sums = dict(self._sums)
        return duplicate

    def __repr__(self) -> str:
        return f"SeedCredits(users={len(self._credits)})"
