"""Exact sigma_cd evaluation for arbitrary seed sets.

This module computes the CD spread (Eq. 8) directly from the action log:

    sigma_cd(S) = sum_u kappa_{S,u},
    kappa_{S,u} = (1 / A_u) * sum_a Gamma_{S,u}(a)

where ``Gamma_{S,u}(a)`` follows the set-credit recursion of Section 4
(1 if ``u in S``, else the gamma-weighted sum over potential
influencers) — a single forward pass over each propagation DAG in
chronological order.  No truncation is applied, so this evaluator is the
reference the truncated scan + incremental maximizer is tested against.

Two roles in the reproduction:

* *spread prediction* (Figures 3-4): predict the spread of a test
  trace's initiators by evaluating ``sigma_cd`` over the **training**
  log;
* *ground-truth proxy* (Figure 6): the paper cannot observe the actual
  spread of arbitrary seed sets, so it uses the CD estimate — the most
  accurate available model — as the yardstick for every method's seeds.

Conventions for degenerate cases (chosen for consistency with the
index-based maximizer, see DESIGN.md):

* a seed that performs no action in the log contributes 0, not 1 — the
  data shows no evidence of it influencing anyone, and the incremental
  algorithm's Theorem-3 gains agree;
* a seed with activity contributes exactly 1 (``kappa_{S,u} = 1`` for
  ``u in S``, as in the NP-hardness proof).
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Hashable, Iterable

from repro.core.credit import DirectCredit, UniformCredit
from repro.data.actionlog import ActionLog
from repro.data.propagation import PropagationGraph
from repro.graphs.digraph import SocialGraph

__all__ = ["CDSpreadEvaluator", "sigma_cd"]

User = Hashable


class CDSpreadEvaluator:
    """Pre-compiled sigma_cd evaluator (a ``SpreadOracle``).

    Construction walks the log once, caching per action the chronological
    list of ``(user, [(influencer, gamma), ...])``.  A seed set earns
    credit only inside actions one of its members performed, and only
    from that member's adoption onward, so each ``spread`` call walks
    just those actions, each from its earliest seed's position: the cost
    grows with the seeds' own actions, not with the log, and is
    independent of the social graph.  The user -> ``[(action index,
    position), ...]`` map that finds them is built on the first query
    and never pickled, so stored payloads do not depend on queries.

    Example
    -------
    >>> from repro.data.datasets import toy_example
    >>> toy = toy_example()
    >>> evaluator = CDSpreadEvaluator(toy.graph, toy.log)
    >>> round(evaluator.spread(["v"]), 4)
    3.75
    """

    def __init__(
        self,
        graph: SocialGraph,
        log: ActionLog,
        credit: DirectCredit | None = None,
        actions: Iterable[Hashable] | None = None,
        propagations: Callable[[Hashable], PropagationGraph] | None = None,
    ) -> None:
        self._activity: dict[User, int] = {}
        # One entry per action: [(user, [(influencer, gamma), ...]), ...]
        # in chronological order.
        self._compiled: list[list[tuple[User, list[tuple[User, float]]]]] = []
        self._compile_into(graph, log, credit, actions, propagations)

    @classmethod
    def from_compiled(
        cls,
        activity: dict[User, int],
        compiled: list[list[tuple[User, list[tuple[User, float]]]]],
    ) -> "CDSpreadEvaluator":
        """An evaluator over already compiled traces, adopted as given.

        ``activity`` and ``compiled`` take the shapes construction builds
        (see ``__init__``); the NumPy kernel
        :func:`repro.kernels.cd_numpy.cd_evaluator_numpy` builds them
        from a :class:`~repro.kernels.interning.CompiledLog`.
        """
        evaluator = cls.__new__(cls)
        evaluator._activity = activity
        evaluator._compiled = compiled
        return evaluator

    def _compile_into(
        self,
        graph: SocialGraph,
        log: ActionLog,
        credit: DirectCredit | None,
        actions: Iterable[Hashable] | None,
        propagations: Callable[[Hashable], PropagationGraph] | None,
    ) -> None:
        credit_fn = UniformCredit() if credit is None else credit
        if propagations is None:
            propagations = lambda action: PropagationGraph.build(graph, log, action)  # noqa: E731
        wanted = list(log.actions()) if actions is None else list(actions)
        for action in wanted:
            propagation = propagations(action)
            compiled_action = []
            for user in propagation.nodes():
                self._activity[user] = self._activity.get(user, 0) + 1
                incoming = [
                    (parent, credit_fn(propagation, parent, user))
                    for parent in propagation.parents(user)
                ]
                compiled_action.append((user, incoming))
            self._compiled.append(compiled_action)

    def extend(
        self,
        graph: SocialGraph,
        log: ActionLog,
        credit: DirectCredit | None = None,
        actions: Iterable[Hashable] | None = None,
        propagations: Callable[[Hashable], PropagationGraph] | None = None,
    ) -> "CDSpreadEvaluator":
        """A new evaluator covering this one's log plus ``log``'s traces.

        Per-action compilation is independent (Eq. 5 never crosses
        actions), so appending the new actions' compiled traces yields
        exactly the evaluator a from-scratch build over the union log
        would produce — *provided* ``credit`` is per-propagation (the
        uniform scheme).  Time-decay credits depend on globally learned
        influenceability and must be re-built over the union instead.

        ``self`` is left untouched: the compiled structure and activity
        counts are copied shallowly (entries are never mutated), so an
        evaluator currently serving queries stays valid.
        """
        extended = CDSpreadEvaluator.from_compiled(
            dict(self._activity), list(self._compiled)
        )
        extended._compile_into(graph, log, credit, actions, propagations)
        return extended

    def candidates(self) -> list[User]:
        """Users with at least one action — the useful seed universe."""
        return list(self._activity)

    def activity(self, user: User) -> int:
        """``A_u`` within the evaluated log."""
        return self._activity.get(user, 0)

    def __getstate__(self) -> dict:
        # The seed map is derived from ``_compiled``; leaving it out keeps
        # stored payloads and worker pickles independent of past queries.
        state = dict(self.__dict__)
        state.pop("_positions", None)
        return state

    def _seed_positions(self) -> dict[User, list[tuple[int, int]]]:
        """Every user's ``(action index, position)`` pairs, built once.

        Published by a single attribute assignment, so a concurrent
        query sees either no map (and builds an identical one) or a
        complete one.
        """
        positions = self.__dict__.get("_positions")
        if positions is None:
            positions = {}
            for action_index, compiled_action in enumerate(self._compiled):
                for position, (user, _) in enumerate(compiled_action):
                    positions.setdefault(user, []).append(
                        (action_index, position)
                    )
            self._positions = positions
        return positions

    def kappa(self, seeds: Iterable[User]) -> dict[User, float]:
        """``kappa_{S,u}`` for every user ``u`` in the log.

        Only the actions some seed performed are walked, in log order,
        each from its earliest seed's position.  Until a walk reaches a
        seed every credit it computes is zero, so the skipped positions
        and actions add nothing: the values, and the dict order, are
        those of a walk over every action.
        """
        seed_set = set(seeds)
        positions = self._seed_positions()
        starts: dict[int, int] = {}
        for seed in seed_set:
            for action_index, position in positions.get(seed, ()):
                start = starts.get(action_index)
                if start is None or position < start:
                    starts[action_index] = position
        totals: dict[User, float] = {}
        for action_index in sorted(starts):
            # Only positive credits are kept: an influencer missing here
            # is one whose zero credit the sum below would skip anyway.
            gamma_s: dict[User, float] = {}
            for user, incoming in islice(
                self._compiled[action_index], starts[action_index], None
            ):
                if user in seed_set:
                    credit = 1.0
                else:
                    credit = 0.0
                    for influencer, gamma in incoming:
                        if influencer in gamma_s and gamma > 0.0:
                            credit += gamma_s[influencer] * gamma
                if credit > 0.0:
                    gamma_s[user] = credit
                    totals[user] = totals.get(user, 0.0) + credit
        return {
            user: total / self._activity[user] for user, total in totals.items()
        }

    def spread(self, seeds: Iterable[User]) -> float:
        """``sigma_cd(seeds)``: the sum of ``kappa_{S,u}`` over all users."""
        return sum(self.kappa(seeds).values())


def sigma_cd(
    graph: SocialGraph,
    log: ActionLog,
    seeds: Iterable[User],
    credit: DirectCredit | None = None,
) -> float:
    """One-shot ``sigma_cd`` evaluation (builds a fresh evaluator).

    Prefer :class:`CDSpreadEvaluator` when evaluating many seed sets over
    the same log.
    """
    return CDSpreadEvaluator(graph, log, credit=credit).spread(seeds)
