"""Per-artifact incremental updaters (delta -> updated artifacts).

:func:`fold_delta` takes a learned base context and an
:class:`~repro.stream.delta.ActionLogDelta` and produces a context over
the *union* log whose artifacts equal — byte for byte — what a cold
re-learn over that union would build.  Each artifact takes the cheapest
route its statistics allow:

========================  ==========================================
artifact                  route
========================  ==========================================
``credit_index``          closed traces scanned into a copy
                          (``scan_action_log(index=...)``; uniform
                          credits; time-decay re-learns)
``cd_evaluator``          per-action compile, columns appended via
                          :meth:`~repro.core.spread.CDSpreadEvaluator.extend`
                          (uniform credits; time-decay re-learns)
``lt_weights``            recount from stored sufficient statistics
                          (the ``A_{v2u}`` tally) + re-normalise
``ic_probabilities/UN``   carried over (depends on the graph only)
``ic_probabilities/WC``   carried over (graph only)
``ic_probabilities/TV``   carried over (graph + seed only)
``ic_probabilities/EM``   re-learn (iterative over the whole log)
``ic_probabilities/PT``   re-learn (perturbs the new EM)
``influence_params``      re-learn (tau/influenceability are global
                          means — any new trace moves them all)
========================  ==========================================

Why the uniform/time-decay split: uniform credits (``1/d_in``) depend
only on each action's own propagation DAG, so Eq. 5 never crosses
actions and folding a closed trace is exact.  Time-decay credits
(Eq. 9) are parameterised by *learned* influenceability — a new trace
shifts every user's ``tau_u``/``infl(u)``, which re-weights credits in
already-scanned traces; no per-trace fold can express that, so those
artifacts take the explicit re-learn path.

``verify=True`` re-learns everything over the union anyway and asserts
byte-identity (via the store's canonical pickle) against each
incrementally updated artifact — the equivalence contract, enforceable
at will and pinned permanently by the parity test suite.  One carve-out
mirrors the kernel parity contract: the NumPy scan's within-row
summation order depends on batch composition (see
``repro/kernels/scan_numpy.py``), so an incrementally folded
``credit_index`` under the numpy backend may differ from one global
rescan in the last float bit.  For that artifact/backend pair the
assertion is the parity-suite contract instead: identical entry sets
in identical order, identical activity counters, values within 1e-9.
The python backend — the documented reference — stays byte-identical
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.api.context import GRAPH_ONLY_ARTIFACTS, SelectionContext
from repro.core.scan import scan_action_log
from repro.probabilities.lt_weights import (
    count_propagations,
    lt_weights_from_counts,
)
from repro.stream.delta import ActionLogDelta, DeltaApplication, apply_delta

__all__ = [
    "StreamStats",
    "FoldReport",
    "FoldResult",
    "compute_stream_stats",
    "fold_delta",
]

User = Hashable
Edge = tuple[User, User]
Tuple3 = tuple[User, Hashable, float]

@dataclass
class StreamStats:
    """Sufficient statistics persisted alongside a bundle for streaming.

    ``lt_counts`` is the ``A_{v2u}`` propagation tally of
    :func:`~repro.probabilities.lt_weights.count_propagations`; folding
    a delta's closed traces into it and re-normalising reproduces the
    union log's LT weights exactly.
    """

    lt_counts: dict[Edge, int] = field(default_factory=dict)


def compute_stream_stats(context: SelectionContext) -> StreamStats:
    """Tally the streaming sufficient statistics of ``context``'s log.

    Cheap when the context has already learned (its propagation DAGs
    are memoized); a full DAG sweep otherwise.
    """
    counts = count_propagations(
        context.graph,
        context.train_log,
        propagations=context.propagation,
    )
    return StreamStats(lt_counts=counts)


@dataclass
class FoldReport:
    """What :func:`fold_delta` did, per artifact."""

    updated: list[str] = field(default_factory=list)
    carried: list[str] = field(default_factory=list)
    relearned: list[str] = field(default_factory=list)
    delta_tuples: int = 0
    delta_actions: int = 0
    closed_actions: int = 0
    pending_tuples: int = 0
    verified: bool = False

    def to_dict(self) -> dict:
        return {
            "updated": list(self.updated),
            "carried": list(self.carried),
            "relearned": list(self.relearned),
            "delta_tuples": self.delta_tuples,
            "delta_actions": self.delta_actions,
            "closed_actions": self.closed_actions,
            "pending_tuples": self.pending_tuples,
            "verified": self.verified,
        }


@dataclass
class FoldResult:
    """A folded context plus everything a store derive needs to persist."""

    context: SelectionContext
    report: FoldReport
    stats: StreamStats | None
    pending: list[Tuple3]
    application: DeltaApplication


def clone_context(context: SelectionContext, log) -> SelectionContext:
    """A fresh (artifact-empty) context over ``log`` with the same spec."""
    return SelectionContext(
        context.graph,
        train_log=log,
        probability_method=context.probability_method,
        num_simulations=context.num_simulations,
        truncation=context.truncation,
        seed=context.seed,
        credit_scheme=context.credit_scheme,
        backend=context.backend,
        executor=context.executor,
    )


def fold_delta(
    context: SelectionContext,
    delta: ActionLogDelta,
    pending: Sequence[Tuple3] = (),
    stats: StreamStats | None = None,
    verify: bool = False,
) -> FoldResult:
    """Fold ``delta`` into ``context``'s artifacts; return the union context.

    Every artifact slot populated on ``context`` is populated on the
    result, routed per the table above.  ``context`` itself (and every
    artifact object it holds, except the carried-by-reference ones) is
    left untouched, so a context currently serving queries stays valid
    throughout.  ``stats`` enables the incremental LT route;
    ``pending`` is the open-tuple state from a previous fold.
    """
    base_log = context._require_log("delta folding")
    application = apply_delta(base_log, delta, pending)
    closed_log = application.closed_log
    new_context = clone_context(context, application.union_log)
    names = [n for n in context.artifact_names() if n != "compiled_log"]
    report = FoldReport(
        delta_tuples=delta.num_tuples,
        delta_actions=len(delta.actions()),
        closed_actions=closed_log.num_actions,
        pending_tuples=len(application.pending),
    )
    new_stats = stats
    uniform = context.credit_scheme == "uniform"

    if closed_log.num_actions == 0:
        # The learned log is unchanged — every artifact carries over.
        for name in names:
            new_context.set_artifact(name, context.get_artifact(name))
            report.carried.append(name)
        return FoldResult(
            context=new_context,
            report=report,
            stats=new_stats,
            pending=application.pending,
            application=application,
        )

    closed_actions = list(closed_log.actions())
    for name in names:
        if name in GRAPH_ONLY_ARTIFACTS:
            new_context.set_artifact(name, context.get_artifact(name))
            report.carried.append(name)
        elif name == "credit_index" and uniform:
            index = context.get_artifact("credit_index").copy()
            if context.backend == "numpy":
                from repro.kernels.scan_numpy import scan_action_log_numpy

                scan_action_log_numpy(context.graph, closed_log, index=index)
            else:
                scan_action_log(
                    context.graph, closed_log, index=index,
                    propagations=new_context.propagation,
                )
            new_context.set_artifact("credit_index", index)
            report.updated.append(name)
        elif name == "cd_evaluator" and uniform:
            extended = context.get_artifact("cd_evaluator").extend(
                context.graph,
                closed_log,
                credit=None,
                actions=closed_actions,
                propagations=new_context.propagation,
            )
            new_context.set_artifact("cd_evaluator", extended)
            report.updated.append(name)
        elif name == "lt_weights" and stats is not None:
            counts = dict(stats.lt_counts)
            count_propagations(
                context.graph,
                closed_log,
                propagations=new_context.propagation,
                counts=counts,
            )
            weights = lt_weights_from_counts(counts, application.union_log)
            new_context.set_artifact("lt_weights", weights)
            new_stats = StreamStats(lt_counts=counts)
            report.updated.append(name)
        else:
            # The fall-back-to-relearn path: statistics don't decompose
            # (EM/PT/influence_params/time-decay credits) or the needed
            # sufficient statistics weren't provided.
            new_context.build_artifact(name)
            report.relearned.append(name)
            if name == "lt_weights":
                new_stats = compute_stream_stats(new_context)

    if verify and report.updated:
        _assert_union_equivalence(new_context, report.updated)
        report.verified = True
    return FoldResult(
        context=new_context,
        report=report,
        stats=new_stats,
        pending=application.pending,
        application=application,
    )


def _assert_union_equivalence(
    new_context: SelectionContext, names: list[str]
) -> None:
    """Re-learn ``names`` over the union log and assert equivalence.

    Byte-identity via the store's canonical pickle, with one carve-out:
    a numpy-backend ``credit_index`` is held to the kernel parity
    contract (identical entries and order, values within 1e-9) because
    the NumPy scan's summation order is batch-dependent in the last
    float bit.
    """
    from repro.store.serialize import dump_payload

    reference = clone_context(new_context, new_context.train_log)
    for name in names:
        expected_artifact = reference.build_artifact(name)
        got_artifact = new_context.get_artifact(name)
        if dump_payload(got_artifact) == dump_payload(expected_artifact):
            continue
        if (
            name == "credit_index"
            and new_context.backend == "numpy"
            and _credit_index_parity(got_artifact, expected_artifact)
        ):
            continue
        raise AssertionError(
            f"incremental update of {name!r} diverged from a full "
            "rescan of the union log — this is a bug in "
            "repro.stream.update"
        )


#: Last-bit float dust from batch-dependent summation order in the
#: NumPy scan kernel — same bound the kernel parity suite pins.
_CREDIT_VALUE_TOLERANCE = 1e-9


def _credit_index_parity(got, expected) -> bool:
    """Kernel-parity equivalence for two credit indexes.

    Identical entries in identical layout order, identical activity
    counters (order included) and truncation, values within
    ``_CREDIT_VALUE_TOLERANCE``.
    """
    got_entries = list(got.entries())
    expected_entries = list(expected.entries())
    return (
        got.truncation == expected.truncation
        and list(got.activity.items()) == list(expected.activity.items())
        and len(got_entries) == len(expected_entries)
        and all(
            mine[:3] == theirs[:3]
            and abs(mine[3] - theirs[3]) <= _CREDIT_VALUE_TOLERANCE
            for mine, theirs in zip(got_entries, expected_entries)
        )
    )
