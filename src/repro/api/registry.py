"""The selector registry: one name per algorithm, one calling convention.

Every seed-selection algorithm in the library registers here as a
:class:`SelectorSpec` — a name, a family tag, capability flags and an
adapter function.  Everything downstream (the experiment runner, the
CLI, the benchmarks, the examples) asks the registry instead of
importing algorithms directly, so adding an algorithm — or a remote
backend — to the whole toolchain is one :func:`register_selector` call.

Adapter contract: ``adapter(context, k, **params)`` receives a
:class:`~repro.api.context.SelectionContext` and returns either a
legacy result (:class:`~repro.maximization.greedy.GreedyResult`,
:class:`~repro.maximization.ris.RISResult`, or a bare seed list) or a
ready :class:`~repro.api.results.SeedSelection`; the registry coerces
and stamps it uniformly.  Adapters *wrap* the public algorithm
functions — they never reimplement them — which is what keeps registry
dispatch byte-identical to a direct call.  Each keyword-only parameter
is annotated ``int``, ``float`` or ``str`` (optionally ``| None``), and
every bind checks the bound values against their annotations.
"""

from __future__ import annotations

import inspect
import numbers
import time
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.api.context import (
    IC_PROBABILITY_METHODS,
    ORACLE_MODELS,
    SelectionContext,
)
from repro.api.results import SeedSelection
from repro.maximization.greedy import GreedyResult
from repro.maximization.ris import RISResult
from repro.utils.validation import is_finite_number, require, require_config

__all__ = [
    "SelectorSpec",
    "Selector",
    "register_selector",
    "get_selector",
    "bind_selector",
    "list_selectors",
    "selector_names",
]

FAMILIES = ("cd", "mc", "sketch", "heuristic")

# Adapter keywords that are instrumentation channels, not algorithm
# parameters: they never appear in ``param_names()`` (so they cannot be
# bound, and never land in ``SeedSelection.params`` or store keys) and
# are only reachable through ``Selector.select(..., extras=...)``.
_INSTRUMENTATION_PARAMS = ("time_log", "checkpoints", "state", "state_out")

# What a bound value of each adapter parameter type must be, and each
# annotation a parameter may carry -> (type, admits None).
_PARAM_TYPES = {int: "an integer", float: "a finite number", str: "a string"}
_ANNOTATIONS = {h: (t, h is not t) for t in _PARAM_TYPES for h in (t, t | None)}

_REGISTRY: dict[str, "SelectorSpec"] = {}


@dataclass(frozen=True)
class SelectorSpec:
    """Registry entry describing one selection algorithm.

    Attributes
    ----------
    name:
        Registry key (``repro list-selectors`` shows all of them).
    family:
        ``cd`` (credit distribution), ``mc`` (greedy over a spread
        oracle), ``sketch`` (sampling / path-enumeration estimators) or
        ``heuristic`` (structural and model-based heuristics).
    func:
        The adapter callable (see module docstring for the contract).
    param_types:
        Each bindable parameter's ``(type, admits None)``, resolved from
        its annotation once by :func:`register_selector`.
    description:
        One-line summary for listings.
    needs_oracle / needs_index / needs_probabilities / needs_weights /
    needs_sketches:
        Which shared artifacts the selector pulls from the context;
        :meth:`Selector.reads` turns them, with the bound ``method`` and
        ``model``, into artifact slot names.  ``needs_sketches`` marks
        the reverse-reachability consumers (``ris``/``hop``): they read
        the IC probabilities their sketch batches are drawn over, and
        each cell builds its own batch.
    supports_budget:
        Whether the selector understands budget workloads (a total
        seed-cost cap; the built-in ``cd_budget`` does).
    supports_time_log:
        Whether the adapter can record the cumulative runtime-vs-k
        curve (Figure-7 instrumentation) into
        ``SeedSelection.metadata["time_log"]``.
    stochastic:
        Whether the selector consumes randomness.  Stochastic adapters
        accept a ``seed`` parameter, and the experiment runner injects
        a deterministic per-trial seed when the caller did not pin one.
    """

    name: str
    family: str
    func: Callable[..., Any] = field(repr=False, compare=False)
    description: str = ""
    needs_oracle: bool = False
    needs_index: bool = False
    needs_probabilities: bool = False
    needs_weights: bool = False
    needs_sketches: bool = False
    supports_budget: bool = False
    supports_time_log: bool = False
    stochastic: bool = False
    param_types: Mapping[str, tuple[type, bool]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def capabilities(self) -> dict[str, bool]:
        """The capability flags as one mapping (for listings/export)."""
        return {
            "needs_oracle": self.needs_oracle,
            "needs_index": self.needs_index,
            "needs_probabilities": self.needs_probabilities,
            "needs_weights": self.needs_weights,
            "needs_sketches": self.needs_sketches,
            "supports_budget": self.supports_budget,
            "supports_time_log": self.supports_time_log,
            "stochastic": self.stochastic,
        }

    def param_names(self) -> list[str]:
        """Keyword parameters the adapter accepts (beyond context, k)."""
        return list(self.param_types)


class Selector:
    """A registry selector bound to a concrete parameter set.

    Calling it with ``(context, k)`` runs the algorithm and returns a
    :class:`~repro.api.results.SeedSelection` stamped with the selector
    name, the bound parameters and the measured wall time.
    """

    def __init__(self, spec: SelectorSpec, params: Mapping[str, Any]) -> None:
        unknown = sorted(set(params) - set(spec.param_types))
        require(
            not unknown,
            f"selector {spec.name!r} got unknown parameter(s) {unknown}; "
            f"accepted: {sorted(spec.param_types)}",
        )
        for name, value in params.items():
            kind, nullable = spec.param_types[name]
            require(
                (value is None and nullable) or _binds_as(kind, value),
                f"selector {spec.name!r} got {name} {value!r:.40}; {name} must "
                f"be {_PARAM_TYPES[kind]}{' or null' if nullable else ''}",
            )
        self.spec = spec
        self.params = dict(params)
        model = self.params.get("model", "cd")
        if spec.needs_oracle:
            require(
                model in ORACLE_MODELS,
                f"selector {spec.name!r} got model {model!r}; "
                f"model must be one of {ORACLE_MODELS}",
            )
        method = self.params.get("method")
        if method is not None and self._reads_probabilities():
            require(
                method in IC_PROBABILITY_METHODS,
                f"selector {spec.name!r} got method {method!r}; "
                f"method must be one of {IC_PROBABILITY_METHODS}",
            )

    def _reads_probabilities(self) -> bool:
        """Whether :meth:`reads` names an ``ic_probabilities`` slot."""
        spec = self.spec
        return (
            spec.needs_probabilities
            or spec.needs_sketches
            or (spec.needs_oracle and self.params.get("model") == "ic")
        )

    @property
    def name(self) -> str:
        """The registry name of the underlying selector."""
        return self.spec.name

    def with_params(self, **params: Any) -> "Selector":
        """A copy with ``params`` merged over the current binding."""
        return Selector(self.spec, {**self.params, **params})

    def reads(self, context: SelectionContext) -> list[str]:
        """The artifact slots this selector reads from ``context``.

        The one routing rule from capability flags to slots: the
        runner's log-free validation, its parallel prefetch and the
        store's warm start all derive from it.  ``method`` is the bound
        one or else the context's; ``model`` (oracle selectors only)
        defaults to ``cd``.  A sketch selector's batch is no slot: it
        is keyed by the bound count, hops and seed, so the cell that
        reads it builds it.
        """
        spec = self.spec
        method = self.params.get("method") or context.probability_method
        model = self.params.get("model", "cd") if spec.needs_oracle else None
        slots = []
        if spec.needs_index:
            slots.append("credit_index")
        if model == "cd":
            slots.append("cd_evaluator")
        if self._reads_probabilities():
            slots.append(f"ic_probabilities/{method}")
        if spec.needs_weights or model == "lt":
            slots.append("lt_weights")
        return slots

    def select(
        self,
        context: SelectionContext,
        k: int,
        extras: Mapping[str, Any] | None = None,
    ) -> SeedSelection:
        """Run the selector for ``k`` seeds against ``context``.

        ``extras`` passes instrumentation channels (``checkpoints``,
        ``state``, ``state_out`` — see :mod:`repro.store.prefix`)
        straight to the adapter without recording them as parameters:
        the returned selection's ``params`` — and therefore every
        derived cache key — is identical with or without them.
        """
        require(k >= 0, f"k must be non-negative, got {k}")
        kwargs = dict(self.params)
        if extras:
            unknown = sorted(set(extras) - set(_INSTRUMENTATION_PARAMS))
            require(
                not unknown,
                f"unknown instrumentation channel(s) {unknown}; "
                f"accepted: {sorted(_INSTRUMENTATION_PARAMS)}",
            )
            kwargs.update(extras)
        time_log: list[tuple[int, float]] | None = None
        if self.spec.supports_time_log and "time_log" not in kwargs:
            time_log = []
            kwargs["time_log"] = time_log
        started = time.perf_counter()
        raw = self.spec.func(context, k, **kwargs)
        elapsed = time.perf_counter() - started
        selection = self._coerce(raw, elapsed)
        if time_log:
            selection.metadata.setdefault(
                "time_log", [list(entry) for entry in time_log]
            )
        return selection

    __call__ = select

    def _coerce(self, raw: Any, elapsed: float) -> SeedSelection:
        if isinstance(raw, SeedSelection):
            raw.selector = raw.selector or self.spec.name
            raw.params = {**self.params, **raw.params}
            raw.wall_time_s = raw.wall_time_s or elapsed
            return raw
        if isinstance(raw, RISResult):
            return SeedSelection.from_ris_result(
                raw,
                selector=self.spec.name,
                params=self.params,
                wall_time_s=elapsed,
            )
        if isinstance(raw, GreedyResult):
            return SeedSelection.from_greedy_result(
                raw,
                selector=self.spec.name,
                params=self.params,
                wall_time_s=elapsed,
            )
        if isinstance(raw, list):
            return SeedSelection.from_seeds(
                raw,
                selector=self.spec.name,
                params=self.params,
                wall_time_s=elapsed,
            )
        raise TypeError(
            f"selector {self.spec.name!r} returned {type(raw).__name__}; "
            "expected SeedSelection, GreedyResult, RISResult or list"
        )


def _binds_as(kind: type, value: Any) -> bool:
    """Whether ``value`` is a parameter value of type ``kind``."""
    if kind is float:
        return is_finite_number(value)
    wanted = numbers.Integral if kind is int else str
    return isinstance(value, wanted) and not isinstance(value, bool)


def _param_types(name: str, func: Callable[..., Any]) -> dict[str, tuple]:
    """Each bindable parameter's ``(type, admits None)``; refuse others."""
    hints = typing.get_type_hints(func)
    resolved = {}
    for param in inspect.signature(func).parameters.values():
        if param.kind != param.KEYWORD_ONLY or param.name in _INSTRUMENTATION_PARAMS:
            continue
        hint = hints.get(param.name)
        require(
            hint in _ANNOTATIONS,
            f"selector {name!r}: parameter {param.name!r} must be annotated "
            f"int, float or str, optionally | None; got {hint!r}",
        )
        resolved[param.name] = _ANNOTATIONS[hint]
    return resolved


def register_selector(
    name: str,
    family: str,
    description: str = "",
    **capabilities: bool,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering an adapter function under ``name``.

    ``capabilities`` are the boolean :class:`SelectorSpec` flags
    (``needs_oracle``, ``needs_index``, ``needs_probabilities``,
    ``needs_weights``, ``needs_sketches``, ``supports_budget``,
    ``supports_time_log``, ``stochastic``).  An adapter parameter
    annotated with anything but a ``_PARAM_TYPES`` type is refused.
    """
    require(
        family in FAMILIES, f"family must be one of {FAMILIES}, got {family!r}"
    )
    require(
        name not in _REGISTRY, f"selector {name!r} is already registered"
    )

    def decorator(func: Callable[..., Any]) -> Callable[..., Any]:
        _REGISTRY[name] = SelectorSpec(
            name=name,
            family=family,
            func=func,
            description=description or (func.__doc__ or "").strip().split("\n")[0],
            param_types=_param_types(name, func),
            **capabilities,
        )
        return func

    return decorator


def get_selector(name: str, **params: Any) -> Selector:
    """Look up ``name`` and bind ``params``, validating both."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown selector {name!r}; available: {selector_names()}"
        )
    return Selector(_REGISTRY[name], params)


def bind_selector(
    context: SelectionContext,
    name: str,
    params: Mapping[str, Any] | None = None,
    trial: int = 0,
    budget: float | None = None,
) -> Selector:
    """Bind ``name`` to its effective parameters for one (trial, budget) cell.

    The one binding rule of the experiment runner, ``repro prefix`` and
    ``repro serve``'s ``/select``, consuming two capability flags:

    * a ``budget`` workload is rejected with a
      :class:`~repro.utils.validation.ConfigError` unless the selector
      ``supports_budget``, and is bound unless ``params`` pin a budget
      (the pinned one wins);
    * a ``stochastic`` selector without a pinned ``seed`` gets
      ``context.derive_seed(name, trial)``.

    The bound parameters are what a run stamps into
    ``SeedSelection.params`` and what keys a stored selection prefix,
    so equal inputs here mean byte-equal answers everywhere.
    """
    selector = get_selector(name, **dict(params or {}))
    if budget is not None:
        require_config(
            selector.spec.supports_budget,
            f"selector {name!r} does not support budget workloads "
            "(supports_budget=False); budget-aware selectors: "
            f"{_budget_selector_names()}",
        )
        if "budget" not in selector.params:
            selector = selector.with_params(budget=budget)
    if selector.spec.stochastic and "seed" not in selector.params:
        selector = selector.with_params(seed=context.derive_seed(name, trial))
    return selector


def _budget_selector_names() -> list[str]:
    """Registry names of the budget-aware selectors (for error messages)."""
    return [spec.name for spec in list_selectors() if spec.supports_budget]


def list_selectors(family: str | None = None) -> list[SelectorSpec]:
    """All registered specs (optionally one family), sorted by name."""
    if family is not None:
        require(
            family in FAMILIES,
            f"family must be one of {FAMILIES}, got {family!r}",
        )
    return sorted(
        (
            spec
            for spec in _REGISTRY.values()
            if family is None or spec.family == family
        ),
        key=lambda spec: spec.name,
    )


def selector_names() -> list[str]:
    """Sorted registry names."""
    return sorted(_REGISTRY)
