"""``repro.api`` — the canonical programmatic surface of the library.

Three pieces, layered:

* the **selector registry** (:mod:`~repro.api.registry`) — every
  seed-selection algorithm in the library, registered as a
  :class:`SelectorSpec` with capability flags, looked up by name with
  :func:`get_selector` and enumerated with :func:`list_selectors`;
* the **unified result model** (:mod:`~repro.api.results`) — every
  selector returns one :class:`SeedSelection`, whatever the underlying
  algorithm's native result type;
* the **experiment runner** (:mod:`~repro.api.experiment`) — a
  JSON-representable :class:`ExperimentConfig` plus
  :func:`run_experiment`, which owns the dataset→split→learn→select→
  evaluate pipeline the paper's comparative evaluation repeats.

Quickstart
----------
>>> from repro.api import ExperimentConfig, run_experiment
>>> config = ExperimentConfig(
...     dataset="toy", selectors=["cd", "high_degree"], ks=[1, 2])
>>> result = run_experiment(config)
>>> [len(s.seeds) for s in (result.selections("cd")
...                         + result.selections("high_degree"))]
[2, 2]

New algorithms (or remote backends) join the whole toolchain — CLI,
benchmarks, comparison drivers — with a single
:func:`register_selector` call; see ``docs/API.md``.
"""

from repro.api.context import IC_PROBABILITY_METHODS, SelectionContext
from repro.api.registry import (
    Selector,
    SelectorSpec,
    bind_selector,
    get_selector,
    list_selectors,
    register_selector,
    selector_names,
)
from repro.api.results import SeedSelection
from repro.api import adapters as _adapters  # noqa: F401  (registers built-ins)
from repro.api.experiment import (
    PREDICTION_METHODS,
    TASKS,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    SelectorConfig,
    SelectorRun,
    run_experiment,
)

__all__ = [
    "ConfigError",
    "TASKS",
    "PREDICTION_METHODS",
    "IC_PROBABILITY_METHODS",
    "SelectionContext",
    "SelectorSpec",
    "Selector",
    "register_selector",
    "get_selector",
    "bind_selector",
    "list_selectors",
    "selector_names",
    "SeedSelection",
    "SelectorConfig",
    "ExperimentConfig",
    "SelectorRun",
    "ExperimentResult",
    "run_experiment",
]
