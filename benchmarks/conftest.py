"""Shared fixtures for the benchmark suite.

Every bench reproduces one table or figure of the paper and prints the
regenerated rows/series (next to the paper's reported values where
applicable) through the ``report`` fixture, which bypasses pytest's
output capture.  Datasets and learned artifacts are session-scoped so
the whole suite builds each of them once.

Scale note: the synthetic datasets are 10-100x smaller
than the paper's crawls and Monte Carlo simulation counts are reduced
from 10,000 accordingly; all comparisons are relative, so the shapes —
who wins, by what order of magnitude, where curves saturate — are the
reproduction targets, not absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.api import ExperimentConfig, SelectionContext, run_experiment
from repro.data.datasets import flickr_like, flixster_like
from repro.data.split import train_test_split
from repro.obs import Trace

# Monte Carlo simulations per spread estimate (the paper uses 10,000 on
# a C++ implementation; pure Python requires a smaller constant).
NUM_SIMULATIONS = 60
# Seed-set size for the selection experiments (paper: 50).
K_SELECT = 25
# Test traces evaluated per prediction experiment.
MAX_TEST_TRACES = 50


@dataclass
class CDPoint:
    """One point of a Figure 8-9 or Table 4 sweep: a traced ``cd`` run.

    ``scan_seconds`` is the run's ``credit_index`` build span, which
    covers whatever the scan built first (the influence parameters and,
    on numpy, the compiled log); ``select_seconds`` is its
    ``maximize.cd`` span.  ``spread`` is the run's CD-proxy spread at
    ``k`` when evaluated, and ``true_seed_overlap`` is set by the sweep
    that knows its true seeds.
    """

    num_tuples: int
    seeds: list
    scan_seconds: float
    select_seconds: float
    index_entries: int
    memory_bytes: int
    spread: float | None = None
    true_seed_overlap: int = 0

    @property
    def total_seconds(self) -> float:
        return self.scan_seconds + self.select_seconds


def run_cd_point(
    context: SelectionContext, k: int, evaluate_spread: bool = False
) -> CDPoint:
    """Select ``k`` seeds with ``cd`` over ``context`` through run_experiment.

    The run is traced, and its durations are read off the span tree.
    """
    config = ExperimentConfig(
        selectors=["cd"], ks=[k], evaluate_spread=evaluate_spread
    )
    with Trace().activate() as trace:
        result = run_experiment(config, context=context)

    def seconds(name: str, **attrs) -> float:
        return sum(
            recorded.duration_s
            for recorded in trace.spans
            if recorded.name == name
            and all(recorded.attrs.get(key) == value
                    for key, value in attrs.items())
        )

    index = context.credit_index()
    run = result.runs[0]
    return CDPoint(
        num_tuples=context.train_log.num_tuples,
        seeds=list(run.selection.seeds),
        scan_seconds=seconds("context.build", artifact="credit_index"),
        select_seconds=seconds("maximize.cd"),
        index_entries=index.total_entries,
        memory_bytes=index.nbytes,
        spread=run.final_spread(),
    )


def tuple_sweep(dataset, fractions, k: int):
    """Figures 8-9: one ``cd`` point per training-tuple budget.

    A budget of ``int(total * fraction)`` tuples samples whole traces
    with ``ActionLog.head_tuples``; the full budget is the log itself.
    Returns the points and the last point's context.
    """
    log = dataset.log
    points = []
    for fraction in fractions:
        count = int(log.num_tuples * fraction)
        sublog = log if count >= log.num_tuples else log.head_tuples(count)
        context = SelectionContext(dataset.graph, sublog)
        points.append(run_cd_point(context, k))
    return points, context


@pytest.fixture()
def report(capsys):
    """Print a reproduction table to the real terminal (uncaptured)."""

    def _report(text: str) -> None:
        with capsys.disabled():
            print("\n" + text + "\n")

    return _report


@pytest.fixture(scope="session")
def flixster_small():
    return flixster_like("small")


@pytest.fixture(scope="session")
def flickr_small():
    return flickr_like("small")


@pytest.fixture(scope="session")
def flixster_large():
    return flixster_like("large")


@pytest.fixture(scope="session")
def flickr_large():
    return flickr_like("large")


@pytest.fixture(scope="session")
def flixster_split(flixster_small):
    return train_test_split(flixster_small.log)


@pytest.fixture(scope="session")
def flickr_split(flickr_small):
    return train_test_split(flickr_small.log)


@pytest.fixture(scope="session")
def flixster_context(flixster_small, flixster_split):
    """Learned artifacts over the flixster training fold, shared by the
    benches; seeds come from ``method_selector(m).select(context, k)``."""
    train, _ = flixster_split
    return SelectionContext(
        flixster_small.graph, train, num_simulations=NUM_SIMULATIONS
    )


@pytest.fixture(scope="session")
def flickr_context(flickr_small, flickr_split):
    train, _ = flickr_split
    return SelectionContext(
        flickr_small.graph, train, num_simulations=NUM_SIMULATIONS
    )
