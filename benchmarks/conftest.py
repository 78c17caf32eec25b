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

import pytest

from repro.api import SelectionContext
from repro.data.datasets import flickr_like, flixster_like
from repro.data.split import train_test_split

# Monte Carlo simulations per spread estimate (the paper uses 10,000 on
# a C++ implementation; pure Python requires a smaller constant).
NUM_SIMULATIONS = 60
# Seed-set size for the selection experiments (paper: 50).
K_SELECT = 25
# Test traces evaluated per prediction experiment.
MAX_TEST_TRACES = 50


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
