"""Spread oracles: the interface between models and seed-selection code.

A *spread oracle* answers one question — "what is the expected spread of
this seed set?" — hiding whether the answer comes from Monte Carlo
simulation (IC/LT), a heuristic approximation (PMIA/LDAG) or the credit
distribution model's closed form.  Greedy and CELF are written against
this protocol, exactly mirroring the paper's framing in which the greedy
skeleton is shared and only ``sigma_m`` changes.

The Monte-Carlo oracles are thin wrappers over
:class:`~repro.runtime.estimator.SpreadEstimator`: every seed set is
scored on the same counter-keyed possible worlds, so ``spread(S)`` is a
pure function of the set (not of how it is listed), identical on every
backend and executor, and monotone and submodular in ``S`` — the
property CELF's lazy comparisons rely on.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Protocol

from repro.graphs.digraph import SocialGraph
from repro.runtime.estimator import SpreadEstimator

__all__ = ["SpreadOracle", "ICSpreadOracle", "LTSpreadOracle", "CountingOracle"]

User = Hashable
Edge = tuple[User, User]


class SpreadOracle(Protocol):
    """Anything that can evaluate the expected spread of a seed set."""

    def spread(self, seeds: Iterable[User]) -> float:
        """Return the expected influence spread of ``seeds``."""
        ...

    def candidates(self) -> list[User]:
        """Return the universe of candidate seed nodes."""
        ...


class _MonteCarloOracle:
    """Shared machinery for the IC and LT Monte Carlo oracles."""

    _model = "ic"

    def __init__(
        self,
        graph: SocialGraph,
        edge_values: Mapping[Edge, float],
        num_simulations: int,
        seed: int,
        backend: str | None = None,
        executor=None,
    ) -> None:
        self._estimator = SpreadEstimator(
            graph,
            edge_values,
            model=self._model,
            num_simulations=num_simulations,
            seed=seed,
            backend=backend,
            executor=executor,
        )

    def prepare(self) -> "_MonteCarloOracle":
        """The pipeline's prefetch hook.

        The engine is already compiled, in the constructing process,
        so process workers receive it ready to run.
        """
        return self

    def candidates(self) -> list[User]:
        """All graph nodes are candidate seeds."""
        return self._estimator.candidates()

    def spread(self, seeds: Iterable[User]) -> float:
        """Expected spread of ``seeds`` by Monte Carlo simulation."""
        return self._estimator.spread(seeds)


class ICSpreadOracle(_MonteCarloOracle):
    """Monte Carlo oracle for ``sigma_IC`` — the standard approach's engine."""

    _model = "ic"

    def __init__(
        self,
        graph: SocialGraph,
        probabilities: Mapping[Edge, float],
        num_simulations: int = 10_000,
        seed: int = 0,
        backend: str | None = None,
        executor=None,
    ) -> None:
        super().__init__(
            graph, probabilities, num_simulations, seed, backend, executor
        )


class LTSpreadOracle(_MonteCarloOracle):
    """Monte Carlo oracle for ``sigma_LT``."""

    _model = "lt"

    def __init__(
        self,
        graph: SocialGraph,
        weights: Mapping[Edge, float],
        num_simulations: int = 10_000,
        seed: int = 0,
        backend: str | None = None,
        executor=None,
    ) -> None:
        super().__init__(
            graph, weights, num_simulations, seed, backend, executor
        )


class CountingOracle:
    """Wrapper that counts ``spread`` calls — used by the CELF ablation.

    CELF's selling point is *fewer oracle evaluations* for the same
    result; this wrapper makes that measurable.
    """

    def __init__(self, inner: SpreadOracle) -> None:
        self._inner = inner
        self.calls = 0

    def spread(self, seeds: Iterable[User]) -> float:
        """Delegate to the wrapped oracle, counting the call."""
        self.calls += 1
        return self._inner.spread(seeds)

    def candidates(self) -> list[User]:
        """Delegate to the wrapped oracle."""
        return self._inner.candidates()
