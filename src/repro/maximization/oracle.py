"""Spread oracles: the interface between models and seed-selection code.

A *spread oracle* answers one question — "what is the expected spread of
this seed set?" — hiding whether the answer comes from Monte Carlo
simulation (IC/LT), a heuristic approximation (PMIA/LDAG) or the credit
distribution model's closed form.  Greedy and CELF are written against
this protocol, exactly mirroring the paper's framing in which the greedy
skeleton is shared and only ``sigma_m`` changes.

The Monte-Carlo IC/LT oracle is
:class:`~repro.runtime.estimator.SpreadEstimator` itself (built and
cached by :meth:`repro.api.SelectionContext.oracle`): every seed set is
scored on the same counter-keyed possible worlds, so ``spread(S)`` is a
pure function of the set (not of how it is listed), identical on every
backend and executor, and monotone and submodular in ``S`` — the
property CELF's lazy comparisons rely on.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Protocol

__all__ = ["SpreadOracle", "CountingOracle"]

User = Hashable


class SpreadOracle(Protocol):
    """Anything that can evaluate the expected spread of a seed set."""

    def spread(self, seeds: Iterable[User]) -> float:
        """Return the expected influence spread of ``seeds``."""
        ...

    def candidates(self) -> list[User]:
        """Return the universe of candidate seed nodes."""
        ...


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
