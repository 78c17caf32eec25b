"""Influence-maximization algorithms.

This subpackage hosts everything that *selects seed sets*:

* :mod:`~repro.maximization.oracle` — the ``SpreadOracle`` abstraction
  (a thing that maps a seed set to an expected-spread number) plus the
  Monte-Carlo-backed IC/LT oracles of the standard approach;
* :mod:`~repro.maximization.greedy` — Algorithm 1 of the paper, the
  plain (1 - 1/e) greedy;
* :mod:`~repro.maximization.celf` — the CELF lazy-forward optimisation
  (Leskovec et al., KDD 2007);
* :mod:`~repro.maximization.heuristics` — High-Degree and PageRank seed
  selection (the structural baselines of Figure 6);
* :mod:`~repro.maximization.pmia` — the PMIA heuristic for IC (Chen et
  al., KDD 2010), which the paper uses where MC greedy is too slow;
* :mod:`~repro.maximization.ldag` — the LDAG heuristic for LT (Chen et
  al., ICDM 2010).

The credit-distribution maximizer lives with the CD model in
:mod:`repro.core.maximize`, but it conforms to the same result type.

Every algorithm here is also registered in the :mod:`repro.api`
selector registry (``get_selector("celf")``, ``get_selector("ris")``,
...), which is the preferred way to run them inside experiments; the
functions below remain the primitive, directly callable layer.
"""

from repro.maximization.celf import celf_maximize
from repro.maximization.celfpp import celfpp_maximize
from repro.maximization.degree_discount import (
    degree_discount_ic_seeds,
    single_discount_seeds,
)
from repro.maximization.greedy import GreedyResult, greedy_maximize
from repro.maximization.heuristics import high_degree_seeds, pagerank_seeds
from repro.maximization.irie import (
    irie_activation_probabilities,
    irie_ranks,
    irie_seeds,
)
from repro.maximization.ldag import LDAGModel
from repro.maximization.ris import RISResult, ris_maximize
from repro.maximization.simpath import (
    SimPathOracle,
    simpath_maximize,
    simpath_spread,
)
from repro.maximization.oracle import (
    CountingOracle,
    ICSpreadOracle,
    LTSpreadOracle,
    SpreadOracle,
)
from repro.maximization.pmia import PMIAModel

__all__ = [
    "SpreadOracle",
    "ICSpreadOracle",
    "LTSpreadOracle",
    "CountingOracle",
    "GreedyResult",
    "greedy_maximize",
    "celf_maximize",
    "celfpp_maximize",
    "single_discount_seeds",
    "degree_discount_ic_seeds",
    "irie_ranks",
    "irie_activation_probabilities",
    "irie_seeds",
    "RISResult",
    "ris_maximize",
    "SimPathOracle",
    "simpath_maximize",
    "simpath_spread",
    "high_degree_seeds",
    "pagerank_seeds",
    "PMIAModel",
    "LDAGModel",
]
