"""repro — a reproduction of "A Data-Based Approach to Social Influence
Maximization" (Goyal, Bonchi, Lakshmanan; PVLDB 5(1), VLDB 2011).

The package implements the paper's credit distribution (CD) model and
every substrate its evaluation depends on:

* :mod:`repro.graphs` — directed social graphs, generators, clustering,
  PageRank;
* :mod:`repro.data` — the action-log relation, propagation DAGs,
  train/test splitting, synthetic Flixster/Flickr-like datasets;
* :mod:`repro.diffusion` — the IC and LT propagation models with Monte
  Carlo spread estimation and possible-world semantics;
* :mod:`repro.probabilities` — UN/TV/WC assignments, Saito-EM learning,
  LT weight learning, perturbation;
* :mod:`repro.maximization` — greedy, CELF, High-Degree/PageRank
  baselines and the PMIA/LDAG heuristics;
* :mod:`repro.core` — the CD model: direct credits (Eq. 9), the
  Algorithm-2 scan, exact ``sigma_cd`` evaluation, the CELF-based
  maximizer built on Theorem 3, and the campaign-planning extensions
  (seed minimization, budgeted selection, topic conditioning,
  streaming maintenance, influence analytics);
* :mod:`repro.evaluation` — drivers and metrics for every table and
  figure in the paper's evaluation section;
* :mod:`repro.api` — the canonical programmatic surface: the selector
  registry (every algorithm above behind one name and calling
  convention), the unified :class:`SeedSelection` result model, and the
  declarative experiment runner;
* :mod:`repro.kernels` — NumPy-vectorized compute backends for the
  scan/EM/Monte-Carlo hot paths (``backend="python"|"numpy"``);
* :mod:`repro.runtime` — the stage pipeline both experiment protocols
  (seed selection and spread prediction) compile into, with a pluggable
  parallel executor seam (``executor="serial"|"thread"|"process"``)
  whose results are bit-identical across executors;
* :mod:`repro.store` — the persistent artifact store and warm-start
  query service: learned artifacts are saved once
  (``ExperimentConfig(store=...)`` or ``repro learn --store``) and
  reused by later runs (byte-identical, learning skipped) and by the
  ``repro serve`` HTTP endpoint, which answers ``select``/``spread``/
  ``predict`` queries without touching the raw action log.

Quickstart
----------
The registry + experiment runner is the front door; every selection
algorithm in the library is one ``get_selector`` name away, and a whole
comparative experiment is one JSON-representable config:

>>> from repro.api import ExperimentConfig, run_experiment
>>> config = ExperimentConfig(
...     dataset="flixster", scale="mini",
...     selectors=["cd", "pmia", "high_degree"], ks=[1, 3, 5])
>>> result = run_experiment(config)
>>> [len(result.selections(label)[0].seeds) for label in result.labels()]
[5, 5, 5]

For a single algorithm, bind it from the registry and run it against a
:class:`~repro.api.context.SelectionContext`:

>>> from repro.api import SelectionContext, get_selector, list_selectors
>>> from repro import toy_example
>>> toy = toy_example()
>>> context = SelectionContext(toy.graph, toy.log)
>>> selection = get_selector("cd").select(context, k=2)
>>> selection.seeds
['v', 's']
>>> len(list_selectors()) >= 12
True

The underlying algorithm functions (``cd_maximize``, ``celf_maximize``,
``ris_maximize``, ...) remain public for callers that want direct
control; see ``docs/API.md`` for the full registry surface.
"""

from repro.api import (
    ExperimentConfig,
    ExperimentResult,
    SeedSelection,
    SelectionContext,
    Selector,
    SelectorConfig,
    SelectorSpec,
    get_selector,
    list_selectors,
    register_selector,
    run_experiment,
    selector_names,
)
from repro.core.budget import BudgetResult, cd_budget_maximize
from repro.core.coverage import CoverageResult, cd_cover
from repro.core.credit import DirectCredit, TimeDecayCredit, UniformCredit
from repro.core.index import CreditIndex, SeedCredits
from repro.core.maximize import cd_maximize, marginal_gain
from repro.core.params import InfluenceabilityParams, learn_influenceability
from repro.core.queries import (
    InfluenceBreakdown,
    explain_spread,
    influence_vector,
    kappa,
    most_influential,
    top_influencers,
)
from repro.core.scan import scan_action_log
from repro.core.spread import CDSpreadEvaluator, sigma_cd
from repro.core.streaming import StreamingCreditIndex
from repro.core.topics import (
    partition_actions,
    scan_topics,
    topic_seed_sets,
    topic_specialization,
    topic_top_influencers,
)
from repro.core.variants import (
    LinearDecayCredit,
    PairWeightedCredit,
    PowerDecayCredit,
)
from repro.data.actionlog import ActionLog
from repro.data.datasets import (
    Dataset,
    DatasetStats,
    flickr_like,
    flixster_like,
    toy_example,
)
from repro.data.generator import CascadeModel, generate_action_log
from repro.data.propagation import PropagationGraph
from repro.data.split import train_test_split
from repro.diffusion.ctic import (
    estimate_spread_ctic,
    exponential_delays,
    lognormal_delays,
    simulate_ctic,
)
from repro.diffusion.ic import estimate_spread_ic, simulate_ic
from repro.diffusion.lt import estimate_spread_lt, simulate_lt
from repro.graphs.digraph import SocialGraph
from repro.graphs.metrics import GraphSummary, summarize_graph
from repro.maximization.celf import celf_maximize
from repro.maximization.celfpp import celfpp_maximize
from repro.maximization.degree_discount import (
    degree_discount_ic_seeds,
    single_discount_seeds,
)
from repro.maximization.greedy import GreedyResult, greedy_maximize
from repro.maximization.heuristics import high_degree_seeds, pagerank_seeds
from repro.maximization.irie import irie_seeds
from repro.maximization.ldag import LDAGModel
from repro.maximization.oracle import ICSpreadOracle, LTSpreadOracle
from repro.maximization.pmia import PMIAModel
from repro.maximization.ris import RISResult, ris_maximize
from repro.maximization.simpath import (
    SimPathOracle,
    simpath_maximize,
    simpath_spread,
)
from repro.probabilities.em import learn_ic_probabilities_em
from repro.probabilities.goyal import learn_static_probabilities
from repro.probabilities.lt_weights import learn_lt_weights
from repro.probabilities.perturb import perturb_probabilities
from repro.probabilities.static import (
    trivalency_probabilities,
    uniform_probabilities,
    weighted_cascade_probabilities,
)
from repro.store import ArtifactStore

__version__ = "1.11.0"

__all__ = [
    # api (the canonical surface)
    "SelectorSpec",
    "Selector",
    "register_selector",
    "get_selector",
    "list_selectors",
    "selector_names",
    "SelectionContext",
    "SeedSelection",
    "SelectorConfig",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    # store
    "ArtifactStore",
    # graphs
    "SocialGraph",
    "GraphSummary",
    "summarize_graph",
    # data
    "ActionLog",
    "PropagationGraph",
    "train_test_split",
    "CascadeModel",
    "generate_action_log",
    "Dataset",
    "DatasetStats",
    "flixster_like",
    "flickr_like",
    "toy_example",
    # diffusion
    "simulate_ic",
    "estimate_spread_ic",
    "simulate_lt",
    "estimate_spread_lt",
    "simulate_ctic",
    "estimate_spread_ctic",
    "exponential_delays",
    "lognormal_delays",
    # probabilities
    "uniform_probabilities",
    "trivalency_probabilities",
    "weighted_cascade_probabilities",
    "learn_ic_probabilities_em",
    "learn_lt_weights",
    "learn_static_probabilities",
    "perturb_probabilities",
    # maximization
    "GreedyResult",
    "greedy_maximize",
    "celf_maximize",
    "celfpp_maximize",
    "single_discount_seeds",
    "degree_discount_ic_seeds",
    "high_degree_seeds",
    "irie_seeds",
    "pagerank_seeds",
    "ICSpreadOracle",
    "LTSpreadOracle",
    "PMIAModel",
    "LDAGModel",
    "RISResult",
    "ris_maximize",
    "SimPathOracle",
    "simpath_maximize",
    "simpath_spread",
    # core (the CD model)
    "DirectCredit",
    "UniformCredit",
    "TimeDecayCredit",
    "LinearDecayCredit",
    "PowerDecayCredit",
    "PairWeightedCredit",
    "InfluenceabilityParams",
    "learn_influenceability",
    "CreditIndex",
    "SeedCredits",
    "scan_action_log",
    "sigma_cd",
    "CDSpreadEvaluator",
    "cd_maximize",
    "marginal_gain",
    "CoverageResult",
    "cd_cover",
    "BudgetResult",
    "cd_budget_maximize",
    "partition_actions",
    "scan_topics",
    "topic_seed_sets",
    "topic_top_influencers",
    "topic_specialization",
    "StreamingCreditIndex",
    "kappa",
    "influence_vector",
    "top_influencers",
    "most_influential",
    "InfluenceBreakdown",
    "explain_spread",
    "__version__",
]
