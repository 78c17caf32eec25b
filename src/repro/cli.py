"""Command-line interface for the reproduction.

Gives shell access to the main workflows so the library can be driven
without writing Python:

* ``repro generate`` — synthesise a Flixster/Flickr-like dataset to TSV;
* ``repro stats`` — Table-1 statistics of a dataset on disk;
* ``repro split`` — the 80/20 train/test trace split;
* ``repro maximize`` — influence maximization under any supported method
  (dispatched through the :mod:`repro.api` selector registry);
* ``repro list-selectors`` — the selector registry: every algorithm,
  its family and capability flags;
* ``repro run`` — run a JSON-configured experiment
  (:func:`repro.api.run_experiment`) and print/export the result;
* ``repro predict`` — the Figure-3 spread-prediction experiment;
* ``repro analyze`` — influencer analytics from the credit index
  (leaderboard, per-user top influencers, seed-set explanation);
* ``repro cover`` — seed minimization: the smallest greedy seed set
  reaching a target spread;
* ``repro budget`` — budgeted selection under per-user costs (the CEF
  rule);
* ``repro graphstats`` — structural statistics of the social graph
  (degrees, clustering, cores, components);
* ``repro learn`` — learn edge probabilities / LT weights from a
  training log and persist them as a weighted edge list, and/or save
  the full warm-start artifact bundle into an artifact store
  (``--store``);
* ``repro store`` — inspect (``ls``, with per-context lineage depth)
  and garbage-collect (``gc``) an artifact store directory; ``gc``
  never expires a bundle that a live delta-derived bundle still
  references;
* ``repro ingest`` — fold an action-log delta file into a stored
  bundle (:mod:`repro.stream`): incremental artifact maintenance, a
  new lineage-linked bundle under the union dataset's fingerprint
  (recorded selection prefixes are refreshed onto the derived bundle);
* ``repro prefix`` — precompute selection-prefix artifacts
  (:mod:`repro.store.prefix`) for a stored context, so a warm
  ``/select`` at any ``k <= k_max`` is a lookup instead of a greedy
  sweep;
* ``repro serve`` — the warm-start HTTP query service: answer
  ``select``/``spread``/``predict`` requests from stored artifacts
  without touching the raw action log (and ``/ingest`` deltas with a
  zero-downtime context swap); concurrent Monte-Carlo queries coalesce
  into shared engine passes behind a bounded queue (503 on overload).

Every subcommand reads/writes the TSV formats of :mod:`repro.data.io`;
the store subcommands use the :mod:`repro.store` layout.  Run
``python -m repro.cli <command> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.api import (
    ExperimentConfig,
    SelectionContext,
    get_selector,
    list_selectors,
    run_experiment,
)
from repro.data.datasets import Dataset, flickr_like, flixster_like
from repro.data.io import (
    load_action_log,
    load_graph,
    save_action_log,
    save_graph,
)
from repro.data.split import train_test_split
from repro.evaluation.reporting import format_table
from repro.evaluation.selection import method_selector

__all__ = ["main", "build_parser"]

_DATASET_MAKERS = {"flixster": flixster_like, "flickr": flickr_like}
_METHODS = [
    "CD", "IC", "LT", "EM", "PT", "UN", "TV", "WC", "HighDegree", "PageRank",
]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Data-Based Approach to Social Influence "
            "Maximization' (VLDB 2011)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="synthesise a dataset and write it as TSV"
    )
    generate.add_argument("--dataset", choices=sorted(_DATASET_MAKERS),
                          default="flixster")
    generate.add_argument("--scale", choices=["mini", "small", "large"],
                          default="small")
    generate.add_argument("--seed", type=int, default=None,
                          help="override the preset RNG seed")
    generate.add_argument("--graph", required=True, help="output graph TSV")
    generate.add_argument("--log", required=True, help="output action-log TSV")

    stats = commands.add_parser("stats", help="Table-1 statistics of a dataset")
    stats.add_argument("--graph", required=True)
    stats.add_argument("--log", required=True)

    split = commands.add_parser(
        "split", help="80/20 train/test split by size-ranked traces"
    )
    split.add_argument("--log", required=True)
    split.add_argument("--train", required=True, help="output training-log TSV")
    split.add_argument("--test", required=True, help="output test-log TSV")
    split.add_argument("--every", type=int, default=5)

    maximize = commands.add_parser(
        "maximize", help="select seeds by influence maximization"
    )
    maximize.add_argument("--graph", required=True)
    maximize.add_argument("--log", required=True)
    maximize.add_argument("--method", choices=_METHODS, default="CD")
    maximize.add_argument("-k", type=int, default=10)
    maximize.add_argument("--truncation", type=float, default=0.001)
    maximize.add_argument("--simulations", type=int, default=100,
                          help="MC simulations for celf backends")
    maximize.add_argument(
        "--ic-algorithm", choices=["pmia", "celf"], default="pmia"
    )
    maximize.add_argument(
        "--lt-algorithm", choices=["ldag", "celf"], default="ldag"
    )

    list_cmd = commands.add_parser(
        "list-selectors",
        help="list every registered seed-selection algorithm",
    )
    list_cmd.add_argument(
        "--family", choices=["cd", "mc", "sketch", "heuristic"], default=None
    )

    run = commands.add_parser(
        "run", help="run a JSON-configured experiment (repro.api)"
    )
    run.add_argument("--config", required=True, help="experiment config JSON")
    run.add_argument("--out", default=None,
                     help="also write the full result as JSON")
    run.add_argument(
        "--executor", choices=["auto", "serial", "thread", "process"],
        default=None,
        help="override the config's executor (results are identical; "
        "only wall time changes)",
    )
    run.add_argument("--max-workers", type=int, default=None,
                     help="override the config's worker count")

    predict = commands.add_parser(
        "predict", help="spread-prediction experiment (Figure-3 protocol)"
    )
    predict.add_argument("--graph", required=True)
    predict.add_argument("--log", required=True)
    predict.add_argument("--max-traces", type=int, default=50)
    predict.add_argument("--simulations", type=int, default=200,
                         help="MC simulations per spread prediction")
    predict.add_argument(
        "--executor", choices=["auto", "serial", "thread", "process"],
        default="auto",
    )

    analyze = commands.add_parser(
        "analyze", help="influencer analytics from the credit index"
    )
    analyze.add_argument("--graph", required=True)
    analyze.add_argument("--log", required=True)
    analyze.add_argument("--truncation", type=float, default=0.001)
    analyze.add_argument("--top", type=int, default=10,
                         help="leaderboard size")
    analyze.add_argument("--user", default=None,
                         help="also report who influences this user")
    analyze.add_argument("-k", type=int, default=0,
                         help="if > 0, select k seeds and explain them")

    cover = commands.add_parser(
        "cover", help="smallest greedy seed set reaching a target spread"
    )
    cover.add_argument("--graph", required=True)
    cover.add_argument("--log", required=True)
    cover.add_argument("--truncation", type=float, default=0.001)
    group = cover.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", type=float,
                       help="absolute sigma_cd target")
    group.add_argument(
        "--target-fraction", type=float,
        help="target as a fraction of the achievable ceiling (0..1]",
    )
    cover.add_argument("--max-seeds", type=int, default=None)

    budget = commands.add_parser(
        "budget", help="budgeted seed selection (CEF rule) under user costs"
    )
    budget.add_argument("--graph", required=True)
    budget.add_argument("--log", required=True)
    budget.add_argument("--truncation", type=float, default=0.001)
    budget.add_argument("--budget", type=float, required=True)
    budget.add_argument(
        "--cost-scale", type=float, default=0.0,
        help="cost(u) = 1 + activity(u) / SCALE; 0 means unit costs",
    )

    graphstats = commands.add_parser(
        "graphstats", help="structural statistics of the social graph"
    )
    graphstats.add_argument("--graph", required=True)

    learn = commands.add_parser(
        "learn", help="learn edge probabilities / weights from a log"
    )
    learn.add_argument("--graph", required=True)
    learn.add_argument("--log", required=True)
    learn.add_argument(
        "--model",
        choices=["em", "bernoulli", "jaccard", "partial-credits", "lt"],
        default="em",
        help="em/bernoulli/jaccard/partial-credits give IC probabilities; "
        "lt gives Linear Threshold weights (the --out TSV path)",
    )
    learn.add_argument("--out", default=None, help="output edge-value TSV")
    learn.add_argument(
        "--store", default=None, metavar="DIR",
        help="also learn and persist the full warm-start artifact bundle "
        "(credit index, sigma_cd evaluator, EM probabilities, LT weights, "
        "influenceability) into this artifact store — what `repro serve` "
        "answers queries from",
    )
    learn.add_argument("--probability-method",
                       choices=["UN", "TV", "WC", "EM", "PT"], default="EM",
                       help="IC assignment stored for --store bundles")
    learn.add_argument("--truncation", type=float, default=0.001)
    learn.add_argument("--seed", type=int, default=7)
    learn.add_argument("--credit-scheme",
                       choices=["timedecay", "uniform"], default="timedecay")
    learn.add_argument("--simulations", type=int, default=100,
                       help="MC simulations recorded for serve-side oracles")

    store = commands.add_parser(
        "store", help="inspect or garbage-collect an artifact store"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_ls = store_commands.add_parser(
        "ls", help="list the store's contexts and artifacts"
    )
    store_ls.add_argument("--store", required=True, metavar="DIR")
    store_gc = store_commands.add_parser(
        "gc", help="remove broken entries (and optionally expire by age)"
    )
    store_gc.add_argument("--store", required=True, metavar="DIR")
    store_gc.add_argument(
        "--older-than", type=float, default=None, metavar="DAYS",
        help="also expire healthy entries older than this many days",
    )
    store_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be removed, remove nothing")
    store_verify = store_commands.add_parser(
        "verify",
        help="audit every entry and record reference; non-zero exit on "
        "torn/corrupt/orphaned state",
    )
    store_verify.add_argument("--store", required=True, metavar="DIR")
    store_verify.add_argument(
        "--deep", action="store_true",
        help="also unpickle every payload (catches checksum-clean "
        "entries that no longer decode)",
    )

    ingest = commands.add_parser(
        "ingest", help="fold an action-log delta into a stored bundle"
    )
    ingest.add_argument("--store", required=True, metavar="DIR")
    ingest.add_argument("--delta", required=True, metavar="FILE",
                        help="action-log delta TSV (see repro.stream.delta)")
    ingest.add_argument(
        "--context", default=None, metavar="KEY",
        help="base context key or unique prefix "
        "(default: the store's only context)",
    )
    ingest.add_argument("--dataset-name", default=None,
                        help="dataset label recorded on the derived bundle")
    ingest.add_argument(
        "--verify", action="store_true",
        help="re-learn over the union log and assert every incrementally "
        "updated artifact is byte-identical to the rescan",
    )

    prefix = commands.add_parser(
        "prefix",
        help="precompute selection-prefix artifacts for a stored context",
    )
    prefix.add_argument("--store", required=True, metavar="DIR")
    prefix.add_argument(
        "--selector", action="append", required=True, metavar="NAME",
        help="prefixable selector to precompute (repeatable): "
        "cd, celf, greedy, hop, ris",
    )
    prefix.add_argument("--k-max", type=int, required=True,
                        help="selections to record (serves any k <= k_max)")
    prefix.add_argument(
        "--context", default=None, metavar="KEY",
        help="context key or unique prefix (default: the store's only one)",
    )
    prefix.add_argument(
        "--params", default=None, metavar="JSON",
        help="selector parameters as a JSON object (applied to every "
        "--selector)",
    )
    prefix.add_argument("--trial", type=int, default=0,
                        help="trial index for derived-seed injection")

    serve = commands.add_parser(
        "serve", help="answer select/spread/predict queries from a store"
    )
    serve.add_argument("--store", required=True, metavar="DIR")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8734)
    serve.add_argument("--cache", type=int, default=4,
                       help="LRU capacity for loaded contexts")
    serve.add_argument(
        "--queue-depth", type=int, default=64,
        help="bounded depth of the spread/predict coalescing queue "
        "(full queue -> HTTP 503)",
    )
    serve.add_argument(
        "--ingest-timeout", type=float, default=600.0,
        help="seconds a wait=true /ingest blocks before returning the "
        "still-running job (0 or less = unbounded)",
    )
    serve.add_argument(
        "--access-log", action="store_true",
        help="log one line per request (client, route, status, latency, "
        "request id) on the repro.serve logger",
    )

    trace = commands.add_parser(
        "trace",
        help="run a JSON-configured experiment under tracing and export "
        "the span tree as JSON (repro.obs)",
    )
    trace.add_argument("--config", required=True,
                       help="experiment config JSON (as `repro run`)")
    trace.add_argument("--out", default=None,
                       help="write the trace export here (default: stdout)")
    trace.add_argument(
        "--store", default=None, metavar="DIR",
        help="override the config's artifact store root",
    )
    trace.add_argument(
        "--trace-id", default=None,
        help="explicit trace id (span ids derive from it, so a fixed id "
        "makes the whole export reproducible)",
    )
    trace.add_argument(
        "--executor", choices=["auto", "serial", "thread", "process"],
        default=None, help="override the config's executor",
    )

    soak = commands.add_parser(
        "soak",
        help="chaos-soak a serving store: live traffic + injected faults, "
        "then a deep integrity audit",
    )
    soak.add_argument(
        "--store", default=None, metavar="DIR",
        help="serving store to soak (default: build a temporary one)",
    )
    soak.add_argument("--duration", type=float, default=30.0,
                      help="seconds of sustained traffic")
    soak.add_argument("--workers", type=int, default=4,
                      help="concurrent client threads")
    soak.add_argument("--seed", type=int, default=11,
                      help="seed for the fault plan, traffic mix and jitter")
    soak.add_argument(
        "--plan", default=None, metavar="SPEC",
        help="fault plan (repro.faults.plan syntax; default: the "
        "standard chaos mix)",
    )
    soak.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the markdown stress report here",
    )
    soak.add_argument(
        "--json", dest="json_out", default=None, metavar="FILE",
        help="write the raw report dict as JSON",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "stats": _cmd_stats,
        "split": _cmd_split,
        "maximize": _cmd_maximize,
        "list-selectors": _cmd_list_selectors,
        "run": _cmd_run,
        "predict": _cmd_predict,
        "analyze": _cmd_analyze,
        "cover": _cmd_cover,
        "budget": _cmd_budget,
        "graphstats": _cmd_graphstats,
        "learn": _cmd_learn,
        "store": _cmd_store,
        "ingest": _cmd_ingest,
        "prefix": _cmd_prefix,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
        "soak": _cmd_soak,
    }[args.command]
    return handler(args)


def _cmd_generate(args: argparse.Namespace) -> int:
    maker = _DATASET_MAKERS[args.dataset]
    dataset = maker(args.scale) if args.seed is None else maker(
        args.scale, seed=args.seed
    )
    save_graph(dataset.graph, args.graph)
    save_action_log(dataset.log, args.log)
    stats = dataset.stats()
    print(
        f"wrote {dataset.name}: {stats.num_nodes} nodes, "
        f"{stats.num_edges} edges -> {args.graph}; "
        f"{stats.num_propagations} propagations, "
        f"{stats.num_tuples} tuples -> {args.log}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    log = load_action_log(args.log)
    rows = [
        ["#nodes", graph.num_nodes],
        ["#edges", graph.num_edges],
        ["avg degree", f"{graph.average_degree():.1f}"],
        ["#propagations", log.num_actions],
        ["#tuples", log.num_tuples],
        ["#active users", log.num_users],
    ]
    print(format_table(["statistic", "value"], rows))
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    log = load_action_log(args.log)
    train, test = train_test_split(log, every=args.every)
    save_action_log(train, args.train)
    save_action_log(test, args.test)
    print(
        f"train: {train.num_actions} traces / {train.num_tuples} tuples; "
        f"test: {test.num_actions} traces / {test.num_tuples} tuples"
    )
    return 0


def _cmd_maximize(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    log = load_action_log(args.log)
    context = SelectionContext(
        graph,
        log,
        num_simulations=args.simulations,
        truncation=args.truncation,
    )
    selector = method_selector(
        args.method,
        ic_algorithm=args.ic_algorithm,
        lt_algorithm=args.lt_algorithm,
    )
    selection = selector.select(context, args.k)
    print(format_table(
        ["rank", "seed", "activity"],
        [[rank, seed, log.activity(seed)]
         for rank, seed in enumerate(selection.seeds, start=1)],
        title=f"{args.method} seeds (k={args.k})",
    ))
    return 0


def _cmd_list_selectors(args: argparse.Namespace) -> int:
    rows = []
    for spec in list_selectors(family=args.family):
        capabilities = spec.capabilities()
        # The needs_* flags are what Selector.reads turns into the
        # artifact slots a bound selector reads (`repro store ls` lists
        # what a store holds); the rest are behavioral:
        # supports_budget / supports_time_log / stochastic.
        needs = [
            name.removeprefix("needs_")
            for name, on in capabilities.items()
            if on and name.startswith("needs_")
        ]
        flags = [
            name.removeprefix("supports_")
            for name, on in capabilities.items()
            if on and not name.startswith("needs_")
        ]
        rows.append(
            [
                spec.name,
                spec.family,
                ", ".join(needs) or "-",
                ", ".join(flags) or "-",
                spec.description,
            ]
        )
    print(format_table(
        ["selector", "family", "needs", "flags", "description"],
        rows,
        title=f"registered selectors ({len(rows)})",
    ))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = ExperimentConfig.from_json_file(args.config)
        if args.executor is not None:
            config.executor = args.executor
        if args.max_workers is not None:
            config.max_workers = args.max_workers
    except (OSError, TypeError, ValueError) as error:
        print(f"bad experiment config: {error}", file=sys.stderr)
        return 2
    result = run_experiment(config)
    print(result.render())
    stage_summary = ", ".join(
        f"{name} {seconds:.2f}s" for name, seconds in result.timings.items()
    )
    print(f"\nstage timings: {stage_summary}")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(result.to_json(indent=2))
        print(f"wrote full result -> {args.out}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    log = load_action_log(args.log)
    # Route through the unified runtime: the same stage pipeline (and
    # executor seam) that `repro run --config` drives, with the on-disk
    # dataset passed in directly.
    dataset = Dataset(name=args.graph, graph=graph, log=log)
    config = ExperimentConfig(
        task="prediction",
        methods=["IC", "LT", "CD"],
        num_simulations=args.simulations,
        max_test_traces=args.max_traces,
        executor=args.executor,
    )
    result = run_experiment(config, dataset=dataset)
    print(result.render())
    return 0


def _uniform_context(args: argparse.Namespace) -> SelectionContext:
    """The analytics commands' context: plain ``1/d_in`` credits.

    No learned decay, so leaderboards, covers and budgets read as raw
    credit mass.
    """
    return SelectionContext(
        load_graph(args.graph),
        load_action_log(args.log),
        truncation=args.truncation,
        credit_scheme="uniform",
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.queries import (
        explain_spread,
        most_influential,
        top_influencers,
    )

    context = _uniform_context(args)
    index = context.credit_index()
    print(format_table(
        ["rank", "user", "total credit"],
        [[rank, user, f"{score:.2f}"]
         for rank, (user, score) in enumerate(
             most_influential(index, limit=args.top), start=1)],
        title=f"influencer leaderboard (top {args.top})",
    ))
    if args.user is not None:
        # Node ids round-trip through TSV as strings.
        ranked = top_influencers(index, args.user, limit=args.top)
        print()
        print(format_table(
            ["rank", "influencer", "kappa"],
            [[rank, user, f"{score:.3f}"]
             for rank, (user, score) in enumerate(ranked, start=1)],
            title=f"top influencers of user {args.user}",
        ))
    if args.k > 0:
        result = get_selector("cd").select(context, args.k)
        breakdown = explain_spread(index, result.seeds)
        print()
        print(format_table(
            ["seed", "solo influence"],
            [[seed, f"{breakdown.per_seed[seed]:.2f}"]
             for seed in result.seeds],
            title=(
                f"selected seeds (k={args.k}): sigma_cd = "
                f"{breakdown.total:.2f}, redundancy = "
                f"{breakdown.redundancy:.2f}"
            ),
        ))
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    from repro.core.coverage import cd_cover
    from repro.core.maximize import cd_maximize

    index = _uniform_context(args).credit_index()
    if args.target is not None:
        target = args.target
    else:
        if not 0.0 < args.target_fraction <= 1.0:
            print("--target-fraction must be in (0, 1]", file=sys.stderr)
            return 2
        ceiling = cd_maximize(index, k=len(index.activity)).spread
        target = ceiling * args.target_fraction
    try:
        result = cd_cover(index, target=target, max_seeds=args.max_seeds)
    except ValueError as error:  # a negative or non-finite number
        print(f"cover: {error}", file=sys.stderr)
        return 2
    print(format_table(
        ["rank", "seed", "marginal gain"],
        [[rank, seed, f"{gain:.2f}"]
         for rank, (seed, gain) in enumerate(
             zip(result.seeds, result.gains), start=1)],
        title=(
            f"cover for target {target:.1f}: {len(result.seeds)} seeds, "
            f"sigma_cd = {result.spread:.1f}, "
            f"reached = {'yes' if result.reached else 'NO'}"
        ),
    ))
    return 0 if result.reached else 1


def _cmd_budget(args: argparse.Namespace) -> int:
    context = _uniform_context(args)
    try:
        result = get_selector(
            "cd_budget", budget=args.budget, cost_scale=args.cost_scale
        ).select(context, 0)
    except ValueError as error:  # a negative or non-finite number
        print(f"budget: {error}", file=sys.stderr)
        return 2
    meta = result.metadata
    print(format_table(
        ["rank", "seed", "cost", "marginal gain"],
        [[rank, seed, f"{cost:.2f}", f"{gain:.2f}"]
         for rank, (seed, cost, gain) in enumerate(
             zip(result.seeds, meta["costs"], result.gains), start=1)],
        title=(
            f"budget {args.budget:.1f}: spent {meta['spent']:.1f} on "
            f"{len(result.seeds)} seeds, sigma_cd = {result.spread:.1f} "
            f"(winning rule: {meta['rule']})"
        ),
    ))
    return 0


def _cmd_graphstats(args: argparse.Namespace) -> int:
    from repro.graphs.metrics import summarize_graph

    graph = load_graph(args.graph)
    summary = summarize_graph(graph)
    print(format_table(
        ["statistic", "value"], summary.as_rows(), title="graph structure"
    ))
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    from repro.data.io import save_edge_values
    from repro.probabilities.em import learn_ic_probabilities_em
    from repro.probabilities.goyal import learn_static_probabilities
    from repro.probabilities.lt_weights import learn_lt_weights

    if args.out is None and args.store is None:
        print("learn: give --out (edge-value TSV) and/or --store (artifact "
              "store directory)", file=sys.stderr)
        return 2
    graph = load_graph(args.graph)
    log = load_action_log(args.log)
    if args.out is not None:
        if args.model == "em":
            values = learn_ic_probabilities_em(graph, log).probabilities
        elif args.model == "lt":
            values = learn_lt_weights(graph, log)
        else:
            values = learn_static_probabilities(graph, log, args.model)
        save_edge_values(values, args.out)
        print(
            f"learned {len(values)} edge values with model '{args.model}' "
            f"-> {args.out}"
        )
    if args.store is not None:
        from repro.api import get_selector
        from repro.api.context import PREDICTION_ARTIFACTS
        from repro.store.store import ArtifactStore
        from repro.store.warm import warm_start, with_riders

        context = SelectionContext(
            graph,
            log,
            probability_method=args.probability_method,
            num_simulations=args.simulations,
            truncation=args.truncation,
            seed=args.seed,
            credit_scheme=args.credit_scheme,
        )
        # What `repro serve` reads: cd's slots, the CD/IC/LT predictors'
        # and the context's own probability method, with their riders.
        needed = with_riders(
            [
                *get_selector("cd").reads(context),
                *(PREDICTION_ARTIFACTS[method] for method in ("CD", "IC", "LT")),
                f"ic_probabilities/{args.probability_method}",
            ],
            context,
        )
        events = warm_start(
            ArtifactStore(args.store),
            context,
            needed,
            dataset_name=args.log,
        )
        print(
            f"stored context {events['context_key'][:12]}... -> {args.store} "
            f"(hits: {len(events['hits'])}, learned: {len(events['misses'])}, "
            f"saved: {len(events['saved'])})"
        )
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store.store import ArtifactStore, StoreError

    try:
        store = ArtifactStore(args.store, create=False)
    except StoreError as error:
        print(str(error), file=sys.stderr)
        return 2
    from repro.store.warm import list_context_records

    if args.store_command == "ls":
        entries = store.entries()
        contexts = sorted(
            {entry.meta.get("context", "?") for entry in entries}
        )
        # Lineage: how deep each context sits in its derived_from chain
        # (base bundles are depth 0; a bundle derived by `repro ingest`
        # from a depth-n bundle is depth n+1).
        depth = {
            record["context_key"]: int(record.get("lineage_depth", 0))
            for record in list_context_records(store)
        }
        rows = [
            [
                entry.key[:12],
                entry.meta.get("context", "?")[:12],
                entry.meta.get("artifact", "?"),
                entry.meta.get("dataset", "-") or "-",
                (
                    str(depth[entry.meta["context"]])
                    if entry.meta.get("context") in depth
                    else "-"
                ),
                entry.payload_bytes,
            ]
            for entry in sorted(
                entries,
                key=lambda e: (e.meta.get("context", ""), e.meta.get("artifact", "")),
            )
        ]
        print(format_table(
            ["key", "context", "artifact", "dataset", "lineage", "bytes"],
            rows,
            title=(
                f"artifact store {store.root}: {len(entries)} entries, "
                f"{len(contexts)} context(s), {store.size_bytes()} payload bytes"
            ),
        ))
        return 0
    if args.store_command == "verify":
        from repro.store.verify import verify_store

        report = verify_store(store, deep=args.deep)
        summary = report.to_dict()
        print(
            f"verify {store.root}: {summary['entries']} entries, "
            f"{summary['records']} record(s), {summary['payload_bytes']} "
            f"payload bytes"
            + (" (deep)" if args.deep else "")
        )
        for problem in report.problems:
            print(f"  {problem.render()}")
        print(
            f"errors: {summary['errors']}  orphans: {summary['orphans']}  "
            f"notes: {summary['notes']}"
        )
        if report.clean:
            print("store is clean")
            return 0
        return 1
    # gc — contexts that live derived bundles still reference are never
    # age-expired: a derived bundle aliases (rather than copies) the
    # artifacts a delta cannot change, so collecting its ancestor would
    # tear it.
    from repro.stream.derive import referenced_context_keys

    protected = referenced_context_keys(store)
    older_than_s = (
        None if args.older_than is None else args.older_than * 86400.0
    )
    removed = store.gc(
        older_than_s=older_than_s,
        dry_run=args.dry_run,
        protect_contexts=protected,
    )
    verb = "would remove" if args.dry_run else "removed"
    print(f"gc {verb} {len(removed)} entr{'y' if len(removed) == 1 else 'ies'}")
    for key in removed:
        print(f"  {key}")
    if older_than_s is not None and protected:
        print(
            f"kept {len(protected)} context(s) referenced by derived "
            "bundles (lineage protection)"
        )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.store.store import ArtifactStore, StoreError
    from repro.stream.delta import load_action_log_delta
    from repro.stream.derive import derive_bundle

    try:
        store = ArtifactStore(args.store, create=False)
    except StoreError as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        delta = load_action_log_delta(args.delta)
    except (OSError, ValueError) as error:
        print(f"ingest: cannot read delta {args.delta}: {error}",
              file=sys.stderr)
        return 2
    try:
        result = derive_bundle(
            store,
            delta,
            context=args.context,
            dataset_name=args.dataset_name,
            verify=args.verify,
        )
    except (StoreError, ValueError, AssertionError) as error:
        print(f"ingest: {error}", file=sys.stderr)
        return 2
    report = result.report
    print(
        f"ingested {report.delta_tuples} tuple(s) / "
        f"{report.closed_actions} closed action(s) "
        f"into context {result.base_key[:12]}..."
    )
    if result.derived_key == result.base_key:
        print(
            f"no action closed: bundle unchanged, "
            f"{report.pending_tuples} tuple(s) pending"
        )
        return 0
    print(
        f"derived context {result.derived_key[:12]}... "
        f"(lineage depth {result.record.get('lineage_depth', 0)})"
    )
    for label, names in (
        ("updated", report.updated),
        ("carried", report.carried),
        ("relearned", report.relearned),
    ):
        if names:
            print(f"  {label}: {', '.join(names)}")
    if report.pending_tuples:
        print(f"  pending: {report.pending_tuples} open tuple(s)")
    if report.verified:
        print("  verified: incremental updates byte-identical to a rescan")
    return 0


def _cmd_prefix(args: argparse.Namespace) -> int:
    import json

    from repro.store.prefix import PREFIXABLE_SELECTORS, precompute_prefix
    from repro.store.store import ArtifactStore, StoreError
    from repro.store.warm import load_context_record, load_serving_context

    params = {}
    if args.params is not None:
        try:
            params = json.loads(args.params)
        except ValueError as error:
            print(f"prefix: --params is not valid JSON: {error}",
                  file=sys.stderr)
            return 2
        if not isinstance(params, dict):
            print("prefix: --params must be a JSON object", file=sys.stderr)
            return 2
    if args.k_max < 1:
        print("prefix: --k-max must be >= 1", file=sys.stderr)
        return 2
    unknown = [s for s in args.selector if s not in PREFIXABLE_SELECTORS]
    if unknown:
        print(
            f"prefix: no prefix support for {', '.join(unknown)}; "
            f"prefixable: {', '.join(sorted(PREFIXABLE_SELECTORS))}",
            file=sys.stderr,
        )
        return 2
    try:
        store = ArtifactStore(args.store, create=False)
        record = load_context_record(store, args.context)
        context = load_serving_context(store, record)
    except StoreError as error:
        print(f"prefix: {error}", file=sys.stderr)
        return 2
    for name in args.selector:
        try:
            prefix = precompute_prefix(
                store, record, context, name, args.k_max,
                params=params, trial=args.trial,
            )
        except (StoreError, ValueError) as error:
            print(f"prefix: {name}: {error}", file=sys.stderr)
            return 2
        # Re-read so the next selector's save sees this one's record row.
        record = load_context_record(store, record["context_key"])
        resume = "resumable" if prefix.resumable else "checkpoint-only"
        print(
            f"prefix {name}: k_max={prefix.k_max} ({resume}) "
            f"-> {prefix.artifact_name()} "
            f"on context {record['context_key'][:12]}..."
        )
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    import json as json_module
    import shutil
    import tempfile
    from pathlib import Path

    from repro.faults.soak import (
        DEFAULT_PLAN,
        SoakConfig,
        prepare_store,
        render_report,
        run_soak,
    )
    from repro.store.store import StoreError

    config = SoakConfig(
        duration_s=args.duration,
        workers=args.workers,
        seed=args.seed,
        plan=args.plan if args.plan is not None else DEFAULT_PLAN,
    )
    root = args.store
    cleanup = root is None
    if cleanup:
        root = tempfile.mkdtemp(prefix="repro-soak-")
        print(f"soak: building a temporary store at {root} ...")
        prepare_store(root, scale="mini", k_max=config.k_max)
    try:
        print(
            f"soak: {args.duration:g}s of traffic from {args.workers} "
            f"workers under plan `{config.plan_text()}`"
        )
        report = run_soak(root, config)
    except StoreError as error:
        print(str(error), file=sys.stderr)
        return 2
    finally:
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)
    print(
        f"soak: {report['requests']} requests in {report['elapsed_s']}s "
        f"({report['throughput_rps']} rps), statuses {report['statuses']}, "
        f"faults fired {report['faults']['total_fired']}"
    )
    print(
        f"soak: non-503 5xx {report['non_503_5xx']}, deterministic "
        f"{report['deterministic']}, store audit errors "
        f"{report['store_audit']['errors']} "
        f"(orphans {report['store_audit']['orphans']})"
    )
    for failure in report["failures"]:
        print(f"soak: FAILURE {failure}", file=sys.stderr)
    if args.report:
        Path(args.report).write_text(render_report(report))
        print(f"soak: wrote {args.report}")
    if args.json_out:
        Path(args.json_out).write_text(
            json_module.dumps(report, indent=2) + "\n"
        )
        print(f"soak: wrote {args.json_out}")
    return 0 if report["ok"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.store.service import serve
    from repro.store.store import StoreError

    ingest_timeout = (
        None if args.ingest_timeout <= 0 else args.ingest_timeout
    )
    try:
        serve(args.store, host=args.host, port=args.port,
              cache_size=args.cache, queue_depth=args.queue_depth,
              ingest_timeout=ingest_timeout, access_log=args.access_log)
    except StoreError as error:
        print(str(error), file=sys.stderr)
        return 2
    return 0


def _render_span_tree(trace_export: dict) -> str:
    """An indented one-line-per-span view of a trace export."""
    children: dict[str, list[dict]] = {}
    roots: list[dict] = []
    for span in trace_export["spans"]:
        parent = span.get("parent_id")
        if parent:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    lines: list[str] = []

    def walk(span: dict, depth: int) -> None:
        flag = "  ERROR" if span.get("status") == "error" else ""
        lines.append(
            f"{'  ' * depth}{span['name']}  "
            f"{span['duration_s'] * 1000.0:.1f}ms{flag}"
        )
        for child in sorted(
            children.get(span["span_id"], []),
            key=lambda item: item["start_s"],
        ):
            walk(child, depth + 1)

    for root in sorted(roots, key=lambda item: item["start_s"]):
        walk(root, 0)
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as json_module
    from pathlib import Path

    from repro.obs.trace import Trace

    try:
        config = ExperimentConfig.from_json_file(args.config)
        if args.executor is not None:
            config.executor = args.executor
        if args.store is not None:
            config.store = args.store
    except (OSError, TypeError, ValueError) as error:
        print(f"bad experiment config: {error}", file=sys.stderr)
        return 2
    trace = Trace(trace_id=args.trace_id)
    with trace.activate():
        result = run_experiment(config)
    export = result.trace if result.trace is not None else trace.to_dict()
    payload = json_module.dumps(export, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        Path(args.out).write_text(payload, encoding="utf-8")
        print(_render_span_tree(export))
        print(
            f"trace {export['trace_id']}: {len(export['spans'])} spans "
            f"-> {args.out}"
        )
    else:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
