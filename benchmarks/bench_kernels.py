"""Kernel benchmark: the NumPy backend vs the pure-Python reference.

Times the three hot-path kernels of :mod:`repro.kernels` against the
pure-Python reference implementations they replace, on calibrated
synthetic datasets, and writes the results to ``BENCH_kernels.json`` —
the repo's perf trajectory record.

Protocol
--------
Each backend is measured in two phases, mirroring how the
:class:`repro.api.context.SelectionContext` pipeline actually runs:

* **prep** — the backend's propagation structures, built once per
  (graph, log) pair and shared across stages: per-action
  :class:`~repro.data.propagation.PropagationGraph` DAGs for the
  Python backend (the context memoizes them across learn -> scan), the
  interned :class:`~repro.kernels.interning.CompiledLog` CSR arrays
  plus the :class:`~repro.kernels.scan_numpy.CompiledCredit` tables
  for the NumPy backend;
* **kernel** — the algorithm itself given those structures: the
  Algorithm-2 credit scan, the Saito-EM fixed point, and Monte-Carlo
  IC/LT spread estimation.

The headline ``speedup`` of each kernel is the kernel-phase ratio;
prep times and the end-to-end ratio (prep + kernel) are recorded
alongside so nothing is hidden.  The acceptance bar for the ``medium``
datasets is a >= 10x kernel speedup for each of scan, EM and MC spread.

Datasets
--------
``medium`` is calibrated per kernel to the regime its workload lives
in at experiment scale:

* **scan** — a dense community graph (the paper's Flickr crawl
  averages degree 79) with many partially-overlapping cascades,
  scanned at the Table-4 high-truncation configuration
  (``lambda = 0.1``): the regime where per-link credit evaluation and
  truncation do the most work;
* **EM** — ``flixster_like("large")``: long heavy-tailed cascades,
  many success episodes per edge;
* **MC spread** — the same large graph under its EM-learned IC
  probabilities and degree-normalised LT weights, 4000 simulations
  per estimate (the paper uses 10,000 on C++; both backends score the
  same counter-keyed worlds, so their estimates are asserted equal).

``quick`` runs the same code on toy inputs in a few seconds — a CI
smoke test proving both backends execute; its ratios are meaningless
and not asserted against.

Usage
-----
    PYTHONPATH=src python benchmarks/bench_kernels.py [--mode medium|quick]
                                                      [--out BENCH_kernels.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.api.context import SelectionContext
from repro.core.credit import TimeDecayCredit
from repro.core.params import learn_influenceability
from repro.core.scan import scan_action_log
from repro.data.datasets import community_social_graph, flixster_like
from repro.data.generator import CascadeModel, generate_action_log
from repro.data.propagation import PropagationGraph
from repro.diffusion.ic import estimate_spread_ic
from repro.diffusion.lt import estimate_spread_lt
from repro.kernels import numpy_available
from repro.probabilities.em import learn_ic_probabilities_em
from repro.utils.rng import make_rng

SCAN_TRUNCATION = 0.1  # the paper's Table-4 high-truncation row


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _scan_dataset(mode: str):
    """Dense-community scan workload (degree ~Flickr, overlapping casc.)."""
    rng = make_rng(7)
    if mode == "medium":
        sizes, degree, actions = [1800, 1200], 100, 2500
    else:
        sizes, degree, actions = [120, 80], 12, 60
    graph = community_social_graph(sizes, degree, seed=rng, reciprocity=0.45)
    model = CascadeModel.random(
        graph, seed=rng, mean_influence=0.004, max_probability=0.2,
        min_delay=0.5, max_delay=6.0, delay_sigma=2.0,
    )
    log = generate_action_log(
        model, num_actions=actions, seed=rng, popularity_exponent=0.7,
        max_initiator_fraction=0.15, background_rate=0.05,
        horizon=15.0, virality_sigma=0.5, process="ic",
    )
    return graph, log


def bench_scan(mode: str) -> dict:
    graph, log = _scan_dataset(mode)
    actions = list(log.actions())

    propagations, prep_python = _timed(
        lambda: {a: PropagationGraph.build(graph, log, a) for a in actions}
    )
    params = learn_influenceability(
        graph, log, propagations=propagations.__getitem__
    )
    credit = TimeDecayCredit(params)

    index_python, kernel_python = _timed(
        lambda: scan_action_log(
            graph, log, credit=credit, truncation=SCAN_TRUNCATION,
            propagations=propagations.__getitem__,
        )
    )

    if numpy_available():
        from repro.kernels.interning import CompiledGraph, CompiledLog
        from repro.kernels.scan_numpy import (
            CompiledCredit,
            scan_action_log_numpy,
        )

        def _prep():
            compiled = CompiledLog(CompiledGraph(graph, log.users()), log)
            return compiled, CompiledCredit(credit, compiled.graph)

        (compiled, compiled_credit), prep_numpy = _timed(_prep)
        index_numpy, kernel_numpy = _timed(
            lambda: scan_action_log_numpy(
                graph, log, credit=credit, truncation=SCAN_TRUNCATION,
                compiled=compiled, compiled_credit=compiled_credit,
            )
        )
        assert index_numpy.total_entries == index_python.total_entries
    else:
        prep_numpy = kernel_numpy = None

    return {
        "dataset": {
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "actions": len(actions),
            "truncation": SCAN_TRUNCATION,
            "note": (
                "dense community graph, Table-4 high-truncation "
                "(lambda=0.1) configuration"
            ),
        },
        "entries": index_python.total_entries,
        **_phase_rows(prep_python, kernel_python, prep_numpy, kernel_numpy),
    }


def bench_em(mode: str) -> dict:
    data = flixster_like("large" if mode == "medium" else "mini")
    graph, log = data.graph, data.log
    actions = list(log.actions())

    propagations, prep_python = _timed(
        lambda: {a: PropagationGraph.build(graph, log, a) for a in actions}
    )
    result_python, kernel_python = _timed(
        lambda: learn_ic_probabilities_em(
            graph, log, propagations=propagations.__getitem__
        )
    )

    if numpy_available():
        from repro.kernels.em_numpy import learn_ic_probabilities_em_numpy
        from repro.kernels.interning import CompiledGraph, CompiledLog

        compiled, prep_numpy = _timed(
            lambda: CompiledLog(CompiledGraph(graph, log.users()), log)
        )
        result_numpy, kernel_numpy = _timed(
            lambda: learn_ic_probabilities_em_numpy(
                graph, log, compiled=compiled
            )
        )
        # Bit for bit: the same edges, values and dict order, and the
        # same number of rounds.
        assert list(result_numpy.probabilities.items()) == list(
            result_python.probabilities.items()
        )
        assert result_numpy.iterations == result_python.iterations
    else:
        prep_numpy = kernel_numpy = None

    return {
        "dataset": {
            "name": data.name,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "actions": len(actions),
        },
        "edges_learned": len(result_python.probabilities),
        "iterations": result_python.iterations,
        **_phase_rows(prep_python, kernel_python, prep_numpy, kernel_numpy),
    }


def bench_mc(mode: str) -> dict:
    data = flixster_like("large" if mode == "medium" else "mini")
    graph, log = data.graph, data.log
    simulations = 4000 if mode == "medium" else 200
    context = SelectionContext(graph, log)
    probabilities = context.ic_probabilities("EM")
    weights = context.lt_weights()
    seeds = sorted(graph.nodes(), key=lambda n: -graph.out_degree(n))[:10]

    ic_python, ic_kernel_python = _timed(
        lambda: estimate_spread_ic(
            graph, probabilities, seeds, simulations, seed=11,
            backend="python",
        )
    )
    lt_python, lt_kernel_python = _timed(
        lambda: estimate_spread_lt(
            graph, weights, seeds, simulations, seed=11, backend="python"
        )
    )

    if numpy_available():
        from repro.kernels.mc_numpy import CompiledDiffusion

        ic_compiled, ic_prep_numpy = _timed(
            lambda: CompiledDiffusion(graph, probabilities, "ic")
        )
        lt_compiled, lt_prep_numpy = _timed(
            lambda: CompiledDiffusion(graph, weights, "lt")
        )
        worlds = range(simulations)
        ic_numpy, ic_kernel_numpy = _timed(
            lambda: ic_compiled.active_count(seeds, 11, worlds) / simulations
        )
        lt_numpy, lt_kernel_numpy = _timed(
            lambda: lt_compiled.active_count(seeds, 11, worlds) / simulations
        )
        # Both backends walk the same counter-keyed worlds.
        assert (ic_numpy, lt_numpy) == (ic_python, lt_python), (
            (ic_numpy, lt_numpy), (ic_python, lt_python)
        )
    else:
        ic_prep_numpy = lt_prep_numpy = None
        ic_kernel_numpy = lt_kernel_numpy = None
        ic_numpy = lt_numpy = None

    ic_row = _phase_rows(0.0, ic_kernel_python, ic_prep_numpy, ic_kernel_numpy)
    lt_row = _phase_rows(0.0, lt_kernel_python, lt_prep_numpy, lt_kernel_numpy)
    speedups = [
        row["speedup"] for row in (ic_row, lt_row) if row["speedup"]
    ]
    return {
        "dataset": {
            "name": data.name,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "num_simulations": simulations,
            "seed_set_size": len(seeds),
        },
        "ic": {"spread": {"python": ic_python, "numpy": ic_numpy}, **ic_row},
        "lt": {"spread": {"python": lt_python, "numpy": lt_numpy}, **lt_row},
        "speedup": min(speedups) if speedups else None,
    }


def _phase_rows(prep_python, kernel_python, prep_numpy, kernel_numpy) -> dict:
    row = {
        "prep_s": {"python": _r(prep_python), "numpy": _r(prep_numpy)},
        "kernel_s": {"python": _r(kernel_python), "numpy": _r(kernel_numpy)},
        "speedup": None,
        "end_to_end_speedup": None,
    }
    if kernel_numpy:
        row["speedup"] = _r(kernel_python / kernel_numpy)
        if prep_numpy is not None:
            row["end_to_end_speedup"] = _r(
                (prep_python + kernel_python) / (prep_numpy + kernel_numpy)
            )
    return row


def _r(value):
    return round(value, 3) if isinstance(value, float) else value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode", choices=("medium", "quick"), default="medium",
        help="medium: the calibrated acceptance datasets; quick: a "
        "seconds-long smoke run (ratios not meaningful)",
    )
    parser.add_argument(
        "--out", default="BENCH_kernels.json",
        help="output JSON path (default: ./BENCH_kernels.json)",
    )
    args = parser.parse_args(argv)

    report = {
        "benchmark": "repro.kernels backends vs pure-Python reference",
        "mode": args.mode,
        "criterion": (
            ">= 10x kernel-phase speedup per kernel on the medium datasets"
            if args.mode == "medium"
            else "smoke only — quick-mode ratios are not meaningful"
        ),
        "protocol": (
            "prep (per-backend propagation structures: PropagationGraph "
            "DAGs vs CompiledLog/CompiledCredit arrays) is timed "
            "separately from the kernel itself, as the SelectionContext "
            "pipeline builds those once and shares them across stages; "
            "end_to_end_speedup includes both phases"
        ),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "numpy": None,
        },
        "kernels": {},
    }
    if numpy_available():
        import numpy

        report["machine"]["numpy"] = numpy.__version__
    else:
        print("NumPy unavailable: recording python-only timings", flush=True)

    for name, runner in (
        ("scan", bench_scan), ("em", bench_em), ("mc_spread", bench_mc)
    ):
        print(f"[bench_kernels] running {name} ({args.mode}) ...", flush=True)
        report["kernels"][name] = runner(args.mode)
        print(
            f"[bench_kernels]   {name}: speedup="
            f"{report['kernels'][name]['speedup']}",
            flush=True,
        )

    report["speedups"] = {
        name: row["speedup"] for name, row in report["kernels"].items()
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_kernels] wrote {args.out}")

    if args.mode == "medium" and numpy_available():
        failing = {
            name: value
            for name, value in report["speedups"].items()
            if value is None or value < 10.0
        }
        if failing:
            print(f"[bench_kernels] below the 10x bar: {failing}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
