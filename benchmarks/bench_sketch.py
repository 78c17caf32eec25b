"""Sketch/hop spread estimation vs the Monte-Carlo oracle pipeline.

Two legs, written to ``BENCH_sketch.json`` (the repo's perf trajectory
record):

* **quality** — on a medium dataset, greedy selection through three
  estimators: the CELF + Monte-Carlo oracle (``mc``, the paper's
  protocol, on the ``mc_numpy`` kernel), classic RIS coverage
  (``ris``) and hop-limited RIS (``hop``, 2-hop sketches per
  Tang et al., arXiv:1705.10442).  Every selected seed set is then
  scored by one *independent* Monte-Carlo evaluation, so the headline
  numbers are end-to-end selection speedups **at matched seed-set
  quality** — the acceptance bar is a >= 10x selection speedup with
  the MC-evaluated spread within 5% of the MC-oracle selection.
* **million_node** — a synthetic ~1M-node / ~6M-edge graph built
  directly in CSR form (Poisson in-degrees, weighted-cascade
  probabilities ``1/d_in``), handed straight to the
  :class:`repro.kernels.sketch_numpy.CompiledSketcher` constructor:
  2-hop sketch generation plus ``k = 25`` coverage selection must
  complete in minutes on one core — the scale regime where the
  per-node Monte-Carlo sweep is simply not runnable.

``quick`` runs the same code on toy inputs in seconds — the CI smoke
leg; its ratios are not meaningful and not asserted against.

Usage
-----
    PYTHONPATH=src python benchmarks/bench_sketch.py [--mode medium|quick]
                                                     [--out BENCH_sketch.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro.api.context import SelectionContext
from repro.data.datasets import flixster_like
from repro.diffusion.ic import estimate_spread_ic
from repro.kernels import numpy_available
from repro.maximization.celf import celf_maximize
from repro.maximization.ris import ris_maximize

K = 25
EVAL_SEED = 99  # independent-evaluation stream, shared by every method


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _r(value):
    return round(value, 3) if isinstance(value, float) else value


# ----------------------------------------------------------------------
# Quality leg: mc vs ris vs hop at matched seed-set quality
# ----------------------------------------------------------------------
def bench_quality(mode: str) -> dict:
    if mode == "medium":
        scale, num_simulations, num_sketches, eval_sims = "small", 400, 20_000, 2_000
    else:
        scale, num_simulations, num_sketches, eval_sims = "mini", 20, 800, 200
    dataset = flixster_like(scale)
    backend = "numpy" if numpy_available() else "python"
    context = SelectionContext(
        dataset.graph,
        backend=backend,
        num_simulations=num_simulations,
        seed=7,
    )
    probabilities = context.ic_probabilities("WC")
    k = min(K, dataset.graph.num_nodes)

    oracle = context.oracle("ic", method="WC", seed=13)
    mc_result, mc_seconds = _timed(lambda: celf_maximize(oracle, k))
    ris_result, ris_seconds = _timed(
        lambda: ris_maximize(
            dataset.graph, probabilities, k,
            num_rr_sets=num_sketches, seed=5, backend=backend,
        )
    )
    hop_result, hop_seconds = _timed(
        lambda: ris_maximize(
            dataset.graph, probabilities, k,
            num_rr_sets=num_sketches, seed=5, hops=2, backend=backend,
        )
    )

    def evaluate(seeds):
        return estimate_spread_ic(
            dataset.graph, probabilities, seeds,
            num_simulations=eval_sims, seed=EVAL_SEED, backend=backend,
        )

    rows: dict[str, dict] = {}
    oracle_spread = evaluate(mc_result.seeds)
    for name, result, seconds in (
        ("mc", mc_result, mc_seconds),
        ("ris", ris_result, ris_seconds),
        ("hop", hop_result, hop_seconds),
    ):
        spread = evaluate(result.seeds)
        rows[name] = {
            "select_s": _r(seconds),
            "speedup_vs_mc": _r(mc_seconds / seconds) if seconds else None,
            "mc_evaluated_spread": _r(spread),
            "quality_vs_mc": _r(spread / oracle_spread) if oracle_spread else None,
            "internal_estimate": _r(float(result.spread)),
        }
    return {
        "dataset": {
            "name": f"flixster_{scale}",
            "nodes": dataset.graph.num_nodes,
            "edges": dataset.graph.num_edges,
            "probabilities": "WC (1/d_in)",
        },
        "k": k,
        "backend": backend,
        "oracle_simulations": num_simulations,
        "num_sketches": num_sketches,
        "eval_simulations": eval_sims,
        "methods": rows,
    }


# ----------------------------------------------------------------------
# Million-node leg: raw-CSR sketch pipeline at paper scale
# ----------------------------------------------------------------------
def build_synthetic_csr(n: int, mean_in_degree: float, seed: int):
    """A random n-node in-CSR with Poisson in-degrees and WC probabilities.

    Returns ``(in_indptr, in_indices, probabilities)`` — the raw-array
    form the :class:`CompiledSketcher` constructor takes, with edges sorted
    ``(dst, src)`` so flat positions are canonical edge ids.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    degrees = rng.poisson(mean_in_degree, n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    num_edges = int(indptr[-1])
    sources = rng.integers(0, n, num_edges, dtype=np.int64)
    dst = np.repeat(np.arange(n, dtype=np.int64), degrees)
    order = np.lexsort((sources, dst))
    sources = sources[order]
    probabilities = np.repeat(
        np.where(degrees > 0, 1.0 / np.maximum(degrees, 1), 0.0), degrees
    )
    return indptr, sources, probabilities


def bench_million_node(mode: str) -> dict:
    if not numpy_available():
        return {"skipped": "NumPy unavailable"}
    import numpy as np

    from repro.kernels.sketch_numpy import (
        CompiledSketcher,
        coverage_maximize_numpy,
    )

    if mode == "medium":
        n, mean_in_degree, num_sketches = 1_000_000, 6.0, 50_000
    else:
        n, mean_in_degree, num_sketches = 20_000, 6.0, 2_000
    (indptr, sources, probabilities), build_seconds = _timed(
        lambda: build_synthetic_csr(n, mean_in_degree, seed=29)
    )
    sketcher = CompiledSketcher(indptr, sources, probabilities)
    sketches, generate_seconds = _timed(
        lambda: sketcher.generate(num_sketches, hops=2, seed=41)
    )
    (seeds, gains), select_seconds = _timed(
        lambda: coverage_maximize_numpy(sketches, K)
    )
    covered = int(np.sum(np.asarray(gains, dtype=np.int64)))
    return {
        "nodes": n,
        "edges": int(indptr[-1]),
        "num_sketches": num_sketches,
        "hops": 2,
        "k": min(K, len(seeds)) if seeds else K,
        "seeds_selected": len(seeds),
        "build_csr_s": _r(build_seconds),
        "generate_s": _r(generate_seconds),
        "select_s": _r(select_seconds),
        "total_s": _r(build_seconds + generate_seconds + select_seconds),
        "sketch_members_total": int(sketches.total_members),
        "estimated_spread": _r(n * covered / num_sketches),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode", choices=("medium", "quick"), default="medium",
        help="medium: the calibrated acceptance datasets (~1M-node leg); "
        "quick: a seconds-long smoke run (ratios not meaningful)",
    )
    parser.add_argument(
        "--out", default="BENCH_sketch.json",
        help="output JSON path (default: ./BENCH_sketch.json)",
    )
    args = parser.parse_args(argv)

    report = {
        "benchmark": "sketch/hop spread estimation vs the MC-oracle pipeline",
        "mode": args.mode,
        "criterion": (
            ">= 10x selection speedup vs the mc_numpy CELF oracle with "
            "MC-evaluated spread within 5%, and a ~1M-node k=25 "
            "selection completing under the sketch path"
            if args.mode == "medium"
            else "smoke only — quick-mode ratios are not meaningful"
        ),
        "protocol": (
            "each method selects k seeds end-to-end (sketch generation "
            "included); every seed set is then scored by one independent "
            "Monte-Carlo evaluation on a shared stream, so quality_vs_mc "
            "compares identical estimators, not each method's own "
            "internal estimate"
        ),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "numpy": None,
        },
    }
    if numpy_available():
        import numpy

        report["machine"]["numpy"] = numpy.__version__
    else:
        print("NumPy unavailable: recording python-only timings", flush=True)

    print(f"[bench_sketch] running quality ({args.mode}) ...", flush=True)
    report["quality"] = bench_quality(args.mode)
    for name, row in report["quality"]["methods"].items():
        print(
            f"[bench_sketch]   {name}: select_s={row['select_s']} "
            f"speedup={row['speedup_vs_mc']} "
            f"quality={row['quality_vs_mc']}",
            flush=True,
        )
    print(f"[bench_sketch] running million_node ({args.mode}) ...", flush=True)
    report["million_node"] = bench_million_node(args.mode)
    if "total_s" in report["million_node"]:
        print(
            f"[bench_sketch]   million_node: nodes="
            f"{report['million_node']['nodes']} "
            f"total_s={report['million_node']['total_s']}",
            flush=True,
        )

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_sketch] wrote {args.out}")

    if args.mode == "medium" and numpy_available():
        failures = []
        methods = report["quality"]["methods"]
        for name in ("ris", "hop"):
            if methods[name]["speedup_vs_mc"] < 10.0:
                failures.append(f"{name} speedup {methods[name]['speedup_vs_mc']} < 10x")
            if methods[name]["quality_vs_mc"] < 0.95:
                failures.append(f"{name} quality {methods[name]['quality_vs_mc']} < 0.95")
        if report["million_node"].get("seeds_selected", 0) < K:
            failures.append("million-node leg selected fewer than k seeds")
        if failures:
            print(f"[bench_sketch] ACCEPTANCE FAILED: {failures}")
            return 1
        print("[bench_sketch] acceptance criteria met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
