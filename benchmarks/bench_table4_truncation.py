"""Table 4: effect of the truncation threshold lambda on Flixster_Large.

Sweeps lambda over the paper's grid, reporting influence spread (exact
evaluator), "true seeds discovered" (vs the smallest lambda), memory
and runtime.  Expected shape: as lambda decreases, quality improves and
saturates around lambda = 0.001 while memory and runtime keep growing —
which is why 0.001 is the library default.
"""

from types import SimpleNamespace

from benchmarks.conftest import run_cd_point
from repro.api import SelectionContext
from repro.evaluation.reporting import format_table

LAMBDAS = [0.1, 0.01, 0.001, 0.0001]
K = 25

PAPER_ROWS = {
    0.1: (2959, 38, 2.1, 5.25),
    0.01: (3220, 45, 6.0, 8.62),
    0.001: (3267, 48, 18.8, 21.25),
    0.0001: (3270, 50, 51.0, 46.7),
}


def _sweep(dataset):
    """One ``cd`` point per lambda, largest first.

    The lambda-independent slots (influence parameters, the exact
    evaluator and, on numpy, the compiled log) are built once, before
    any point's spans, and injected into every point, so a point's
    ``credit_index`` build span covers its scan alone.  Spread is the
    evaluate stage's sigma_cd, which is never truncated.
    """
    shared = SelectionContext(dataset.graph, dataset.log)
    shared.cd_evaluator()
    rows = []
    for value in LAMBDAS:
        context = SelectionContext(
            dataset.graph, dataset.log, truncation=value
        )
        for name in shared.artifact_names():
            context.set_artifact(name, shared.get_artifact(name))
        point = run_cd_point(context, K, evaluate_spread=True)
        rows.append(
            SimpleNamespace(
                truncation=value,
                spread=point.spread,
                memory_bytes=point.memory_bytes,
                runtime_seconds=point.total_seconds,
                index_entries=point.index_entries,
                seeds=point.seeds,
            )
        )
    reference = set(rows[-1].seeds)  # smallest lambda = highest fidelity
    for row in rows:
        row.true_seeds_discovered = len(reference & set(row.seeds))
    return rows


def test_table4_truncation_sweep(benchmark, report, flixster_large):
    rows = benchmark.pedantic(
        lambda: _sweep(flixster_large), rounds=1, iterations=1
    )
    table_rows = []
    for row in rows:
        paper = PAPER_ROWS[row.truncation]
        table_rows.append(
            [
                f"{row.truncation:g}",
                f"{row.spread:.1f}",
                f"{row.true_seeds_discovered}/{K}",
                f"{row.memory_bytes / 1e6:.1f}",
                f"{row.runtime_seconds:.1f}",
                f"{paper[0]} / {paper[1]}/50 / {paper[2]}GB / {paper[3]}min",
            ]
        )
    report(
        format_table(
            [
                "lambda",
                "spread",
                "true seeds",
                "mem MB",
                "runtime s",
                "paper (spread/seeds/mem/time)",
            ],
            table_rows,
            title="Table 4 (flixster_large) — truncation threshold sweep",
        )
    )
    # Shapes: memory/runtime increase as lambda shrinks...
    assert rows[-1].memory_bytes > rows[0].memory_bytes
    assert rows[-1].index_entries > rows[0].index_entries
    # ...while quality improves and saturates: 0.001 within 1% of 0.0001.
    assert rows[-1].spread >= rows[0].spread - 1e-9
    spread_at_001 = next(r.spread for r in rows if r.truncation == 0.001)
    assert spread_at_001 >= 0.99 * rows[-1].spread
    # True-seed recovery grows with fidelity.
    assert rows[-1].true_seeds_discovered == K
    assert rows[0].true_seeds_discovered <= rows[-1].true_seeds_discovered
