"""Extension: streaming index maintenance vs batch rescans.

A growing action log forces the batch pipeline to rescan everything it
has ever seen on each refresh; a streaming refresh folds only the new
traces, scanning them into the standing index
(``scan_action_log(index=...)``, the step ``repro.stream.fold_delta``
takes for uniform credits).  Over a replay of W waves the batch
strategy scans O(W^2 / 2) traces in total while streaming scans each
trace exactly once — the quadratic-vs-linear gap this bench measures,
together with the exactness guarantee (identical index and identical
seeds at the end).

Each wave's fold and its batch rescan are timed back to back, three
times, and the one that runs first alternates between rounds; each
column keeps its fastest round (each fold round scans into a fresh copy
of the standing index).  A slow stretch of the host then lands on both
columns, or on neither, rather than on one.

Expected shape: cumulative batch time grows superlinearly in waves;
cumulative streaming time is roughly the cost of one full scan; the
final indexes are entry-for-entry identical.
"""

import math
import time

from repro.core.index import CreditIndex
from repro.core.maximize import cd_maximize
from repro.core.scan import scan_action_log
from repro.data.actionlog import ActionLog
from repro.evaluation.reporting import format_table

NUM_WAVES = 5
ROUNDS = 3
K = 10
TRUNCATION = 0.001


def test_extension_streaming_vs_batch(benchmark, report, flixster_small):
    graph = flixster_small.graph
    log = flixster_small.log
    actions = list(log.actions())
    wave_size = (len(actions) + NUM_WAVES - 1) // NUM_WAVES
    waves = [
        actions[index * wave_size : (index + 1) * wave_size]
        for index in range(NUM_WAVES)
    ]

    def traces(wanted) -> ActionLog:
        sublog = ActionLog()
        for action in wanted:
            for user, when in log.trace(action):
                sublog.add(user, action, when)
        return sublog

    def replay():
        index = CreditIndex(truncation=TRUNCATION)
        seen: list = []
        streaming_times, batch_times = [], []
        for number, wave in enumerate(waves):
            seen.extend(wave)
            best = {"fold": math.inf, "rescan": math.inf}
            for round_number in range(ROUNDS):
                order = ("fold", "rescan")
                for step in order if (number + round_number) % 2 else order[::-1]:
                    if step == "fold":
                        folded = index.copy()
                        started = time.perf_counter()
                        scan_action_log(graph, traces(wave), index=folded)
                    else:
                        started = time.perf_counter()
                        batch_index = scan_action_log(
                            graph, traces(seen), truncation=TRUNCATION
                        )
                    best[step] = min(best[step], time.perf_counter() - started)
            index = folded
            streaming_times.append(best["fold"])
            batch_times.append(best["rescan"])
        return index, batch_index, streaming_times, batch_times

    index, batch_index, streaming_times, batch_times = benchmark.pedantic(
        replay, rounds=1, iterations=1
    )

    rows = []
    for wave_number, (stream_t, batch_t) in enumerate(
        zip(streaming_times, batch_times), start=1
    ):
        rows.append(
            [
                f"wave {wave_number}",
                f"{stream_t:.2f}s",
                f"{batch_t:.2f}s",
                f"{batch_t / stream_t:.1f}x",
            ]
        )
    rows.append(
        [
            "total",
            f"{sum(streaming_times):.2f}s",
            f"{sum(batch_times):.2f}s",
            f"{sum(batch_times) / sum(streaming_times):.1f}x",
        ]
    )
    report(
        format_table(
            ["refresh", "streaming fold", "batch rescan", "batch/stream"],
            rows,
            title=(
                f"Extension — streaming vs batch index maintenance "
                f"(flixster_small, {NUM_WAVES} waves)\n"
                "per-action credit independence makes folds exact; batch "
                "pays a quadratic total rescan bill"
            ),
        )
    )
    # Exactness: the streamed index equals the final batch index.
    assert index.total_entries == batch_index.total_entries
    assert index.activity == batch_index.activity
    # Identical seed selection on both indexes.
    assert (
        cd_maximize(index, K, mutate=False).seeds
        == cd_maximize(batch_index, K, mutate=False).seeds
    )
    # The headline saving: total batch work exceeds total streaming work.
    assert sum(batch_times) > 1.5 * sum(streaming_times)
