"""One benchmark for run_experiment, ``repro serve`` and ``POST /ingest``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline_select|serve_mixed|ingest_live
        --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics of the workload; ``--trace
1`` prints the per-layer metrics, measured by spans this benchmark
records around calls into each layer's public functions.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A failed output check prints ``correct: false`` and
exits 1; a run that cannot complete exits non-zero without that line.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    SRC,
    WORK,
    CheckFailed,
    Report,
    scrub_environment,
)

WORKLOADS = ("pipeline_select", "serve_mixed", "ingest_live")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    scrub_environment()
    report = Report(args.workload, args.seed, bool(args.trace))
    workdir = WORK / f"run-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.workload == "pipeline_select":
            import pipeline

            pipeline.run(report, args.seed, args.seconds)
        elif args.workload == "serve_mixed":
            import serving

            serving.serve_mixed(report, workdir, args.seed, args.seconds)
        else:
            import serving

            serving.ingest_live(report, workdir, args.seed, args.seconds)
    except CheckFailed as failure:
        report.check(False, str(failure))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report.emit()


if __name__ == "__main__":
    raise SystemExit(main())
