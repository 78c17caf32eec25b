"""Time the reference work at a low duty cycle beside a load phase.

Started by ``serving.py`` around the open-loop phase of serve_mixed, in
a process of its own, so that the timing never holds up the load
generator's senders.  Prints ``ready`` once warm, then times one
reference block every INTERVAL_S seconds for ``--seconds`` and prints
the timings as one JSON list.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import monotonic, reference_block  # noqa: E402

INTERVAL_S = 0.5


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    reference_block()
    print("ready", flush=True)
    timings = []
    started = monotonic()
    while monotonic() - started < args.seconds:
        timings.append(reference_block())
        time.sleep(INTERVAL_S)
    print(json.dumps(timings), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
