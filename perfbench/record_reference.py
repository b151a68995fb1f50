"""Record the reference failure counts that ``run.py`` tests LERs against.

Usage (from the repository root)::

    python3 perfbench/record_reference.py

Runs one untimed sweep of every sampling workload at the default seed and writes ``perfbench/reference.json`` as
``{workload: {job key: [shots, failures]}}``.  Rerun only when a change
is meant to move LERs (a new decoder or noise model), and say so.
"""

from __future__ import annotations

import json
import sys
import time

from run import REFERENCE, spawn
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    reference = {}
    for name in sorted(WORKLOADS):
        record, error = spawn(
            ["--workload", name, "--seed", str(DEFAULT_SEED)],
            time.monotonic() + 600,
        )
        if record is None:
            print(f"{name}: {error}", file=sys.stderr)
            return 1
        counts = {
            job["key"]: [job["shots"], job["failures"]]
            for job in record["jobs"] if job["failures"] is not None
        }
        if counts:
            reference[name] = counts
    REFERENCE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, **reference}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
