"""One timed sweep of one workload, in a fresh process.

``run.py`` starts this once per repetition and reads the JSON record
printed as the last line of stdout.  Everything between the parent's
spawn (``--spawned-at``, a system-wide monotonic timestamp) and the
start of the timed interval is the repetition's set-up: interpreter
start, imports, spec generation and backend construction.  The sweep
runs on ``SerialBackend``, pinned to one allowed core.  The timed
interval is exactly the ``Runner.run()`` call on the workload's spec,
with a fresh in-memory ``CompilationCache`` (no cache directory).  The
host-speed yardstick (``yardstick.py``) is timed three times right
before and three times right after it, outside both the set-up and the
timed interval.  ``speed`` is ``REFERENCE_S`` over the median of those
six times, and ``sweep_ref_s`` is the sweep's wall seconds scaled by it
to the reference speed.

With ``--trace-out`` the layer entry points are wrapped first (see
``spans.py``) and the spans are written to that path after the sweep.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

from spans import Recorder, instrument
from workloads import WORKLOADS
from yardstick import REFERENCE_S, yardstick_s

# Yardstick times on each side of the sweep.  Their median, not their
# mean, so one preempted yardstick does not move the sweep's figure.
YARDSTICKS = 3


def steal_jiffies() -> int | None:
    """Host-wide hypervisor steal time so far (``/proc/stat``), if known."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[:1] == ["cpu"] and len(fields) > 8 else None


def optimal_round_time(job) -> float | None:
    """The expert-mapping lower bound, where the paper derives one."""
    from repro.codes import make_code
    from repro.core import optimal_estimate

    if job.capacity != 2 or job.topology not in ("grid", "switch"):
        return None
    code = make_code(job.code, job.distance)
    return optimal_estimate(code, job.topology, 2).round_time_us


def job_record(result) -> dict:
    job = result.job
    memo = result.extras.get("memo", {})
    return {
        "key": job.key,
        "shots": result.shots if result.failures is not None else 0,
        "failures": result.failures,
        "round_time_us": result.metrics["round_time_us"],
        "movement_ops": result.metrics["movement_ops"],
        "optimal_round_time_us": optimal_round_time(job),
        "memo_hits": memo.get("hits", 0),
        "memo_misses": memo.get("misses", 0),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    import numpy
    from repro.engine import CompilationCache, Runner, SerialBackend

    workload = WORKLOADS[args.workload]
    spec = workload.spec(args.seed)
    # One allowed core: the sweep never migrates, so the yardstick
    # times around it measure the core it ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    backend = SerialBackend()
    cache = CompilationCache()
    recorder = None
    if args.trace_out:
        recorder = Recorder(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        instrument(recorder)
    runner = Runner(spec, backend=backend, cache=cache)

    try:
        set_up = time.monotonic()
        yardsticks = [yardstick_s() for _ in range(YARDSTICKS)]
        gc.collect()
        steal0 = steal_jiffies()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        root = recorder.begin("engine.sweep") if recorder else None
        results = runner.run()
        if recorder:
            recorder.end(root)
        sweep_s = time.perf_counter() - wall0
        sweep_cpu_s = time.process_time() - cpu0
        steal1 = steal_jiffies()
        yardsticks += [yardstick_s() for _ in range(YARDSTICKS)]
    finally:
        backend.close()

    speed = REFERENCE_S / statistics.median(yardsticks)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "pid": os.getpid(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "setup_s": set_up - args.spawned_at,
        "sweep_s": sweep_s,
        "sweep_cpu_s": sweep_cpu_s,
        "yardstick_s": yardsticks,
        "speed": speed,
        "sweep_ref_s": sweep_s * speed,
        "steal_jiffies": (
            None if steal0 is None or steal1 is None else steal1 - steal0
        ),
        "peak_rss_mb": peak_kb / 1024.0,
        "jobs": [job_record(result) for result in results],
        "cache": cache.stats(),
    }
    if recorder:
        record["self_times"] = recorder.self_times()
        record["counts"] = dict(recorder.counts)
        record["span_counts"] = dict(
            Counter(name for name, *_ in recorder.spans))
        _, root_start, root_end, _ = recorder.spans[root]
        record["traced_sweep_s"] = root_end - root_start
        os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
        with open(args.trace_out, "w") as fh:
            json.dump(recorder.to_jsonable(), fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
