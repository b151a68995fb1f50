"""End-to-end benchmark of the compile -> DEM -> sample -> decode sweep.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ler_setup_bound --seed 2026 \\
        --seconds 30 --trace 0

Each timed sweep runs in a fresh child process (``rep.py``) through the
public ``repro.engine`` API; this parent only spawns, checks and
summarises.  It starts sweeps until ``--seconds`` have passed (at least
``MIN_SWEEPS``).  ``--trace 0`` prints the end-to-end metrics named in
``BENCHMARK.json``, summarised over the run's sweeps, with the sweep's
seconds scaled to the yardstick's reference speed (``yardstick.py``);
``--trace 1`` adds one traced sweep and prints the per-layer metrics
instead.  The last stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the full record (provenance, every sweep, every check)
and the span trace are written under ``perfbench/out/``.  See
``METRICS.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, MIN_SWEEPS, WORKLOADS
from yardstick import yardstick_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
# The whole run must end within 180 s; leave room for the summary.
DEADLINE_S = 170.0
# Per-job false-alarm rate of the LER consistency test.
LER_ALPHA = 1e-6
# Layers that run on the driver before any shot is sampled.
SETUP_LAYERS = (
    "core.compile", "core.translate", "core.place", "core.route",
    "core.schedule", "core.export", "sim.dem", "decoders.graph",
    "decoders.dijkstra",
)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def spawn(argv: list[str], deadline: float) -> tuple[dict | None, str]:
    """Run ``rep.py argv`` in its own session; its record, or an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), *argv,
         "--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out, err = "", "timed out"
    finally:
        # Whatever the child started shares its session: none may
        # outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        return None, f"exit {proc.returncode}: {err.strip()[-2000:]}"
    return json.loads(out.strip().splitlines()[-1]), ""


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
def binomial_tail_p(k: int, n: int, p: float) -> float:
    """Two-sided tail probability of ``k`` under Binomial(n, p), 0<p<1."""
    log_pmf = [
        math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
        + i * math.log(p) + (n - i) * math.log1p(-p)
        for i in range(n + 1)
    ]
    pmf = [math.exp(v) for v in log_pmf]
    return min(1.0, 2 * min(sum(pmf[: k + 1]), sum(pmf[k:])))


def ler_consistent(shots: int, failures: int, ref: list[int]) -> bool:
    """Whether ``failures / shots`` and the reference rate can be the
    same LER: conditional on the pooled failure count, each side's share
    is binomial with its share of the shots."""
    ref_shots, ref_failures = ref
    pooled = failures + ref_failures
    if pooled == 0:
        return True
    share = shots / (shots + ref_shots)
    return binomial_tail_p(failures, pooled, share) >= LER_ALPHA


def job_problems(job, consensus, reference) -> list[str]:
    problems = []
    base = consensus.get(job["key"])
    if base is None:
        problems.append("job missing from the first sweep")
    elif (job["failures"], job["round_time_us"]) != (
        base["failures"], base["round_time_us"]
    ):
        problems.append("failures or round time differ between sweeps")
    bound = job["optimal_round_time_us"]
    if bound is not None and job["round_time_us"] < bound * (1 - 1e-9):
        problems.append(
            f"round time {job['round_time_us']} below optimal {bound}")
    ref = reference.get(job["key"])
    if job["failures"] is not None and ref is not None and not ler_consistent(
        job["shots"], job["failures"], ref
    ):
        problems.append(
            f"{job['failures']}/{job['shots']} inconsistent with reference "
            f"{ref[1]}/{ref[0]}")
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def median(sweeps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in sweeps)


def interquartile_mean(sweeps: list[dict], key: str) -> float:
    """Mean of the middle half of the sweeps' values.  Like a median it
    ignores the sweeps the host slowed most; unlike the median of a
    handful of sweeps, it averages the whole middle half."""
    values = sorted(r[key] for r in sweeps)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def end_to_end(sweeps: list[dict]) -> dict[str, float]:
    jobs = sweeps[0]["jobs"]
    return {
        "sweep_s": interquartile_mean(sweeps, "sweep_ref_s"),
        "setup_s": median(sweeps, "setup_s"),
        "peak_rss_mb": median(sweeps, "peak_rss_mb"),
        "round_time_us_geomean": math.exp(
            statistics.fmean(math.log(j["round_time_us"]) for j in jobs)
        ),
    }


def per_layer(traced: dict, sweeps: list[dict]) -> dict[str, float]:
    self_s = traced["self_times"]
    counts = traced["counts"]
    jobs = traced["jobs"]

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    traced_s = traced["traced_sweep_s"]
    untraced_s = median(sweeps, "sweep_s")
    shots = sum(j["shots"] for j in jobs)
    hits = sum(j["memo_hits"] for j in jobs)
    misses = sum(j["memo_misses"] for j in jobs)
    sample_s, decode_s = s("sim.sample"), s("decoders.decode")
    return {
        "engine.raw_sweep_s": untraced_s,
        "engine.raw_sweep_cpu_s": median(sweeps, "sweep_cpu_s"),
        "engine.yardstick_s": statistics.median(
            t for r in sweeps for t in r["yardstick_s"]),
        "core.compile_s": s("core.compile"),
        "core.translate_s": s("core.translate"),
        "core.place_s": s("core.place"),
        "core.route_s": s("core.route"),
        "core.schedule_s": s("core.schedule"),
        "core.export_s": s("core.export"),
        "core.ops": counts.get("core.ops", 0),
        "core.movement_ops": sum(j["movement_ops"] for j in jobs),
        "core.route_ops_per_s": rate(counts.get("core.ops", 0), s("core.route")),
        "sim.dem_s": s("sim.dem"),
        "sim.dem_errors": counts.get("sim.dem_errors", 0),
        "sim.sample_s": sample_s,
        "sim.shots_per_s": rate(shots, sample_s),
        "decoders.graph_s": s("decoders.graph"),
        "decoders.dijkstra_s": s("decoders.dijkstra"),
        "decoders.decode_s": decode_s,
        "decoders.distinct_syndromes": hits + misses,
        "decoders.decodes_per_s": rate(misses, decode_s),
        "decoders.memo_hit_ratio": rate(hits, hits + misses),
        "engine.driver_setup_s": sum(s(name) for name in SETUP_LAYERS),
        "engine.overhead_s": s("engine.sweep"),
        "engine.traced_sweep_s": traced_s,
        "engine.trace_overhead_s": traced_s - untraced_s,
        "engine.cache_hits": traced["cache"]["hits"],
        "engine.cache_misses": traced["cache"]["misses"],
    }


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def calibration_s() -> float:
    """Median of five yardstick times in this parent process, before
    any sweep: the host's speed at the start of the run."""
    return statistics.median(yardstick_s() for _ in range(5))


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=30).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=30).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": dirty}


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still reaps its sweep's process group (spawn's
    # ``finally``), instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    deadline = started + DEADLINE_S

    config_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not config_path.is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} or "
              f"{config_path} is missing", file=sys.stderr)
        return 2
    config = json.loads(config_path.read_text())
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    workload = WORKLOADS[args.workload]
    # Byte-compile up front so no sweep's set-up pays for it.
    compileall.compile_dir(str(ROOT / "src"), quiet=2)

    provenance = {
        "argv": sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        **git_state(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "calibration_s": calibration_s(),
    }
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    sweeps, errors, longest = [], [], 0.0
    measuring = time.monotonic()
    while True:
        started_sweeps = len(sweeps) + len(errors)
        if started_sweeps >= MIN_SWEEPS and (
            time.monotonic() - measuring >= seconds
        ):
            break
        # Beyond the minimum, start a sweep only while the deadline
        # holds it, the traced sweep if any and one more for margin.
        if started_sweeps >= MIN_SWEEPS and (
            deadline - time.monotonic() < longest * (2 + args.trace)
        ):
            print(f"deadline: started {started_sweeps} timed sweeps in "
                  f"{time.monotonic() - measuring:.1f} of {seconds} s",
                  file=sys.stderr)
            break
        spawned = time.monotonic()
        record, error = spawn(base, deadline)
        longest = max(longest, time.monotonic() - spawned)
        if record:
            sweeps.append(record)
        else:
            errors.append(error)
    provenance["timed_sweeps"] = {
        "started": len(sweeps) + len(errors),
        "seconds": time.monotonic() - measuring}
    traced = None
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    if args.trace:
        traced, error = spawn(base + ["--trace-out", str(trace_path)], deadline)
        if error:
            errors.append(error)
    for error in errors:
        print(f"sweep failed: {error}", file=sys.stderr)
    if not sweeps or (args.trace and traced is None):
        print("no successful sweep to report", file=sys.stderr)
        return 1

    reference = {}
    if REFERENCE.is_file():
        recorded = json.loads(REFERENCE.read_text())
        reference = recorded.get(args.workload, {})
    consensus = {j["key"]: j for j in sweeps[0]["jobs"]}
    checked = sweeps + ([traced] if traced else [])
    attempted = len(consensus) * (len(checked) + len(errors))
    failed = len(consensus) * len(errors)
    problems = []
    for record in checked:
        for job in record["jobs"]:
            found = job_problems(job, consensus, reference)
            if found:
                failed += 1
                problems.append({"key": job["key"], "problems": found})
        failed += max(0, len(consensus) - len(record["jobs"]))
    if traced:
        # One operation per layer the workload must exercise.
        attempted += len(workload.spans)
        missing = [n for n in workload.spans if not traced["span_counts"].get(n)]
        failed += len(missing)
        if missing:
            problems.append({"key": "traced sweep", "problems": [
                f"no {name} span recorded" for name in missing]})

    metrics = end_to_end(sweeps)
    if args.trace:
        metrics = per_layer(traced, sweeps)
    section = config["per_layer"] if args.trace else config["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} are computed but "
            "not declared in BENCHMARK.json, or declared but not computed")
    for name in units:
        print(f"{args.workload:18s} {name:34s} {metrics[name]:>14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    provenance["wall_s"] = time.monotonic() - started
    OUT.mkdir(exist_ok=True)
    artifact = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    artifact.write_text(json.dumps({
        "provenance": provenance,
        "result": result,
        "problems": problems,
        "errors": errors,
        "sweeps": sweeps,
        "traced": traced,
    }, indent=1))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
