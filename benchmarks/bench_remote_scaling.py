"""Remote-backend scaling benchmark (BENCH_remote.json).

Two measured points for the forked-slot / work-stealing engine:

- **slot scaling** — the same fixed-shot sweep against
  ``repro-worker --slots 1`` (one worker process) and again against
  ``--slots 4`` (four forked worker processes, all four announced
  addresses in the roster).  The gate is honest about the host: with
  >= 4 CPU cores the four processes must deliver >= 2.5x the one
  process's throughput (full mode only); on smaller hosts (or in
  smoke mode) the worker processes share cores and the gate degrades
  to "multi-slot is never slower" (>= 0.85x, absorbing timer noise),
  with the skipped full gate recorded in the JSON.  Each slot count
  is launched ``SLOT_REPEATS`` times, interleaved, and the gates read
  the median wall clock.  The point is decode-bound (d=5 near
  threshold, five rounds, MWPM), so shard compute holds most of the
  one-slot wall clock; the JSON records the split, with driver setup
  read from ``Runner._setup_s_total``.  A driver-setup-bound point
  would time the driver, which no slot count can speed up.

- **straggler steal** — a two-worker pool where one worker sleeps
  before every shard (``--chaos-shard-delay``, so the stall
  parallelises even on one core).  The sweep runs with stealing off
  and on: stealing must engage, cut the tail wall clock, and leave the
  failure counts bit-identical to a serial run — stealing is a latency
  lever, never a statistics change.

Results go to the repo-root ``BENCH_remote.json`` so the perf gates
ride the same artifact pipeline as the other benchmarks.
"""

import json
import os
import signal
import statistics
import subprocess
import sys
import time

from repro.engine import CompilationCache, SweepSpec, run_sweep
from repro.engine.remote import RemoteBackend
from repro.engine.runner import Runner

from _common import MASTER_SEED, publish, smoke

BENCH_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_remote.json")
)
SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

SLOT_FULL_GATE = 2.5     # --slots 4 vs --slots 1 throughput, >= 4 cores, full mode
SLOT_SMOKE_GATE = 0.85   # multi-slot must never be (meaningfully) slower
SLOT_REPEATS = 5         # fresh launches per slot count; gates read the median
STRAGGLER_DELAY_S = 1.25

ENGINE_CACHE = CompilationCache()


def _spawn_worker(*extra_args: str, slots: int = 1):
    """``repro-worker --slots <slots>`` on free ports -> (proc, addrs),
    one announced address per forked worker process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.engine.remote",
         "--listen", "127.0.0.1:0", "--slots", str(slots), *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env, text=True, start_new_session=True,
    )
    prefix = "repro-worker listening on "
    addrs = []
    for _ in range(slots):
        line = proc.stdout.readline().strip()
        if not line.startswith(prefix):
            _reap([proc])
            raise RuntimeError(f"worker failed to start: {line!r}")
        addrs.append(line[len(prefix):])
    return proc, addrs


def _reap(procs) -> None:
    """Wait for each launcher, then SIGKILL what is left of its process
    group (the launcher and its forked workers)."""
    for proc in procs:
        if proc.poll() is None:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass  # the whole group is already gone
        proc.wait()
        proc.stdout.close()


def _spec(shots: int, **overrides) -> SweepSpec:
    base = dict(distances=(3,), rounds=2, shots=shots,
                master_seed=MASTER_SEED)
    base.update(overrides)
    return SweepSpec(**base)


# The slot point: d=5 near threshold over five rounds, where decoding
# dominates and the syndrome memo almost never hits.
SLOT_POINT = dict(distances=(5,), rounds=5, decoders=("mwpm",))


# ----------------------------------------------------------------------
# Point 1: --slots 1 vs --slots 4 throughput
# ----------------------------------------------------------------------
def _timed_sweep(backend, shots: int, shard_shots: int, point=None,
                 **runner_kw):
    """Wall clock, failures, steal stats and driver setup seconds of
    one sweep against ``backend``, after a warmup sweep of one shard
    per worker that pays the one-off worker priming (circuit transfer,
    DEM build, decoder construction) outside the timed run.  The
    warmup draws from another master seed, so no timed shard finds
    its syndromes already in a worker's memo."""
    point = point or {}
    run_sweep(_spec(shots=len(backend.addrs) * shard_shots,
                    master_seed=MASTER_SEED + 1, **point),
              backend=backend, shard_shots=shard_shots, cache=ENGINE_CACHE)
    runner = Runner(_spec(shots=shots, **point), backend=backend,
                    shard_shots=shard_shots, cache=ENGINE_CACHE, **runner_kw)
    t0 = time.perf_counter()
    results = runner.run()
    wall_s = time.perf_counter() - t0
    return (wall_s, [r.failures for r in results], runner.steal_stats,
            runner._setup_s_total)


def _slot_run(slots: int, shots: int, shard_shots: int):
    """One fresh ``--slots`` launch: (wall_s, failures, setup_s)."""
    proc, addrs = _spawn_worker(slots=slots)
    try:
        with RemoteBackend(addrs) as backend:
            wall_s, failures, _, setup_s = _timed_sweep(
                backend, shots, shard_shots, SLOT_POINT
            )
    finally:
        _reap([proc])
    return wall_s, failures, setup_s


def _slot_points(shots: int, shard_shots: int) -> list[dict]:
    """``--slots 1`` and ``--slots 4`` points, each the median of
    ``SLOT_REPEATS`` interleaved launches."""
    runs = {1: [], 4: []}
    for _ in range(SLOT_REPEATS):
        for slots, samples in runs.items():
            samples.append(_slot_run(slots, shots, shard_shots))
    points = []
    for slots, samples in runs.items():
        walls = [wall_s for wall_s, _, _ in samples]
        setups = [setup_s for _, _, setup_s in samples]
        failures = samples[0][1]
        assert all(f == failures for _, f, _ in samples)
        wall_s = statistics.median(walls)
        points.append({
            "slots": slots,
            "wall_s": round(wall_s, 4),
            "wall_s_runs": [round(w, 4) for w in walls],
            "shots_per_s": round(shots / wall_s, 1),
            "failures": failures,
            # Driver setup (compile) against everything else, which is
            # shard compute plus dispatch: the share a slot count acts on.
            "setup_s": round(statistics.median(setups), 4),
            "setup_s_runs": [round(t, 4) for t in setups],
            "compute_share": round(statistics.median(
                1.0 - t / w for t, w in zip(setups, walls)
            ), 3),
        })
    return points


# ----------------------------------------------------------------------
# Point 2: forced straggler, stealing off vs on
# ----------------------------------------------------------------------
def _straggler_point(steal: bool, shots: int, shard_shots: int) -> dict:
    # The fast worker is listed first so load-rank ties favour it and
    # stolen windows drain onto it rather than queueing behind the
    # straggler's sleep.
    fast_proc, fast_addrs = _spawn_worker()
    slow_proc, slow_addrs = _spawn_worker(
        "--chaos-shard-delay", str(STRAGGLER_DELAY_S)
    )
    try:
        with RemoteBackend(fast_addrs + slow_addrs) as backend:
            wall_s, failures, steals, _ = _timed_sweep(
                backend, shots, shard_shots,
                steal=steal, steal_min_shots=shard_shots // 2,
            )
    finally:
        _reap([fast_proc, slow_proc])
    return {
        "steal": steal,
        "wall_s": round(wall_s, 4),
        "failures": failures,
        "steal_stats": steals,
    }


def test_remote_scaling():
    cores = os.cpu_count() or 1
    shots, shard_shots = (1024, 128) if smoke() else (4096, 256)

    one, four = _slot_points(shots, shard_shots)
    speedup = four["shots_per_s"] / one["shots_per_s"]
    full_gate_checked = not smoke() and cores >= 4
    full_gate_skip_reason = (
        None if full_gate_checked else (
            f"os.cpu_count()={cores} < 4: the forked worker processes "
            "share cores, so the 4-slot speedup gate cannot be "
            "meaningful on this host" if cores < 4
            else "smoke mode: shrunken workload, full gate skipped"
        )
    )

    straggler_shots = 384
    straggler_shard = 128
    off = _straggler_point(False, straggler_shots, straggler_shard)
    on = _straggler_point(True, straggler_shots, straggler_shard)
    serial_failures = [
        r.failures for r in run_sweep(
            _spec(shots=straggler_shots), shard_shots=straggler_shard,
            cache=ENGINE_CACHE,
        )
    ]
    tail_saving_s = off["wall_s"] - on["wall_s"]

    publish("bench_remote_scaling", "\n".join([
        f"host cores: {cores}  mode: {'smoke' if smoke() else 'full'}",
        f"slot scaling (d=5 x5 rounds mwpm, {shots} shots, shard "
        f"{shard_shots}, median of {SLOT_REPEATS}):",
        f"  1-slot: {one['wall_s']:.2f}s  {one['shots_per_s']:>9,.0f} shots/s"
        f"  (setup {one['setup_s']:.2f}s, compute share "
        f"{one['compute_share']:.0%})",
        f"  4-slot: {four['wall_s']:.2f}s  {four['shots_per_s']:>9,.0f} shots/s"
        f"  (setup {four['setup_s']:.2f}s, compute share "
        f"{four['compute_share']:.0%})  -> {speedup:.2f}x",
        f"  full >= {SLOT_FULL_GATE}x gate: "
        + ("checked" if full_gate_checked
           else f"skipped ({full_gate_skip_reason})"),
        f"straggler steal ({straggler_shots} shots, shard {straggler_shard}, "
        f"delay {STRAGGLER_DELAY_S}s):",
        f"  steal off: {off['wall_s']:.2f}s",
        f"  steal on:  {on['wall_s']:.2f}s "
        f"({on['steal_stats'].get('steals', 0)} steal(s), "
        f"{on['steal_stats'].get('windows', 0)} window(s)) "
        f"-> tail saving {tail_saving_s:+.2f}s",
        f"  failures serial/off/on: {serial_failures}/"
        f"{off['failures']}/{on['failures']} (must match)",
    ]))

    payload = {
        "benchmark": "bench_remote_scaling",
        "smoke": smoke(),
        "cpu_count": cores,
        "slot_scaling": {
            "point": {**SLOT_POINT, "gate_improvement": 1.0},
            "shots": shots,
            "shard_shots": shard_shots,
            "repeats": SLOT_REPEATS,
            "one_slot": one,
            "four_slot": four,
            "speedup": round(speedup, 3),
            "smoke_gate": SLOT_SMOKE_GATE,
            "full_gate": SLOT_FULL_GATE,
            "full_gate_checked": full_gate_checked,
            "full_gate_skip_reason": full_gate_skip_reason,
        },
        "straggler": {
            "shots": straggler_shots,
            "shard_shots": straggler_shard,
            "chaos_delay_s": STRAGGLER_DELAY_S,
            "steal_off": off,
            "steal_on": on,
            "tail_saving_s": round(tail_saving_s, 4),
            "serial_failures": serial_failures,
        },
    }
    with open(BENCH_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    # --- gates --------------------------------------------------------
    # Forked slots must never cost throughput, and bit-identity must
    # hold across slot counts.
    assert four["failures"] == one["failures"]
    assert speedup >= SLOT_SMOKE_GATE, (
        f"4-slot worker slower than 1-slot: {speedup:.2f}x"
    )
    if full_gate_checked:
        assert speedup >= SLOT_FULL_GATE, (
            f"4-slot speedup {speedup:.2f}x below the "
            f"{SLOT_FULL_GATE}x gate on a {cores}-core host"
        )
    # Stealing must engage on the forced straggler, win wall clock,
    # and change nothing statistical.
    assert on["steal_stats"].get("steals", 0) >= 1, (
        "forced straggler was never stolen"
    )
    assert on["wall_s"] < off["wall_s"], (
        f"stealing did not reduce the straggler tail: "
        f"on {on['wall_s']:.2f}s vs off {off['wall_s']:.2f}s"
    )
    assert off["failures"] == serial_failures
    assert on["failures"] == serial_failures
