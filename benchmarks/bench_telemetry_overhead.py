"""Telemetry overhead microbenchmark (the "cheap enough" gate).

The observability layer is only allowed to exist because it costs
nothing when off and almost nothing when on.  This benchmark enforces
both halves of that claim:

- **disabled span cost** — ``span()`` on a disabled registry returns a
  shared no-op singleton; the per-call cost must stay in the
  sub-microsecond range (gated loosely at 5 µs/call so CI noise cannot
  fail the build, while a real regression — say an allocation per call
  — still trips it);
- **instrumented shard overhead** — an engine shard (DEM-direct
  sampling + dedup decoding, the real hot loop) is timed with
  telemetry fully on (spans + trace buffering) and fully off;
  min-of-N wall clocks must agree within the gate (15% smoke / 10%
  full — the shard does real numpy work, so honest span accounting
  disappears into it);
- **determinism** — the on/off shard runs must produce bit-identical
  failure counts (telemetry must never perturb results).

Results publish to ``benchmarks/results/bench_telemetry_overhead.txt``
like every other benchmark table.
"""

import time

from repro import telemetry
from repro.engine import CompilationCache, SweepSpec
from repro.engine.runner import compile_design_point
from repro.engine.worker import Shard, sample_shard
from repro.noise.parameters import DEFAULT_NOISE

from _common import MASTER_SEED, publish, smoke

SPAN_CALLS = 50_000
DISABLED_SPAN_GATE_US = 5.0


def _shard_runner(distance: int = 3, shots: int = 2048):
    """One engine shard's worth of work as a zero-argument callable."""
    spec = SweepSpec(
        distances=(distance,),
        gate_improvements=(5.0,),
        shots=shots,
        master_seed=MASTER_SEED,
    )
    [job] = spec.expand()
    artifacts = compile_design_point(job, DEFAULT_NOISE, need_circuit=True)
    cache = CompilationCache()
    compiled = cache.compiled(artifacts.circuit, artifacts.text)
    decoder = cache.decoder(compiled, job.decoder)
    sampler = cache.dem_sampler(compiled)
    shard = Shard(0, shots, MASTER_SEED)

    def run():
        failures, _memo, _phases = sample_shard(
            decoder, shard, sampler=sampler
        )
        return failures

    return run


def _min_time(fn, repeats: int) -> tuple[float, object]:
    """Min-of-N wall clock (robust against scheduler noise)."""
    best, value = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def test_telemetry_overhead():
    # --- disabled no-op path: per-call cost of `with span(...):` ------
    disabled = telemetry.Telemetry(enabled=False)
    t0 = time.perf_counter()
    for _ in range(SPAN_CALLS):
        with disabled.span("noop"):
            pass
    disabled_us = (time.perf_counter() - t0) / SPAN_CALLS * 1e6

    # --- instrumented vs uninstrumented engine shard ------------------
    run = _shard_runner(shots=1024 if smoke() else 4096)
    repeats = 3 if smoke() else 5
    previous = telemetry.get()

    off = telemetry.Telemetry(enabled=False)
    on = telemetry.Telemetry(enabled=True, trace=True)
    try:
        telemetry.set_active(off)
        run()  # warm every lazy cache before anything is timed
        t_off, failures_off = _min_time(run, repeats)
        telemetry.set_active(on)
        run()
        t_on, failures_on = _min_time(run, repeats)
    finally:
        telemetry.set_active(previous)

    overhead = t_on / t_off - 1.0
    gate = 0.15 if smoke() else 0.10
    spans = len(on.events())

    publish("bench_telemetry_overhead", "\n".join([
        f"disabled span: {disabled_us:.3f} us/call "
        f"(gate {DISABLED_SPAN_GATE_US:.1f} us)",
        f"shard wall clock: off {t_off * 1e3:.2f} ms, on {t_on * 1e3:.2f} ms "
        f"(min of {repeats}) -> overhead {overhead:+.1%} (gate {gate:.0%})",
        f"trace events buffered while on: {spans}",
        f"failures: off {failures_off}, on {failures_on} (must match)",
        f"mode: {'smoke' if smoke() else 'full'}",
    ]))

    assert failures_on == failures_off, (
        "telemetry perturbed the physics: "
        f"off={failures_off} on={failures_on}"
    )
    assert disabled_us < DISABLED_SPAN_GATE_US, disabled_us
    assert overhead < gate, (t_off, t_on, overhead)
