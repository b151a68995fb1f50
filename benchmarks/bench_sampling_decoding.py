"""Sampling + decoding fast-path microbenchmark (BENCH_sampling.json).

Measures, on the d=5 grid-topology memory design point (d=3 in smoke
mode), the two halves of the Monte-Carlo hot path:

- **sampling** — gate-by-gate :class:`FrameSimulator` replay vs the
  bit-packed DEM-direct :class:`DemSampler`;
- **decoding** — one MWPM decode per shot vs packed-native
  deduplicated batch decoding with the cross-shard syndrome memo;

and the **end-to-end** pipelines they compose (sample + decode +
failure count, i.e. what one engine shard does).  The fast path is
**packed-native**: ``sample_packed`` words feed
``logical_failures_packed`` directly — no boolean matrix and no
pack/unpack round-trip anywhere between the sampler and the decoder
(recorded as ``packed_native`` in the payload).

A separate **near-threshold** point (1x gates — dedupe-hostile: most
syndromes distinct, so memoisation stops helping) pits the per-shot
scalar union-find against the batched vectorised kernel, asserting the
two produce identical corrections before timing them.  A matching
**batched-MWPM** point does the same for the MWPM decoder at a deep
below-threshold design point (20x gates — the regime LER sweeps
actually live in), per-shot scalar decode vs the packed
unique -> memo -> vectorised-kernel pipeline.

The fast path runs under a scoped :class:`~repro.telemetry.Telemetry`
registry, so every point also records a per-phase wall-clock breakdown
(``sample.draw`` / ``sample.place`` / ``sample.xor`` / ``unique`` /
``memo`` / ``decode`` / ``scatter`` / ``other``) — the same phases the
engine attributes during sweeps.  The full run cross-checks the
attribution: phase totals must agree with the independently-measured
fast-path wall clock to within 5%.

Results go to the repo-root ``BENCH_sampling.json`` so the perf
trajectory is recorded, and to ``benchmarks/results/`` like every
other benchmark table.

Assertions gate the fast paths: in smoke mode they merely must not be
slower (CI fails on a batched union-find or batched MWPM regression);
the full run enforces the acceptance targets — >= 5x sampling and
>= 3x end-to-end at the paper's 5x-improvement design point, >= 3x
batched union-find decode throughput at the near-threshold point, and
>= 5x batched MWPM decode throughput at the deep below-threshold point.
"""

import json
import os
import time

import numpy as np

from repro import telemetry
from repro.decoders import MwpmDecoder, UnionFindDecoder
from repro.engine import CompilationCache, SweepSpec
from repro.engine.progress import format_phase_share
from repro.engine.runner import (
    compile_design_point,
    ordered_phases,
    plan_shards,
)
from repro.noise.parameters import DEFAULT_NOISE
from repro.sim import DemSampler, FrameSimulator

from _common import MASTER_SEED, publish, smoke

BENCH_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_sampling.json")
)


def _per_shot_decode(decoder, detectors) -> np.ndarray:
    """The naive baseline and the exactness reference: one scalar
    ``decode`` per boolean shot row, no packing, no dedupe, no memo."""
    return np.array([decoder.decode(row) for row in detectors], dtype=np.int64)


def _compiled_point(distance: int, improvement: float, shots: int,
                    decoder: str = "mwpm"):
    spec = SweepSpec(
        distances=(distance,),
        gate_improvements=(improvement,),
        decoders=(decoder,),
        shots=shots,
        master_seed=MASTER_SEED,
    )
    [job] = spec.expand()
    artifacts = compile_design_point(job, DEFAULT_NOISE, need_circuit=True)
    cache = CompilationCache()
    compiled = cache.compiled(artifacts.circuit, artifacts.text)
    return job, cache, compiled


def _bench_point(distance: int, improvement: float, shard_shots: int,
                 num_shards: int) -> dict:
    """Run both pipelines over the same shard plan; return the numbers."""
    job, cache, compiled = _compiled_point(
        distance, improvement, shard_shots * num_shards
    )
    dem_sampler = cache.dem_sampler(compiled)
    compiled.graph.shortest_paths()  # dijkstra priced into neither path
    frame_decoder = MwpmDecoder(compiled.graph)
    fast_decoder = MwpmDecoder(compiled.graph)
    shards = plan_shards(job.shots, shard_shots, MASTER_SEED, job.key)

    # Scoped telemetry registry: the fast path runs instrumented (the
    # same spans an engine shard records) without touching whatever
    # global configuration the caller has.
    tel = telemetry.Telemetry(enabled=True)
    previous = telemetry.get()

    t_frame_sample = t_naive_decode = 0.0
    t_dem_sample = t_dedup_decode = 0.0
    frame_failures = fast_failures = 0
    for shard in shards:
        t0 = time.perf_counter()
        sample = FrameSimulator(compiled.circuit, seed=shard.seed).sample(
            shard.shots
        )
        t1 = time.perf_counter()
        fails = (
            (_per_shot_decode(frame_decoder, sample.detectors) & 1)
            != sample.observables[:, 0]
        )
        t2 = time.perf_counter()
        t_frame_sample += t1 - t0
        t_naive_decode += t2 - t1
        frame_failures += int(fails.sum())

        # Packed-native fast path: the uint64 words flow from the
        # sampler straight into the decoder, exactly like an engine
        # shard — no boolean matrices in between.  The root "shard"
        # span makes the exclusive phase times additive, so their sum
        # is the fast path's wall clock.
        telemetry.set_active(tel)
        try:
            with tel.span("shard"):
                t0 = time.perf_counter()
                with tel.span("sample"):
                    packed = dem_sampler.sample_packed(
                        shard.shots, seed=shard.seed
                    )
                t1 = time.perf_counter()
                fails = fast_decoder.logical_failures_packed(
                    packed.det_words, packed.obs_words
                )
                t2 = time.perf_counter()
        finally:
            telemetry.set_active(previous)
        t_dem_sample += t1 - t0
        t_dedup_decode += t2 - t1
        fast_failures += int(fails.sum())

    shots = job.shots
    memo = fast_decoder.syndrome_memo()
    phases = tel.phase_totals()
    # Residue of the root span — time between the instrumented phases
    # (same accounting as the engine's per-shard "other").
    phases["other"] = phases.pop("shard", 0.0)
    t_fast = t_dem_sample + t_dedup_decode
    return {
        "gate_improvement": improvement,
        "distance": distance,
        "shots": shots,
        "shards": len(shards),
        "sampling": {
            "frame_shots_per_s": shots / t_frame_sample,
            "dem_shots_per_s": shots / t_dem_sample,
            "speedup": t_frame_sample / t_dem_sample,
        },
        "decoding": {
            "naive_decodes_per_s": shots / t_naive_decode,
            "dedup_decodes_per_s": shots / t_dedup_decode,
            "speedup": t_naive_decode / t_dedup_decode,
            "distinct_syndromes": len(memo),
            "memo_hits": memo.hits,
        },
        "end_to_end": {
            "frame_shots_per_s": shots / (t_frame_sample + t_naive_decode),
            "fastpath_shots_per_s": shots / (t_dem_sample + t_dedup_decode),
            "speedup": (t_frame_sample + t_naive_decode)
                       / (t_dem_sample + t_dedup_decode),
            "frame_failures": frame_failures,
            "fastpath_failures": fast_failures,
        },
        # Telemetry-attributed fast-path breakdown; coverage is the
        # phase-sum over the independently-timed wall clock (~1.0 when
        # the attribution machinery is honest).
        "phases": {name: phases[name] for name in ordered_phases(phases)},
        "phase_coverage": sum(phases.values()) / t_fast if t_fast else 0.0,
    }


def _bench_near_threshold(distance: int, improvement: float,
                          shots: int) -> dict:
    """Dedupe-hostile decoding point: scalar vs batched union-find.

    Near threshold almost every syndrome is distinct, so the memo and
    ``np.unique`` stop paying and raw per-syndrome decode cost rules.
    Corrections are asserted identical before anything is timed.
    """
    _, cache, compiled = _compiled_point(
        distance, improvement, shots, decoder="union_find"
    )
    sampler = cache.dem_sampler(compiled)
    packed = sampler.sample_packed(shots, seed=MASTER_SEED)
    detectors = packed.detectors  # boolean copy for the scalar reference

    scalar_uf = UnionFindDecoder(compiled.graph)
    batched_uf = UnionFindDecoder(compiled.graph)
    t0 = time.perf_counter()
    reference = _per_shot_decode(scalar_uf, detectors)
    t1 = time.perf_counter()
    batched = batched_uf.decode_packed_batch(packed.det_words)
    t2 = time.perf_counter()
    assert np.array_equal(reference, batched), (
        "batched union-find diverged from the scalar reference"
    )
    distinct = len(np.unique(packed.det_words, axis=0))
    return {
        "distance": distance,
        "gate_improvement": improvement,
        "decoder": "union_find",
        "shots": shots,
        "distinct_syndromes": int(distinct),
        "distinct_fraction": distinct / shots,
        "scalar_decodes_per_s": shots / (t1 - t0),
        "batched_decodes_per_s": shots / (t2 - t1),
        "speedup": (t1 - t0) / (t2 - t1),
    }


def _bench_mwpm_batched(distance: int, improvement: float,
                        shots: int) -> dict:
    """Deep below-threshold MWPM point: per-shot scalar decode vs the
    batched packed pipeline (unique -> memo -> vectorised kernels).

    This is the regime LER sweeps live in — sparse defect sets where
    the batched pair-enumeration / grouped-DP kernels replace the
    per-syndrome python matcher.  Corrections are asserted identical
    before anything is timed.
    """
    _, cache, compiled = _compiled_point(distance, improvement, shots)
    sampler = cache.dem_sampler(compiled)
    compiled.graph.shortest_paths()
    packed = sampler.sample_packed(shots, seed=MASTER_SEED)
    detectors = packed.detectors  # boolean copy for the scalar reference

    scalar = MwpmDecoder(compiled.graph)
    batched = MwpmDecoder(compiled.graph)
    t0 = time.perf_counter()
    reference = _per_shot_decode(scalar, detectors)
    t1 = time.perf_counter()
    fast = batched.decode_packed_batch(packed.det_words)
    t2 = time.perf_counter()
    assert np.array_equal(reference, fast), (
        "batched MWPM diverged from the scalar reference"
    )
    distinct = len(np.unique(packed.det_words, axis=0))
    return {
        "distance": distance,
        "gate_improvement": improvement,
        "decoder": "mwpm",
        "shots": shots,
        "distinct_syndromes": int(distinct),
        "distinct_fraction": distinct / shots,
        "scalar_decodes_per_s": shots / (t1 - t0),
        "batched_decodes_per_s": shots / (t2 - t1),
        "speedup": (t1 - t0) / (t2 - t1),
    }


def test_sampling_decoding_fastpath():
    if smoke():
        # (improvement, shard_shots, num_shards)
        distance, grid = 3, ((5.0, 256, 2),)
        near = _bench_near_threshold(3, 1.0, 1024)
        mwpm_batched = _bench_mwpm_batched(3, 5.0, 4096)
    else:
        # The 1x point records the noisy-regime trajectory; the paper's
        # 5x design point carries the acceptance assertions and gets a
        # realistic multi-shard budget so the cross-shard syndrome memo
        # amortises the way a real LER job's does.
        distance, grid = 5, ((1.0, 1024, 2), (5.0, 2048, 16))
        near = _bench_near_threshold(5, 1.0, 4096)
        # Deep below threshold (x20): sparse defect sets, the regime
        # where batched MWPM's vectorised kernels pay the most.
        mwpm_batched = _bench_mwpm_batched(5, 20.0, 65536)

    points = [
        _bench_point(distance, improvement, shard_shots, num_shards)
        for improvement, shard_shots, num_shards in grid
    ]

    header = (
        f"{'improve':>7}  {'frame smp/s':>11}  {'dem smp/s':>11}  "
        f"{'smp x':>6}  {'naive dec/s':>11}  {'dedup dec/s':>11}  "
        f"{'e2e x':>6}"
    )
    lines = [header, "-" * len(header)]
    for p in points:
        lines.append(
            f"{p['gate_improvement']:>7g}  "
            f"{p['sampling']['frame_shots_per_s']:>11.0f}  "
            f"{p['sampling']['dem_shots_per_s']:>11.0f}  "
            f"{p['sampling']['speedup']:>6.1f}  "
            f"{p['decoding']['naive_decodes_per_s']:>11.0f}  "
            f"{p['decoding']['dedup_decodes_per_s']:>11.0f}  "
            f"{p['end_to_end']['speedup']:>6.1f}"
        )
    mode = "smoke" if smoke() else "full"
    shots_summary = ", ".join(
        f"x{p['gate_improvement']:g}: {p['shots']}" for p in points
    )
    lines.append("")
    lines.append(
        f"near-threshold union-find (d={near['distance']}, "
        f"x{near['gate_improvement']:g}, {near['shots']} shots, "
        f"{near['distinct_fraction']:.0%} distinct): "
        f"scalar {near['scalar_decodes_per_s']:.0f}/s -> batched "
        f"{near['batched_decodes_per_s']:.0f}/s "
        f"({near['speedup']:.1f}x)"
    )
    lines.append(
        f"batched mwpm (d={mwpm_batched['distance']}, "
        f"x{mwpm_batched['gate_improvement']:g}, "
        f"{mwpm_batched['shots']} shots, "
        f"{mwpm_batched['distinct_fraction']:.0%} distinct): "
        f"scalar {mwpm_batched['scalar_decodes_per_s']:.0f}/s -> batched "
        f"{mwpm_batched['batched_decodes_per_s']:.0f}/s "
        f"({mwpm_batched['speedup']:.1f}x)"
    )
    top = max(points, key=lambda p: p["gate_improvement"])
    lines.append(
        f"fast-path phases (x{top['gate_improvement']:g}, coverage "
        f"{top['phase_coverage']:.0%}): "
        + format_phase_share(top["phases"])
    )
    lines.append(
        f"mode: {mode}; d={distance}; grid topology; mwpm; "
        f"shots per point: {shots_summary}; packed-native fast path"
    )
    publish("bench_sampling_decoding", "\n".join(lines))

    payload = {
        "benchmark": "bench_sampling_decoding",
        "smoke": smoke(),
        "packed_native": True,  # sampler words -> decoder, no round-trip
        "grid": {
            "code": "rotated_surface",
            "distance": distance,
            "topology": "grid",
            "decoder": "mwpm",
        },
        "points": points,
        "near_threshold": near,
        "mwpm_batched": mwpm_batched,
    }
    with open(BENCH_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    # The fast paths must never lose to their reference paths, even on
    # the CI smoke grid (this is the batched union-find's regression
    # gate: slower than the scalar loop fails the build).
    for p in points:
        assert p["sampling"]["speedup"] > 1.0, p
        assert p["end_to_end"]["speedup"] > 1.0, p
        assert p["phases"], "telemetry recorded no fast-path phases"
    assert near["speedup"] > 1.0, near
    assert mwpm_batched["speedup"] > 1.0, mwpm_batched
    if not smoke():
        # Attribution honesty gate: the telemetry phase totals must
        # reconstruct the independently-measured fast-path wall clock
        # to within 5% (smoke shots are too few for stable clocks).
        for p in points:
            assert abs(p["phase_coverage"] - 1.0) <= 0.05, (
                p["gate_improvement"], p["phase_coverage"], p["phases"]
            )
        # Acceptance targets at the paper's improved design point and
        # the dedupe-hostile near-threshold point.
        quiet = max(points, key=lambda p: p["gate_improvement"])
        assert quiet["sampling"]["speedup"] >= 5.0, quiet["sampling"]
        assert quiet["end_to_end"]["speedup"] >= 3.0, quiet["end_to_end"]
        assert near["speedup"] >= 3.0, near
        # Batched MWPM acceptance: >= 5x decode throughput over the
        # per-shot scalar matcher at the deep below-threshold point.
        assert mwpm_batched["speedup"] >= 5.0, mwpm_batched
