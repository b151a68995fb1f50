"""Execution-engine tests: sweep expansion, determinism across
backends and worker counts, adaptive shot allocation, worker payload
priming, compilation caching, JSONL resume, worker crash recovery and
shard-level checkpointing (fault fixtures shared with
``test_fault_tolerance.py`` via ``fault_helpers``)."""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.codes import RepetitionCode, UniformNoise, ideal_memory_circuit
from repro.engine import (
    CompilationCache,
    JobResult,
    MultiprocessBackend,
    ResultStore,
    Runner,
    SweepJob,
    SweepSpec,
    plan_shards,
    run_sweep,
)
from repro.ler import estimate_sweep
from repro.sim import FrameSimulator

SHOTS = 600
SHARD = 128


def small_spec(**overrides):
    base = dict(
        distances=(2, 3),
        capacities=(2,),
        gate_improvements=(1.0,),
        shots=SHOTS,
        rounds=2,
        master_seed=7,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSweepSpec:
    def test_expansion_is_deterministic_and_ordered(self):
        spec = small_spec(distances=(3, 2), decoders=("mwpm", "union_find"))
        jobs = spec.expand()
        assert len(jobs) == spec.num_jobs == 4
        assert [j.distance for j in jobs] == [3, 3, 2, 2]
        assert [j.decoder for j in jobs] == ["mwpm", "union_find"] * 2
        assert jobs == spec.expand()  # stable across calls

    def test_job_key_is_content_stable(self):
        job = small_spec().expand()[0]
        clone = SweepJob.from_dict(job.to_dict())
        assert clone == job
        assert clone.key == job.key
        other = small_spec(master_seed=8).expand()[0]
        assert other.key == job.key  # master seed is not job content

    def test_jobs_sharing_circuit_params(self):
        spec = small_spec(distances=(2,), decoders=("mwpm", "union_find"))
        a, b = spec.expand()
        assert a.circuit_params == b.circuit_params
        assert a.key != b.key

    def test_rounds_default_to_distance(self):
        spec = small_spec(rounds=None)
        assert [j.rounds for j in spec.expand()] == [2, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(distances=())
        with pytest.raises(ValueError):
            small_spec(topologies=("torus",))
        with pytest.raises(ValueError):
            small_spec(decoders=("bp",))
        with pytest.raises(ValueError):
            small_spec(code="color")
        with pytest.raises(ValueError):
            small_spec(shots=-1)
        with pytest.raises(ValueError):
            small_spec(rounds=0)

    def test_gate_improvements_below_one_rejected_at_construction(self):
        with pytest.raises(ValueError, match="gate_improvements must be >= 1"):
            SweepSpec(distances=(3,), gate_improvements=(1.0, 0.5), shots=64)

    def test_capacities_below_two_rejected_at_construction(self):
        with pytest.raises(ValueError, match="capacities must be >= 2"):
            SweepSpec(distances=(3,), capacities=(1,), shots=0)

    def test_unknown_basis_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown basis 'Q'"):
            SweepSpec(distances=(3,), basis="Q", shots=64)
        assert SweepSpec(distances=(3,), basis="X", shots=64).basis == "X"

    def test_bad_master_seed_rejected_at_construction(self):
        for seed in (-1, 1.5, "7"):
            with pytest.raises(ValueError, match="master_seed must be a non-negative"):
                SweepSpec(distances=(3,), master_seed=seed, shots=64)
        assert SweepSpec(distances=(3,), master_seed=0, shots=64).master_seed == 0


class TestShardPlanning:
    def test_layout_covers_shots_exactly(self):
        shards = plan_shards(1000, 300, master_seed=1, job_key="k")
        assert [s.shots for s in shards] == [300, 300, 300, 100]
        assert [s.index for s in shards] == [0, 1, 2, 3]

    def test_streams_are_deterministic_and_distinct(self):
        a = plan_shards(500, 200, master_seed=1, job_key="k")
        b = plan_shards(500, 200, master_seed=1, job_key="k")
        states = [s.seed.generate_state(2).tolist() for s in a]
        assert states == [s.seed.generate_state(2).tolist() for s in b]
        assert len({tuple(st) for st in states}) == len(states)

    def test_streams_depend_on_job_and_master_seed(self):
        base = plan_shards(200, 200, 1, "k")[0].seed.generate_state(2).tolist()
        other_job = plan_shards(200, 200, 1, "k2")[0].seed.generate_state(2).tolist()
        other_seed = plan_shards(200, 200, 2, "k")[0].seed.generate_state(2).tolist()
        assert base != other_job
        assert base != other_seed

    def test_empty_and_invalid(self):
        assert plan_shards(0, 100, 1, "k") == []
        with pytest.raises(ValueError):
            plan_shards(100, 0, 1, "k")


class TestSimulatorDeterminism:
    def test_same_seed_identical_sample_result(self):
        circ = ideal_memory_circuit(
            RepetitionCode(3), rounds=3, noise=UniformNoise(0.02)
        )
        a = FrameSimulator(circ, seed=11).sample(400)
        b = FrameSimulator(circ, seed=11).sample(400)
        assert np.array_equal(a.measurements, b.measurements)
        assert np.array_equal(a.detectors, b.detectors)
        assert np.array_equal(a.observables, b.observables)
        c = FrameSimulator(circ, seed=12).sample(400)
        assert not np.array_equal(a.measurements, c.measurements)

    def test_seed_sequence_stream_matches_itself(self):
        circ = ideal_memory_circuit(
            RepetitionCode(3), rounds=2, noise=UniformNoise(0.05)
        )
        ss = np.random.SeedSequence(42)
        a = FrameSimulator(circ, seed=np.random.SeedSequence(42)).sample(100)
        b = FrameSimulator(circ, seed=ss).sample(100)
        assert np.array_equal(a.detectors, b.detectors)


class TestBackendDeterminism:
    def test_serial_equals_multiprocess(self):
        # The acceptance grid: 2 distances x 3 noise points.
        spec = small_spec(gate_improvements=(1.0, 3.0, 5.0))
        cache = CompilationCache()
        serial = run_sweep(spec, cache=cache, shard_shots=SHARD)
        sharded = run_sweep(spec, workers=2, shard_shots=SHARD)
        assert len(serial) == 6
        assert [r.failures for r in serial] == [r.failures for r in sharded]
        assert [r.key for r in serial] == [r.key for r in sharded]
        # Each of the six unique circuits was compiled exactly once.
        assert cache.misses == 6 and cache.hits == 0

    def test_worker_count_does_not_change_failures(self):
        # Fixed-shot mode must stay bit-identical from serial up to a
        # 4-worker pool: the shard plan, not the scheduler, decides
        # what gets sampled.
        spec = small_spec()
        serial = run_sweep(spec, shard_shots=SHARD)
        totals = [[r.failures for r in serial]]
        for workers in (2, 4):
            with MultiprocessBackend(max_workers=workers) as backend:
                results = run_sweep(spec, backend=backend, shard_shots=SHARD)
            totals.append([r.failures for r in results])
        assert totals[0] == totals[1] == totals[2]

    def test_rerun_is_bit_identical(self):
        spec = small_spec(distances=(2,))
        first = run_sweep(spec, shard_shots=SHARD)
        second = run_sweep(spec, shard_shots=SHARD)
        assert [r.failures for r in first] == [r.failures for r in second]


class TestCompilationCache:
    def test_each_unique_circuit_compiled_exactly_once(self):
        # 2 distances x 2 decoders = 4 jobs but only 2 unique circuits.
        spec = small_spec(decoders=("mwpm", "union_find"))
        cache = CompilationCache()
        results = run_sweep(spec, cache=cache, shard_shots=SHARD)
        assert len(results) == 4
        assert cache.misses == 2
        assert cache.hits == 2
        assert cache.unique_circuits == 2

    def test_disk_cache_skips_dem_extraction(self, tmp_path):
        spec = small_spec(distances=(2,))
        first = CompilationCache(cache_dir=str(tmp_path))
        run_sweep(spec, cache=first, shard_shots=SHARD)
        assert first.misses == 1
        # Decoder-side DEM, sampler-side DEM.
        assert sorted(n.split(".", 1)[1] for n in os.listdir(tmp_path)) == [
            "dem.json", "sdem.json",
        ]
        fresh = CompilationCache(cache_dir=str(tmp_path))
        results = run_sweep(spec, cache=fresh, shard_shots=SHARD)
        assert fresh.misses == 0
        assert fresh.disk_hits == 1
        assert results[0].failures is not None

    def test_disk_cache_preserves_failure_counts(self, tmp_path):
        spec = small_spec(distances=(2,))
        a = run_sweep(spec, cache=CompilationCache(str(tmp_path)), shard_shots=SHARD)
        b = run_sweep(spec, cache=CompilationCache(str(tmp_path)), shard_shots=SHARD)
        assert [r.failures for r in a] == [r.failures for r in b]

    def test_corrupt_disk_entry_recompiles(self, tmp_path):
        spec = small_spec(distances=(2,))
        run_sweep(spec, cache=CompilationCache(str(tmp_path)), shard_shots=SHARD)
        [entry] = [n for n in os.listdir(tmp_path) if n.endswith(".dem.json")]
        (tmp_path / entry).write_text("{not json")
        cache = CompilationCache(str(tmp_path))
        run_sweep(spec, cache=cache, shard_shots=SHARD)
        assert cache.misses == 1
        assert cache.disk_hits == 0


class TestResultStoreResume:
    def test_resume_skips_completed_jobs(self, tmp_path):
        spec = small_spec()
        path = str(tmp_path / "results.jsonl")
        full = run_sweep(spec, results_path=path, shard_shots=SHARD)
        # Truncate to a partial store: keep the first job, corrupt tail.
        lines = open(path).read().splitlines()
        with open(path, "w") as fh:
            fh.write(lines[0] + "\n")
            fh.write('{"truncated')  # interrupted mid-write
        cache = CompilationCache()
        resumed = run_sweep(
            spec, results_path=path, cache=cache, shard_shots=SHARD
        )
        assert [r.failures for r in resumed] == [r.failures for r in full]
        assert resumed[0].resumed and not resumed[1].resumed
        # Only the incomplete job was compiled and sampled again.
        assert cache.misses == 1
        # Store is now complete: a third run does no work at all.
        cache2 = CompilationCache()
        third = run_sweep(spec, results_path=path, cache=cache2, shard_shots=SHARD)
        assert all(r.resumed for r in third)
        assert cache2.misses == 0

    def test_changed_run_config_is_not_resumed(self, tmp_path):
        # Same job key, different master seed: the stored sample is a
        # different experiment and must be re-run, not silently reused.
        path = str(tmp_path / "r.jsonl")
        spec_a = small_spec(distances=(2,), master_seed=1)
        spec_b = small_spec(distances=(2,), master_seed=2)
        assert spec_a.expand()[0].key == spec_b.expand()[0].key
        [first] = run_sweep(spec_a, results_path=path, shard_shots=SHARD)
        [second] = run_sweep(spec_b, results_path=path, shard_shots=SHARD)
        assert not second.resumed
        assert first.failures != second.failures or first.run_config != second.run_config
        # Different shard layout also invalidates the stored sample...
        [third] = run_sweep(spec_b, results_path=path, shard_shots=SHARD // 2)
        assert not third.resumed
        # ...while a true re-run resumes: the newest record wins.
        [fourth] = run_sweep(spec_b, results_path=path, shard_shots=SHARD // 2)
        assert fourth.resumed
        assert fourth.failures == third.failures

    def test_store_round_trips_results(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        spec = small_spec(distances=(2,))
        [result] = run_sweep(spec, store=store, shard_shots=SHARD)
        loaded = store.load()[result.key]
        assert isinstance(loaded, JobResult)
        assert loaded.failures == result.failures
        assert loaded.job == result.job
        assert loaded.metrics == json.loads(json.dumps(result.metrics))
        assert loaded.per_round == result.per_round

    def test_compile_only_jobs(self, tmp_path):
        spec = small_spec(shots=0)
        results = run_sweep(spec, results_path=str(tmp_path / "r.jsonl"))
        assert all(r.failures is None and r.ler is None for r in results)
        assert all(r.metrics["round_time_us"] > 0 for r in results)
        resumed = run_sweep(spec, results_path=str(tmp_path / "r.jsonl"))
        assert all(r.resumed for r in resumed)
        # Sampling config cannot invalidate a compile-only result.
        other_seed = small_spec(shots=0, master_seed=99)
        still = run_sweep(other_seed, results_path=str(tmp_path / "r.jsonl"))
        assert all(r.resumed for r in still)


class TestEstimateSweep:
    def test_engine_backed_ler_api(self):
        spec = small_spec(distances=(2,))
        [result] = estimate_sweep(spec, shard_shots=SHARD)
        ler = result.ler
        assert ler.shots == SHOTS
        assert ler.rounds == 2
        assert 0.0 < ler.per_shot < 1.0
        [direct] = run_sweep(spec, shard_shots=SHARD)
        assert direct.failures == result.failures


def adaptive_spec(**overrides):
    """d=2 is the noisy point (converges fast), d=3 the quiet one."""
    base = dict(
        distances=(2, 3),
        shots=128,
        target_failures=15,
        max_shots=2048,
        rounds=2,
        master_seed=7,
    )
    base.update(overrides)
    return small_spec(**base)


class TestAdaptiveAllocation:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="max_shots requires"):
            small_spec(max_shots=1000)
        with pytest.raises(ValueError, match="target_failures must be"):
            small_spec(target_failures=0)
        with pytest.raises(ValueError, match="initial tranche"):
            small_spec(shots=0, target_failures=5)
        with pytest.raises(ValueError, match="max_shots must be >="):
            small_spec(shots=100, target_failures=5, max_shots=50)
        # max_shots defaults to 100 tranches.
        spec = small_spec(shots=100, target_failures=5)
        assert spec.max_shots == 10000
        assert all(j.max_shots == 10000 for j in spec.expand())

    def test_adaptive_budget_is_job_content(self):
        fixed = small_spec(distances=(2,)).expand()[0]
        adaptive = adaptive_spec(distances=(2,), shots=SHOTS).expand()[0]
        assert fixed.key != adaptive.key
        assert not fixed.adaptive and adaptive.adaptive
        assert f"f{adaptive.target_failures}of{adaptive.max_shots}" in adaptive.key

    def test_early_stop_and_reinvestment(self):
        # The noisy point must retire at its failure target instead of
        # burning the whole budget; the quiet point keeps sampling.
        spec = adaptive_spec()
        noisy, quiet = run_sweep(spec, shard_shots=SHARD)
        assert noisy.job.distance == 2
        assert noisy.failures >= spec.target_failures
        assert noisy.shots < spec.max_shots
        assert noisy.extras["adaptive"]["converged"]
        assert quiet.shots > noisy.shots  # freed budget went to the
        # starved point (it runs on until target or cap)
        assert quiet.shots <= spec.max_shots
        if not quiet.extras["adaptive"]["converged"]:
            assert quiet.shots == spec.max_shots

    def test_serial_adaptive_is_deterministic(self):
        spec = adaptive_spec()
        a = run_sweep(spec, shard_shots=SHARD)
        b = run_sweep(spec, shard_shots=SHARD)
        assert [(r.shots, r.failures) for r in a] == [
            (r.shots, r.failures) for r in b
        ]

    def test_adaptive_multiprocess_converges(self):
        # Worker counts may change *how many* shards were in flight at
        # convergence (adaptive mode trades bit-identity for early
        # stopping), but never the target or budget contract.
        spec = adaptive_spec()
        results = run_sweep(spec, workers=2, shard_shots=SHARD)
        for result in results:
            adaptive = result.extras["adaptive"]
            assert result.shots <= spec.max_shots
            if adaptive["converged"]:
                assert result.failures >= spec.target_failures

    def test_shard_size_clamped_to_tranche(self):
        # shard_shots far above the tranche must not turn the initial
        # tranche into one giant shard: adaptivity granularity is the
        # tranche size.
        spec = adaptive_spec(distances=(2,), shots=64, max_shots=1024)
        [result] = run_sweep(spec, shard_shots=4096)
        assert result.shots <= 1024

    def test_resume_of_partially_converged_adaptive_sweep(self, tmp_path):
        path = str(tmp_path / "adaptive.jsonl")
        spec = adaptive_spec()
        full = run_sweep(spec, results_path=path, shard_shots=SHARD)
        # Interrupt signature: only the first (converged) job made it
        # into the store before the run died.
        lines = open(path).read().splitlines()
        with open(path, "w") as fh:
            fh.write(lines[0] + "\n")
        resumed = run_sweep(spec, results_path=path, shard_shots=SHARD)
        assert resumed[0].resumed and not resumed[1].resumed
        assert [(r.shots, r.failures) for r in resumed] == [
            (r.shots, r.failures) for r in full
        ]
        # A completed adaptive store resumes wholesale.
        third = run_sweep(spec, results_path=path, shard_shots=SHARD)
        assert all(r.resumed for r in third)


class TestPrecisionStopping:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="target_rel_stderr must be"):
            small_spec(target_rel_stderr=0.0)
        with pytest.raises(ValueError, match="initial tranche"):
            small_spec(shots=0, target_rel_stderr=0.5)
        # A precision target alone enables adaptive mode (max_shots
        # defaults to 100 tranches, as with target_failures).
        spec = small_spec(shots=100, target_rel_stderr=0.2)
        assert spec.max_shots == 10000
        assert all(j.adaptive for j in spec.expand())

    def test_precision_target_is_job_content(self):
        fixed = small_spec(distances=(2,)).expand()[0]
        precise = small_spec(
            distances=(2,), target_rel_stderr=0.25, max_shots=2048
        ).expand()[0]
        assert fixed.key != precise.key
        assert "rse0.25" in precise.key
        clone = SweepJob.from_dict(precise.to_dict())
        assert clone == precise and clone.key == precise.key

    def test_unset_precision_target_leaves_keys_bit_identical(self):
        # target_rel_stderr=None must hash exactly like releases that
        # had no such field, for both fixed and failure-target jobs.
        job = small_spec(distances=(2,)).expand()[0]
        stripped = {
            k: v for k, v in job.to_dict().items() if k != "target_rel_stderr"
        }
        assert SweepJob.from_dict(stripped).key == job.key
        adaptive = adaptive_spec(distances=(2,)).expand()[0]
        stripped = {
            k: v
            for k, v in adaptive.to_dict().items()
            if k != "target_rel_stderr"
        }
        assert SweepJob.from_dict(stripped).key == adaptive.key

    def test_noisy_point_retires_at_precision_bound(self):
        # d=2 fails often, so a loose relative-stderr bound is reached
        # long before the shot budget; the bound must hold at retirement.
        spec = adaptive_spec(
            distances=(2,), target_failures=None, target_rel_stderr=0.4,
            max_shots=4096,
        )
        [result] = run_sweep(spec, shard_shots=SHARD)
        assert result.extras["adaptive"]["converged"]
        assert result.extras["adaptive"]["target_rel_stderr"] == 0.4
        assert result.shots < spec.max_shots
        assert result.ler.rel_stderr <= 0.4

    def test_zero_failures_never_satisfies_precision(self):
        # With no observed failures the smoothed rel-stderr plateaus
        # near sqrt(2): the job must burn its budget, not retire early.
        from repro.engine.scheduler import JobState

        state = JobState("k", None, "mwpm", [], target_rel_stderr=1.0)
        state.shots_done = 10 ** 6
        assert not state.converged
        state.failures = 10
        assert state.converged

    def test_loose_precision_bound_cannot_retire_without_failures(self):
        # The zero-failure rel-stderr approaches sqrt(2) from *below*
        # (sqrt(2*(1-p))), so a bound like 1.4 would retire a fresh
        # zero-failure job without the explicit failures > 0 guard.
        from repro.engine.scheduler import JobState

        state = JobState("k", None, "mwpm", [], target_rel_stderr=1.4)
        state.shots_done = 2
        assert state.rel_stderr <= 1.4  # the trap the guard defuses
        assert not state.converged
        state.failures = 1
        assert state.converged

    def test_precision_only_stopping_through_estimator_api(self):
        # min_failures=None must reach the scheduler as a pure
        # precision target (otherwise the default failure count fires
        # first and caps the achievable precision).
        from repro.engine.runner import sample_circuit
        from repro.ler import estimate_until_failures

        circ = ideal_memory_circuit(
            RepetitionCode(2), rounds=2, noise=UniformNoise(0.05)
        )
        result = estimate_until_failures(
            circ, rounds=2, min_failures=None, target_rel_stderr=0.3,
            max_shots=40000, batch=200, seed=3,
        )
        assert result.failures > 0
        assert result.rel_stderr <= 0.3
        with pytest.raises(ValueError, match="min_failures and/or"):
            estimate_until_failures(circ, rounds=2, min_failures=None)
        # Without any target the engine function runs a fixed plan.
        assert sample_circuit(circ, 300, seed=3)[0] == 300

    def test_precision_convergence_latches(self):
        # rel_stderr *rises* with shots at fixed failures, so a
        # zero-failure in-flight shard landing after the bound was met
        # must not un-retire the job and resume submission.
        from repro.engine.scheduler import JobState

        state = JobState("k", None, "mwpm", [], target_rel_stderr=0.3)
        state.shots_done, state.failures = 100, 10
        assert state.rel_stderr <= 0.3
        assert state.converged
        state.shots_done = 5000  # straggler shards, no new failures
        assert state.rel_stderr > 0.3
        assert state.converged  # latched: the target was satisfied


class TestMemoStats:
    def test_memo_stats_flow_to_extras_and_summary(self, capsys):
        from repro.engine import ProgressReporter

        reporter = ProgressReporter(enabled=True, stream=sys.stdout)
        spec = small_spec(distances=(2,), shots=256)
        [result] = run_sweep(spec, shard_shots=64, progress=reporter)
        memo = result.extras["memo"]
        # Four shards of the same noisy circuit: the cross-shard memo
        # must see both misses (first sightings) and entries.
        assert memo["misses"] > 0
        assert memo["entries"] > 0
        assert memo["hits"] + memo["misses"] > 0
        out = capsys.readouterr().out
        assert "memo:" in out and "peak entries" in out

    def test_finish_accepts_missing_memo_stats(self, capsys):
        from repro.engine import ProgressReporter

        reporter = ProgressReporter(enabled=True, stream=sys.stdout)
        reporter.start(1)
        reporter.finish({"misses": 1})  # no memo stats at all
        assert "memo:" not in capsys.readouterr().out

    def test_memo_stats_cross_worker_aggregation(self):
        spec = small_spec(distances=(2,), shots=512)
        [result] = run_sweep(spec, workers=2, shard_shots=64)
        memo = result.extras["memo"]
        assert memo["misses"] > 0  # every worker decodes its first sightings


class CountingBackend(MultiprocessBackend):
    """Records every worker message so tests can audit priming traffic."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.primes: list[tuple[int, str]] = []
        self.shard_messages: list[tuple] = []

    def _send(self, worker, message):
        if message[0] == "prime":
            self.primes.append((worker, message[1]))
        elif message[0] == "shard":
            self.shard_messages.append(message)
        super()._send(worker, message)


class TestWorkerPriming:
    def test_dem_shipped_at_most_once_per_worker_per_circuit(self):
        # 2 circuits x 2 decoders, plenty of shards each.
        spec = small_spec(decoders=("mwpm", "union_find"))
        with CountingBackend(max_workers=2) as backend:
            results = run_sweep(spec, backend=backend, shard_shots=64)
        assert len(results) == 4
        # Priming happened, and never twice for the same (worker,
        # circuit) pair: the DEM payload crosses each process boundary
        # at most once per unique circuit.
        assert backend.primes
        assert len(backend.primes) == len(set(backend.primes))
        assert len(backend.primes) <= 2 * 2  # workers x unique circuits

    def test_shard_payloads_carry_no_dem(self):
        spec = small_spec(distances=(2,), shots=SHOTS)
        with CountingBackend(max_workers=2) as backend:
            run_sweep(spec, backend=backend, shard_shots=64)
        assert backend.shard_messages
        for message in backend.shard_messages:
            (kind, seq, circuit_key, decoder, shots, seed, epoch,
             offset, parent_shots) = message
            assert kind == "shard"
            assert isinstance(circuit_key, str) and len(circuit_key) == 64
            assert isinstance(decoder, str)
            assert isinstance(shots, int)
            # No nested payloads: the DEM JSON (dicts/lists) never
            # rides along with a shard.
            assert not any(
                isinstance(field, (dict, list, tuple)) for field in message
            )

    def test_adaptive_shard_payloads_carry_no_dem(self):
        # The acceptance-criteria grid: an adaptive sweep over
        # {d=3, d=5} stops sampling the high-LER point at its failure
        # target, and its shard payloads carry no DEM JSON.
        spec = adaptive_spec(distances=(3, 5), max_shots=16384)
        with CountingBackend(max_workers=2) as backend:
            results = run_sweep(spec, backend=backend, shard_shots=SHARD)
        noisy = max(results, key=lambda r: r.failures / r.shots)
        assert noisy.failures >= spec.target_failures
        assert noisy.shots < spec.max_shots
        assert noisy.extras["adaptive"]["converged"]
        assert all(
            not any(isinstance(f, (dict, list)) for f in message)
            for message in backend.shard_messages
        )


class TestSharedBackendAbort:
    def test_aborted_sweep_does_not_contaminate_next(self):
        # A caller-owned backend survives a mid-sweep abort; the shards
        # it still had in flight must be disowned, not absorbed into
        # the next sweep's failure counts.
        from repro.engine import ProgressReporter

        spec = small_spec()
        serial = run_sweep(spec, shard_shots=64)

        class Boom(Exception):
            pass

        class Exploding(ProgressReporter):
            def job_done(self, *args, **kwargs):
                raise Boom()  # abort while the other job's shards fly

        with MultiprocessBackend(max_workers=2) as backend:
            with pytest.raises(Boom):
                run_sweep(
                    spec, backend=backend, shard_shots=64,
                    progress=Exploding(enabled=False),
                )
            results = run_sweep(spec, backend=backend, shard_shots=64)
        assert [r.failures for r in results] == [r.failures for r in serial]


class TestInterruptPath:
    def test_sigint_reaches_parent_promptly(self, tmp_path):
        # A sweep sized to run for minutes: SIGINT must kill it in
        # seconds, not after the current job's last shard.
        script = (
            "from repro.engine import SweepSpec, run_sweep\n"
            "print('READY', flush=True)\n"
            "spec = SweepSpec(distances=(2,), rounds=2, shots=200_000_000,\n"
            "                 master_seed=3)\n"
            "run_sweep(spec, workers=2, shard_shots=2048)\n"
            "print('FINISHED', flush=True)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "READY"
            time.sleep(4)  # compile finishes, workers are sampling
            t0 = time.monotonic()
            proc.send_signal(signal.SIGINT)
            returncode = proc.wait(timeout=30)
            elapsed = time.monotonic() - t0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert returncode != 0  # KeyboardInterrupt, not a clean finish
        assert "FINISHED" not in proc.stdout.read()
        assert elapsed < 30


class TestStoreMemoization:
    def test_polling_does_not_reparse(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        spec = small_spec(distances=(2,), shots=0)
        run_sweep(spec, store=store)
        assert len(store) == 1
        reads = store.file_reads
        for _ in range(20):
            assert len(store) == 1
            assert len(store.completed_keys()) == 1
        assert store.file_reads == reads  # stat-only polling

    def test_append_keeps_memo_coherent(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        spec = small_spec(distances=(2, 3), shots=0)
        results = run_sweep(spec, store=store)
        loaded = store.load()
        assert set(loaded) == {r.key for r in results}
        assert all(r.resumed for r in loaded.values())

    def test_external_write_invalidates_memo(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(str(path))
        spec = small_spec(distances=(2,), shots=0)
        [result] = run_sweep(spec, store=store)
        assert len(store) == 1
        # Another process truncates the store behind our back.
        time.sleep(0.01)  # ensure a distinct mtime_ns on coarse clocks
        path.write_text("")
        assert len(store) == 0

    def test_reuse_requires_real_metrics(self, tmp_path):
        # A store line with an empty metrics dict (older format /
        # corrupt record) must not be resumed: it would poison every
        # record rebuilt from the store.
        path = str(tmp_path / "r.jsonl")
        spec = small_spec(distances=(2,), shots=0)
        [result] = run_sweep(spec, results_path=path)
        data = json.loads(open(path).read())
        data.pop("metrics")
        with open(path, "w") as fh:
            fh.write(json.dumps(data) + "\n")
        [rerun] = run_sweep(spec, results_path=path)
        assert not rerun.resumed
        assert rerun.metrics["round_time_us"] > 0
        # The repaired record supersedes the hollow one.
        [third] = run_sweep(spec, results_path=path)
        assert third.resumed and third.metrics


class TestShardCheckpoints:
    def test_shard_record_round_trip(self, tmp_path):
        from repro.engine import ShardRecord

        store = ResultStore(str(tmp_path / "r.jsonl"))
        record = ShardRecord(
            job_key="k", shard_index=3, shots=128, failures=2,
            elapsed_s=0.25, run_config={"master_seed": 7},
        )
        store.append_shard(record)
        loaded = store.load_shards("k")
        assert set(loaded) == {3}
        assert loaded[3].failures == 2
        assert loaded[3].run_config == {"master_seed": 7}
        # Shard lines are not job results.
        assert store.load() == {}
        # A fresh store object parses the same state from disk.
        fresh = ResultStore(str(tmp_path / "r.jsonl"))
        assert set(fresh.load_shards("k")) == {3}

    def test_final_job_record_supersedes_shards(self, tmp_path):
        # Compaction contract: once the job's final record lands, its
        # earlier shard checkpoints are dead weight — invisible to
        # load_shards and dropped by compact() — while checkpoints of
        # *unfinished* jobs survive.
        from repro.engine import ShardRecord

        path = str(tmp_path / "r.jsonl")
        store = ResultStore(path)
        spec = small_spec(distances=(2,))
        store.append_shard(ShardRecord("other-unfinished", 0, 64, 1))
        [result] = run_sweep(spec, store=store, shard_shots=SHARD)
        # The runner checkpointed shards, then the final record
        # superseded them (and run() compacted the store).
        assert store.load_shards(result.key) == {}
        assert set(store.load_shards("other-unfinished")) == {0}
        assert result.key in store.load()
        lines = open(path).read().splitlines()
        assert sum(1 for l in lines if '"shard"' in l) == 1  # the orphan

    def test_compact_drops_superseded_lines(self, tmp_path):
        from repro.engine import ShardRecord

        path = str(tmp_path / "r.jsonl")
        store = ResultStore(path)
        spec = small_spec(distances=(2,), shots=0)
        [result] = run_sweep(spec, store=store)
        # Hand-append stale shard lines *before* a duplicate final
        # record, plus a live orphan checkpoint.
        with open(path) as fh:
            job_line = fh.read().strip()
        with open(path, "a") as fh:
            fh.write(json.dumps(
                ShardRecord(result.key, 0, 64, 1).to_jsonable()) + "\n")
            fh.write(job_line + "\n")  # re-recorded job: supersedes
            fh.write(json.dumps(
                ShardRecord("unfinished", 5, 64, 0).to_jsonable()) + "\n")
        fresh = ResultStore(path)
        dropped = fresh.compact()
        assert dropped == 2  # stale shard + older duplicate job record
        assert fresh.compact() == 0  # idempotent
        assert result.key in fresh.load()
        assert set(fresh.load_shards("unfinished")) == {5}

    def test_legacy_store_without_shard_lines_resumes(self, tmp_path):
        # Pre-checkpointing stores hold only job records; they must
        # load, resume and report no shards.
        path = str(tmp_path / "legacy.jsonl")
        spec = small_spec()
        full = run_sweep(spec, results_path=path, shard_shots=SHARD)
        # Rewrite as a "legacy" file: job lines only, no shard lines
        # (the live path already compacts, so just assert + reload).
        lines = open(path).read().splitlines()
        assert all('"shard"' not in line for line in lines)
        store = ResultStore(path)
        assert store.load_shards(full[0].key) == {}
        resumed = run_sweep(spec, results_path=path, shard_shots=SHARD)
        assert all(r.resumed for r in resumed)

    def test_checkpointing_can_be_disabled(self, tmp_path):
        from fault_helpers import AbortingSerialBackend, SweepAborted

        path = str(tmp_path / "r.jsonl")
        spec = small_spec(distances=(2,))
        with pytest.raises(SweepAborted):
            run_sweep(spec, results_path=path, shard_shots=SHARD,
                      backend=AbortingSerialBackend(2),
                      checkpoint_shards=False)
        # No shard lines were written — with no completed job either,
        # the store may not even exist yet.
        assert not os.path.exists(path) or '"shard"' not in open(path).read()

    def test_mismatched_run_config_shards_are_not_credited(self, tmp_path):
        # Shards checkpointed under another master seed are a different
        # experiment: the resumed run must re-sample from scratch.
        from fault_helpers import (
            AbortingSerialBackend,
            CountingSerialBackend,
            SweepAborted,
        )

        path = str(tmp_path / "r.jsonl")
        spec_a = small_spec(distances=(2,), master_seed=1)
        spec_b = small_spec(distances=(2,), master_seed=2)
        with pytest.raises(SweepAborted):
            run_sweep(spec_a, results_path=path, shard_shots=SHARD,
                      backend=AbortingSerialBackend(2))
        assert ResultStore(path).load_shards(spec_a.expand()[0].key)
        backend = CountingSerialBackend()
        [result] = run_sweep(spec_b, results_path=path, shard_shots=SHARD,
                             backend=backend)
        # All 5 shards ran fresh; nothing was credited across seeds.
        assert len(backend.executed) == 5
        [reference] = run_sweep(spec_b, shard_shots=SHARD)
        assert result.failures == reference.failures


class TestWorkerCrashRecovery:
    def test_flaky_backend_recovery_matches_serial(self):
        # The shared fault fixture: drop a virtual worker mid-sweep;
        # the scheduler resubmits its shards with original seeds.
        from fault_helpers import FlakyBackend

        spec = small_spec()
        serial = run_sweep(spec, shard_shots=SHARD)
        backend = FlakyBackend(workers=2, drop_worker=1, drop_after=2)
        recovered = run_sweep(spec, backend=backend, shard_shots=SHARD)
        assert [r.failures for r in recovered] == [r.failures for r in serial]

    def test_multiprocess_worker_sigkill_recovers(self):
        # A real worker process SIGKILLed mid-sweep: the MP backend
        # disowns its shards and the sweep finishes bit-identically.
        spec = small_spec()
        serial = run_sweep(spec, shard_shots=64)

        class Killing(MultiprocessBackend):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.outcomes_seen = 0
                self.killed = False

            def _handle(self, message):
                outcome = super()._handle(message)
                if outcome is not None:
                    self.outcomes_seen += 1
                    if not self.killed and self.outcomes_seen >= 2:
                        self.killed = True
                        self._procs[0].kill()
                return outcome

        with Killing(max_workers=2) as backend:
            results = run_sweep(spec, backend=backend, shard_shots=64)
            assert backend.killed
        assert [r.failures for r in results] == [r.failures for r in serial]

    def test_queued_retry_keeps_job_alive(self):
        # Regression: when a lost shard's retry cannot be resubmitted
        # immediately (no capacity on the survivors), the job's other
        # outcomes landing must NOT complete the job — it is still owed
        # the lost sample.  The bug finalized the job early (short of
        # shots) and then a second time when the retry landed, which
        # corrupted the unfinished-job count and dropped a later job.
        from types import SimpleNamespace

        from repro.engine import JobState, ShardOutcome, StreamScheduler

        class Scripted:
            capacity = 2

            def __init__(self):
                self.submitted = []
                self.lost = []
                self.results = []

            def submit(self, task, compiled, cache):
                self.submitted.append(task)

            def take_lost(self):
                lost, self.lost = self.lost, []
                return lost

            def poll(self):
                out, self.results = self.results, []
                return out

            def wait(self):
                return self.poll()

        backend = Scripted()
        scheduler = StreamScheduler(backend, cache=None)
        plan = plan_shards(256, 128, master_seed=1, job_key="job")
        state = JobState("job", SimpleNamespace(key="c"), "mwpm", plan)
        assert scheduler.add(state) == []
        assert [t.seq for t in backend.submitted] == [0, 1]
        # Shard 1's worker dies; the pool shrinks to one busy slot.
        backend.lost = [1]
        backend.capacity = 1
        # One drain step: the loss is reaped but cannot resubmit yet;
        # shard 0 lands.  The job must stay open.
        scheduler._fill()
        scheduler._absorb([ShardOutcome(0, "job", 128, 3)])
        assert scheduler._pop_completed() == []
        assert state.inflight == 1  # the queued retry holds the job
        # Capacity freed: the retry goes out with its original seed.
        scheduler._fill()
        assert [t.seq for t in backend.submitted] == [0, 1, 1]
        assert backend.submitted[1].seed is backend.submitted[2].seed
        scheduler._absorb([ShardOutcome(1, "job", 128, 2)])
        assert scheduler._pop_completed() == [state]
        assert (state.shots_done, state.failures) == (256, 5)

    def test_capacity_shrinks_with_dead_workers(self):
        from repro.engine.pool import _Connection

        backend = MultiprocessBackend(max_workers=3)
        assert backend.capacity == 6  # not started: configured size rules
        backend._conns = [_Connection(f"mp:{w}", None) for w in range(3)]
        backend._conns[0].alive = False
        assert backend.capacity == 4  # 2 survivors x queue_depth
        for conn in backend._conns:
            conn.alive = False
        assert backend.capacity == 2  # floor of one slot x queue_depth

    def test_negative_worker_count_rejected_at_construction(self):
        with pytest.raises(ValueError, match="max_workers"):
            MultiprocessBackend(max_workers=-1)
        # None and 0 still mean one worker per CPU core.
        cores = os.cpu_count() or 2
        assert MultiprocessBackend(max_workers=None).max_workers == cores
        assert MultiprocessBackend(max_workers=0).max_workers == cores

    def test_new_scheduler_fences_off_stale_session_state(self):
        # A reply to an abandoned shard can outlive its sweep on a
        # shared backend's socket; since task seqs restart at 0 per
        # scheduler, attaching a new scheduler must bump the epoch (so
        # the stale message is droppable).
        from repro.engine import StreamScheduler

        backend = MultiprocessBackend(max_workers=2)
        epoch = backend._epoch
        StreamScheduler(backend, cache=None)
        assert backend._epoch == epoch + 1


class TestProgressReporter:
    def test_finish_tolerates_partial_cache_stats(self, capsys):
        from repro.engine import ProgressReporter

        reporter = ProgressReporter(enabled=True, stream=sys.stdout)
        reporter.start(1)
        reporter.job_done("k", 3, 0.1, shots=600)
        reporter.finish({"misses": 2})  # no hits / disk_hits keys
        out = capsys.readouterr().out
        assert "2 compiled" in out
        assert "0 hits" in out
        assert "failures=3/600 shots" in out


class TestExplorerSweep:
    def test_records_match_evaluate_metrics(self):
        from repro.toolflow import DesignSpaceExplorer

        explorer = DesignSpaceExplorer()
        spec = small_spec(distances=(3,), shots=0)
        [record] = explorer.sweep(spec)
        reference = explorer.evaluate(3, capacity=2, rounds=2)
        assert record.round_time_us == reference.round_time_us
        assert record.electrodes == reference.electrodes
        assert record.num_traps == reference.num_traps
        assert record.extras["decoder"] == "mwpm"

    def test_code_mismatch_rejected(self):
        from repro.toolflow import DesignSpaceExplorer

        explorer = DesignSpaceExplorer(code_name="repetition")
        with pytest.raises(ValueError, match="disagrees"):
            explorer.sweep(small_spec(distances=(3,), shots=0))


class TestSamplerSelection:
    # A job record exactly as stores have written it since the DEM
    # sampler became the default, and the key it hashes to.
    RECORD = (
        '{"code": "repetition", "distance": 3, "capacity": 2, '
        '"topology": "switch", "wiring": "standard", "gate_improvement": '
        '1.0, "decoder": "mwpm", "rounds": 2, "shots": 512, "basis": "Z", '
        '"target_failures": 10, "max_shots": 5000, "sampler": "dem", '
        '"target_rel_stderr": 0.1, "router": "layered", '
        '"placer": "projection"}'
    )
    KEY = ("repetition-d3-c2-switch-standard-layered-x1-mwpm-r2-n512-"
           "f10-rse0.1of5000-246b28f12171")

    def test_job_record_line_format_and_key_are_stable(self):
        job = SweepJob.from_dict(json.loads(self.RECORD))
        # Re-serialised, the line loses only its "placer" entry: jobs
        # no longer carry one (placement has a single scheme).
        assert json.dumps(job.to_dict()) == self.RECORD.replace(
            ', "placer": "projection"', "")
        assert job.key == self.KEY

    def test_from_dict_refuses_removed_placers(self):
        window = {**json.loads(self.RECORD), "placer": "window"}
        with pytest.raises(ValueError, match="removed strategy"):
            SweepJob.from_dict(window)
        unplaced = json.loads(self.RECORD)
        del unplaced["placer"]
        assert SweepJob.from_dict(unplaced).key == self.KEY

    def test_store_never_credits_a_removed_placer_record(self, tmp_path):
        # A record of the same design point compiled with the removed
        # "window" placer: rebuilt as a projection job it would hand
        # its failure count to that job on resume.  The sweep must run
        # the job afresh, match an empty store, and keep the line.
        spec = small_spec(distances=(2,))
        [fresh] = run_sweep(spec, results_path=str(tmp_path / "a.jsonl"),
                            shard_shots=SHARD)
        [line] = (tmp_path / "a.jsonl").read_text().splitlines()
        window = json.loads(line)
        window["job"]["placer"] = "window"
        window["metrics"]["placer"] = "window"
        window["failures"] = SHOTS
        window = json.dumps(window)
        path = tmp_path / "r.jsonl"
        path.write_text(window + "\n")
        assert ResultStore(str(path)).load() == {}
        [rerun] = run_sweep(spec, results_path=str(path), shard_shots=SHARD)
        assert not rerun.resumed
        assert rerun.key == fresh.key
        assert (rerun.shots, rerun.failures) == (fresh.shots, fresh.failures)
        assert fresh.failures != SHOTS
        assert path.read_text().splitlines()[0] == window

    def test_older_projection_records_resume_under_their_key(self, tmp_path):
        # Lines written while jobs carried "placer": "projection" (in
        # the job and in its metrics) resume, and rebuild as records.
        from repro.toolflow import DesignSpaceExplorer

        spec = small_spec(distances=(2,))
        path = tmp_path / "r.jsonl"
        [fresh] = run_sweep(spec, results_path=str(path), shard_shots=SHARD)
        [line] = path.read_text().splitlines()
        older = json.loads(line)
        older["job"]["placer"] = "projection"
        older["metrics"]["placer"] = "projection"
        path.write_text(json.dumps(older) + "\n")
        [record] = DesignSpaceExplorer().sweep(
            spec, results_path=str(path), shard_shots=SHARD)
        assert record.extras["job_key"] == fresh.key
        assert (record.shots, record.failures) == (fresh.shots, fresh.failures)
        assert path.read_text().splitlines() == [json.dumps(older)]

    def test_from_dict_rejects_non_dem_records(self):
        frame = {**json.loads(self.RECORD), "sampler": "frame"}
        legacy = json.loads(self.RECORD)
        del legacy["sampler"]
        for data in (frame, legacy):
            with pytest.raises(ValueError, match="not a DEM-sampled"):
                SweepJob.from_dict(data)

    def test_store_resumes_only_dem_records(self, tmp_path):
        # A store in the established line format holding a DEM record,
        # a frame-sampled record and a record from before the DEM
        # sampler (no sampler field) for the same design point.  The
        # later two are written last, so if they were rebuilt as DEM
        # jobs they would win on resume; they must be skipped instead.
        path = tmp_path / "r.jsonl"
        spec = small_spec(distances=(2,))
        [dem] = run_sweep(spec, results_path=str(path), shard_shots=SHARD)
        [line] = path.read_text().splitlines()
        record = json.loads(line)
        assert record["job"]["sampler"] == "dem"
        frame = json.loads(line)
        frame["job"]["sampler"] = "frame"
        frame["failures"] = SHOTS
        legacy = json.loads(line)
        del legacy["job"]["sampler"]
        legacy["failures"] = SHOTS - 1
        with open(path, "a") as fh:
            for other in (frame, legacy):
                fh.write(json.dumps(other) + "\n")
        assert list(ResultStore(str(path)).load()) == [dem.key]
        [resumed] = run_sweep(spec, results_path=str(path), shard_shots=SHARD)
        assert resumed.resumed
        assert resumed.key == dem.key
        assert resumed.failures == dem.failures
        assert dem.failures not in (SHOTS, SHOTS - 1)

    def test_sampling_sweep_keeps_foreign_records(self, tmp_path):
        # A sweep that samples checkpoints shards and then compacts the
        # store; the frame-sampled and pre-DEM-sampler records it cannot
        # load are well-formed, not corrupt, and must survive that.
        spec = small_spec(distances=(2,))
        [dem] = run_sweep(spec, results_path=str(tmp_path / "dem.jsonl"),
                          shard_shots=SHARD)
        [line] = (tmp_path / "dem.jsonl").read_text().splitlines()
        frame = json.loads(line)
        frame["job"]["sampler"] = "frame"
        legacy = json.loads(line)
        del legacy["job"]["sampler"]
        foreign = [json.dumps(frame), json.dumps(legacy)]
        path = tmp_path / "mixed.jsonl"
        path.write_text("".join(f + "\n" for f in foreign))
        runner = Runner(spec, results_path=str(path), shard_shots=SHARD)
        [fresh] = runner.run()
        assert not fresh.resumed
        assert fresh.failures == dem.failures
        assert runner._checkpointed
        lines = path.read_text().splitlines()
        assert lines[:2] == foreign
        assert len(lines) == 3
        assert json.loads(lines[2])["job"]["sampler"] == "dem"

    def test_dem_sweep_serial_equals_multiprocess(self):
        spec = small_spec()  # default sampler: dem
        serial = run_sweep(spec, shard_shots=SHARD)
        sharded = run_sweep(spec, workers=2, shard_shots=SHARD)
        assert [r.failures for r in serial] == [r.failures for r in sharded]


class TestDiskCacheEviction:
    def test_size_bound_evicts_lru(self, tmp_path):
        cache = CompilationCache(cache_dir=str(tmp_path))
        spec = small_spec(distances=(2, 3))
        run_sweep(spec, cache=cache, shard_shots=SHARD)
        paths = sorted(tmp_path.iterdir())
        # 2 circuits x (dem.json + sdem.json)
        assert len(paths) == 4
        total_mb = sum(p.stat().st_size for p in paths) / 1e6
        # Refresh recency so the d=3 entries are the newest, then make
        # a bounded cache re-store something: the oldest (d=2) entries
        # must go first.
        old = [p for p in paths if "dem.json" in p.name]
        import time as _time

        for p in tmp_path.iterdir():
            os.utime(p, (1, 1))
        bounded = CompilationCache(
            cache_dir=str(tmp_path), max_disk_mb=total_mb / 2
        )
        jobs = spec.expand()
        from repro.engine.runner import compile_design_point
        from repro.noise.parameters import DEFAULT_NOISE

        art = compile_design_point(jobs[0], DEFAULT_NOISE, need_circuit=True)
        # Force a fresh write: same content, but routed through a cache
        # whose budget is half the directory.
        for p in tmp_path.iterdir():
            p.unlink()
        compiled = bounded.compiled(art.circuit, art.text)
        bounded.decoder(compiled, "mwpm")
        art2 = compile_design_point(jobs[1], DEFAULT_NOISE, need_circuit=True)
        compiled2 = bounded.compiled(art2.circuit, art2.text)
        bounded.decoder(compiled2, "mwpm")
        remaining = sum(p.stat().st_size for p in tmp_path.iterdir())
        assert remaining <= bounded.max_disk_mb * 1024 * 1024
        assert bounded.evictions > 0

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = CompilationCache(cache_dir=str(tmp_path))
        run_sweep(small_spec(distances=(2, 3)), cache=cache, shard_shots=SHARD)
        assert cache.evictions == 0
        assert len(list(tmp_path.iterdir())) == 4

    def test_read_refreshes_recency(self, tmp_path):
        spec = small_spec(distances=(2,))
        run_sweep(spec, cache=CompilationCache(str(tmp_path)), shard_shots=SHARD)
        [dem_path] = [p for p in tmp_path.iterdir() if p.name.endswith(".dem.json")]
        os.utime(dem_path, (1, 1))
        before = dem_path.stat().st_mtime_ns
        fresh = CompilationCache(cache_dir=str(tmp_path))
        run_sweep(spec, cache=fresh, shard_shots=SHARD)
        assert fresh.disk_hits == 1
        assert dem_path.stat().st_mtime_ns > before

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            CompilationCache(max_disk_mb=0)

    def test_mixed_decoder_pool_sweep_matches_serial(self):
        # A union_find shard primes a (worker, circuit) pair before any
        # MWPM shard reaches it; the worker's MWPM decoder then builds
        # its shortest paths from the primed graph, decoding exactly as
        # the serial backend does.
        spec = small_spec(distances=(2,), decoders=("union_find", "mwpm"))
        serial = run_sweep(spec, shard_shots=64)
        with CountingBackend(max_workers=2) as backend:
            pooled = run_sweep(spec, backend=backend, shard_shots=64)
        assert len(pooled) == 2
        assert [r.failures for r in pooled] == [r.failures for r in serial]


class TestCompileDesignPoint:
    @pytest.mark.parametrize("topology", ["grid", "switch"])
    def test_places_once_and_reports_the_placed_resources(
        self, topology, monkeypatch
    ):
        """A design point is placed once, by its compile, and reports the
        resources of a fresh placement of the same point."""
        import repro.core.compiler as compiler_module
        from repro.arch.wiring import wiring_by_name
        from repro.codes import make_code
        from repro.engine.runner import compile_design_point
        from repro.noise.parameters import DEFAULT_NOISE

        place = compiler_module.place
        calls = []

        def counting_place(*args, **kwargs):
            calls.append(args)
            return place(*args, **kwargs)

        monkeypatch.setattr(compiler_module, "place", counting_place)
        [job] = small_spec(distances=(3,), topologies=(topology,)).expand()
        metrics = compile_design_point(job, DEFAULT_NOISE, False).metrics
        assert len(calls) == 1
        device = place(make_code(job.code, 3), job.capacity, topology).device
        resources = wiring_by_name(job.wiring).resources(device)
        for name in ("num_traps", "num_junctions", "electrodes", "num_dacs",
                     "data_rate_bitps", "power_w"):
            assert metrics[name] == getattr(resources, name)
