"""Sweep job execution: sharding, the serial backend, and the Runner.

The runner walks a :class:`~repro.engine.sweep.SweepSpec`'s job list,
compiles each unique circuit exactly once through the
:class:`~repro.engine.cache.CompilationCache`, and streams the
Monte-Carlo sampling through the cross-job shard scheduler
(:mod:`repro.engine.scheduler`) over a pluggable backend:

- :class:`SerialBackend` runs every shot shard in-process;
- :class:`~repro.engine.pool.MultiprocessBackend` fans shards out over
  local worker processes, and
  :class:`~repro.engine.remote.RemoteBackend` over ``repro-worker``
  processes on other machines.  Both are one worker pool
  (:mod:`repro.engine.pool`): every worker runs the same loop
  (:mod:`repro.engine.worker`) over one socket, is primed at most once
  per unique circuit (both DEM payloads), builds its own decoders (an
  MWPM worker runs its own all-pairs search inside its first shard's
  elapsed time, so a pool sweep's driver-side ``dijkstra`` phase reads
  0), and afterwards receives only ``(circuit key, decoder, shots,
  seed)`` shard messages.  A dead worker does not
  kill the sweep: its in-flight shards are disowned into a lost list
  the scheduler reaps (``take_lost``) and resubmits to survivors with
  their original seeds.

Every backend consumes the *same* shard plan: a job's shots are split
into fixed-size shards, and shard ``i`` samples from an independent
RNG stream spawned via ``np.random.SeedSequence`` from the sweep's
master seed and the job key.  Fixed-shot failure totals are therefore
bit-identical across backends and across worker counts — parallelism
changes only where a shard runs, never what it samples.  Adaptive jobs
(``target_failures`` set) trade that equivalence for early stopping:
the scheduler retires them at their failure target and reinvests the
freed capacity in unconverged design points.

:func:`sample_circuit` runs one ad-hoc circuit (no design point, no
store) through the same cache, shard plan and scheduler; it is the
sampler behind :func:`repro.ler.estimate_logical_error_rate` and
:func:`repro.ler.estimate_until_failures`.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..arch.wiring import wiring_by_name
from ..codes import make_code
from ..core.compiler import CompilerConfig, QccdCompiler
from ..core.stim_export import program_to_circuit
from ..noise.parameters import DEFAULT_NOISE, NoiseParameters
from ..sim.circuit import StabilizerCircuit
from ..telemetry import get as active_telemetry
from .cache import CompilationCache, CompiledCircuit
from .pool import MultiprocessBackend
from .progress import make_progress
from .results import JobResult, ResultStore, ShardRecord
from .scheduler import JobState, ShardOutcome, ShardTask, StreamScheduler
from .sweep import SweepJob, SweepSpec
from .worker import Shard, sample_shard


DEFAULT_SHARD_SHOTS = 2048

# Canonical phase ordering for display and worker-lane trace synthesis:
# the pipeline order, then anything novel alphabetically after.
PHASE_ORDER = (
    "compile", "compile.translate", "compile.place", "compile.route",
    "compile.schedule", "dem", "dijkstra", "sample", "sample.draw",
    "sample.place", "sample.xor", "unique", "memo", "decode", "scatter",
    "other",
)


def ordered_phases(phases: dict) -> list[str]:
    """Phase names in canonical pipeline order (unknown names last)."""
    rank = {name: i for i, name in enumerate(PHASE_ORDER)}
    return sorted(phases, key=lambda name: (rank.get(name, len(rank)), name))


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
def plan_shards(
    shots: int,
    shard_shots: int,
    master_seed: int,
    job_key: str,
) -> list[Shard]:
    """Deterministic shard layout for one job.

    The layout depends only on (shots, shard_shots, master_seed,
    job_key) — never on the backend or worker count — which is what
    makes sharded and serial execution agree exactly.
    """
    if shots <= 0:
        return []
    if shard_shots < 1:
        raise ValueError("shard_shots must be positive")
    n = math.ceil(shots / shard_shots)
    digest = int.from_bytes(hashlib.sha256(job_key.encode()).digest()[:8], "big")
    children = np.random.SeedSequence((master_seed, digest)).spawn(n)
    shards = []
    remaining = shots
    for i, child in enumerate(children):
        take = min(shard_shots, remaining)
        shards.append(Shard(index=i, shots=take, seed=child))
        remaining -= take
    return shards


# ----------------------------------------------------------------------
# Execution backends (streaming interface: capacity / submit / poll / wait)
# ----------------------------------------------------------------------
def abort_backend(backend, owned: bool) -> None:
    """Abort-path cleanup shared by every sweep entry point.

    An owned backend dies with the sweep (hard ``terminate`` — a
    graceful close would wait for every queued shard).  A caller-owned
    backend stays alive but must disown its in-flight shards, or a
    later sweep sharing it could absorb this sweep's abandoned
    results.
    """
    if owned:
        backend.terminate()
        return
    abandon = getattr(backend, "abandon_pending", None)
    if abandon is not None:
        abandon()


class SerialBackend:
    """Runs every shard in-process, reusing the parent's cache.

    ``submit`` executes the shard synchronously and buffers the
    outcome, so the scheduler's stream drains eagerly — serial adaptive
    sampling is exactly "one shard at a time until converged".
    """

    name = "serial"
    capacity = 1

    def __init__(self):
        self._outcomes: list[ShardOutcome] = []

    def supports_windows(self) -> bool:
        """Windowed (stolen) sub-shards run fine in-process — though
        with capacity 1 the scheduler never actually steals here."""
        return True

    def submit(
        self, task: ShardTask, compiled: CompiledCircuit, cache: CompilationCache
    ) -> None:
        t0 = time.perf_counter()
        decoder = cache.decoder(compiled, task.decoder)
        failures, memo, phases = sample_shard(
            decoder,
            Shard(task.shard_index, task.shots, task.seed,
                  offset=task.offset, parent_shots=task.parent_shots),
            cache.dem_sampler(compiled),
        )
        # worker stays "" — in-process spans already recorded real trace
        # events, so the driver must not synthesize a worker lane too.
        self._outcomes.append(
            ShardOutcome(
                task.seq, task.job_key, task.shots, failures,
                time.perf_counter() - t0, *memo, phases=phases,
            )
        )

    def poll(self) -> list[ShardOutcome]:
        out, self._outcomes = self._outcomes, []
        return out

    def wait(self) -> list[ShardOutcome]:
        return self.poll()

    def abandon_pending(self) -> None:
        """Drop buffered outcomes from an aborted sweep."""
        self._outcomes = []

    def close(self) -> None:
        pass

    def terminate(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        pass


# ----------------------------------------------------------------------
# Job compilation (design point -> noisy circuit + metrics)
# ----------------------------------------------------------------------
@dataclass
class JobArtifacts:
    """Parent-side compilation products shared by jobs with equal
    ``circuit_params``."""

    metrics: dict
    extras: dict = field(default_factory=dict)
    circuit: StabilizerCircuit | None = None
    text: str | None = None


def compile_design_point(
    job: SweepJob,
    noise: NoiseParameters,
    need_circuit: bool,
) -> JobArtifacts:
    """Run one design point through compile -> schedule -> resources,
    optionally exporting the noisy stabilizer circuit for sampling."""
    wiring_method = wiring_by_name(job.wiring)
    code = make_code(job.code, job.distance)
    config = CompilerConfig(
        code=code,
        trap_capacity=job.capacity,
        topology=job.topology,
        wiring=wiring_method,
        rounds=job.rounds,
        basis=job.basis,
        router=job.router,
    )
    program = QccdCompiler(config).compile()
    resources = wiring_method.resources(program.device)
    metrics = {
        "code": job.code,
        "distance": job.distance,
        "capacity": job.capacity,
        "topology": job.topology,
        "wiring": wiring_method.name,
        "router": job.router,
        "gate_improvement": job.gate_improvement,
        "rounds": job.rounds,
        "round_time_us": program.stats.round_time_us,
        "makespan_us": program.stats.makespan_us,
        "movement_ops": program.stats.movement_ops,
        "movement_time_us": program.stats.movement_time_us,
        "gate_swaps": program.stats.gate_swaps,
        "num_traps": resources.num_traps,
        "num_junctions": resources.num_junctions,
        "electrodes": resources.electrodes,
        "num_dacs": resources.num_dacs,
        "data_rate_bitps": resources.data_rate_bitps,
        "power_w": resources.power_w,
    }
    artifacts = JobArtifacts(metrics=metrics)
    if need_circuit:
        point_noise = noise.improved(job.gate_improvement)
        if wiring_method.cooled_gates:
            point_noise = point_noise.with_cooling()
        export = program_to_circuit(program, code, point_noise, basis=job.basis)
        artifacts.circuit = export.circuit
        artifacts.text = str(export.circuit)
        artifacts.extras["max_nbar"] = export.max_nbar
    return artifacts


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class Runner:
    """Executes a sweep: compile (cached), sample (streamed), persist."""

    def __init__(
        self,
        spec: SweepSpec,
        *,
        backend=None,
        workers: int = 0,
        cache: CompilationCache | None = None,
        cache_dir: str | None = None,
        cache_max_mb: float | None = None,
        store: ResultStore | None = None,
        results_path: str | None = None,
        noise: NoiseParameters | None = None,
        shard_shots: int = DEFAULT_SHARD_SHOTS,
        progress=False,
        checkpoint_shards: bool = True,
        telemetry=None,
        status_interval: float | None = None,
        steal: bool = True,
        steal_min_shots: int = 256,
    ):
        self.spec = spec
        self._own_backend = backend is None
        if backend is None:
            backend = (
                MultiprocessBackend(workers) if workers and workers > 1
                else SerialBackend()
            )
        self.backend = backend
        self.cache = (
            cache if cache is not None
            else CompilationCache(cache_dir, max_disk_mb=cache_max_mb)
        )
        if store is None and results_path:
            store = ResultStore(results_path)
        self.store = store
        self.noise = noise if noise is not None else DEFAULT_NOISE
        if shard_shots < 1:
            raise ValueError("shard_shots must be positive")
        self.shard_shots = shard_shots
        # Shard-level checkpointing (needs a store): every completed
        # shard is persisted, so an interrupted job resumes mid-
        # sampling instead of restarting from shard zero.
        self.checkpoint_shards = checkpoint_shards
        self._checkpointed = False
        self.progress = make_progress(progress)
        # The observability surface: defaults to the process registry,
        # which is disabled unless telemetry.configure() switched it on.
        self.telemetry = telemetry if telemetry is not None else active_telemetry()
        # Seconds between live status lines (requires progress); None
        # disables the periodic snapshot.
        self.status_interval = status_interval
        # Straggler work stealing (needs a backend whose workers can
        # run windowed sub-shards; silently inert elsewhere).
        self.steal = bool(steal)
        self.steal_min_shots = steal_min_shots
        self._scheduler: StreamScheduler | None = None
        self._status_last = time.monotonic()
        self._artifacts: dict[tuple, JobArtifacts] = {}
        # Sweep-wide syndrome-memo tallies (hit/miss deltas summed over
        # every shard; peak = largest single memo observed anywhere).
        self._memo_totals = {"hits": 0, "misses": 0, "peak_entries": 0}
        # Sweep-wide per-phase exclusive seconds (summed over shard
        # outcomes as they land) and total per-job setup time — the
        # phase breakdown the end-of-sweep summary reports.
        self._phase_totals: dict[str, float] = {}
        self._setup_s_total = 0.0
        self._shards_done = 0
        # Live memo traffic for the status view (the job-level
        # _memo_totals only update when a whole job finalizes).
        self._live_memo_hits = 0
        self._live_memo_misses = 0
        # What makes two samplings of the same job comparable: stored
        # results are only reused when all of this matches.
        self.run_config = {
            "master_seed": self.spec.master_seed,
            "shard_shots": self.shard_shots,
            "noise": hashlib.sha256(repr(self.noise).encode()).hexdigest()[:12],
        }

    # ------------------------------------------------------------------
    def run(self) -> list[JobResult]:
        jobs = self.spec.expand()
        # A degenerate grid (repeated axis values) expands to duplicate
        # keys; each unique job runs and reports exactly once.
        self.progress.start(len({job.key for job in jobs}))
        completed = self.store.load() if self.store is not None else {}
        results: dict[str, JobResult] = {}
        scheduler = StreamScheduler(
            self.backend, self.cache, on_outcome=self._on_outcome,
            steal=self.steal, steal_min_shots=self.steal_min_shots,
        )
        self._scheduler = scheduler
        try:
            for job in jobs:
                if job.key in results or scheduler.has(job.key):
                    continue  # degenerate grid with repeated axis values
                prior = completed.get(job.key)
                if prior is not None and self._reusable(job, prior):
                    results[job.key] = prior
                    self.progress.job_skipped(job.key)
                    continue
                # Missing, or sampled under a different seed / shard
                # layout / noise model: re-run (the fresh record
                # supersedes the stale one on the next load).
                t0 = time.perf_counter()
                with self.telemetry.span("compile", job=job.key):
                    artifacts = self._artifacts_for(job)
                    if job.shots <= 0:
                        results[job.key] = self._finalize(
                            job, artifacts, time.perf_counter() - t0, None, None
                        )
                        continue
                    compiled = self.cache.compiled(
                        artifacts.circuit, artifacts.text
                    )
                setup_s = time.perf_counter() - t0
                self._setup_s_total += setup_s
                for state in scheduler.add(
                    self._state_for(job, artifacts, compiled, setup_s)
                ):
                    self._finalize_state(state, results)
            for state in scheduler.drain():
                self._finalize_state(state, results)
        except BaseException:
            # Interrupt / failure mid-sweep.  Completed jobs are
            # already in the store for resume.
            abort_backend(self.backend, self._own_backend)
            raise
        else:
            if self._own_backend:
                self.backend.close()
        if self._checkpointed:
            # Every shard checkpointed this run is now superseded by
            # its job's final record; drop the dead lines so the store
            # doesn't grow without bound across runs.
            self.store.compact()
        self.progress.finish(
            self.cache.stats(), self._memo_totals,
            setup_s=self._setup_s_total, phase_s=self._sweep_phases(),
            steal_stats=self.steal_stats or None,
        )
        return [results[job.key] for job in jobs]

    @property
    def steal_stats(self) -> dict:
        """Scheduler steal counters (empty before/without stealing)."""
        if self._scheduler is None:
            return {}
        return self._scheduler.steal_stats()

    def _sweep_phases(self) -> dict[str, float]:
        """Sweep-wide per-phase seconds: shard phases summed over every
        outcome, plus the driver-side phases (compile / dem / dijkstra)
        from the registry — disjoint sets, so no double counting even
        on the serial backend (whose in-process shard spans also land
        in the registry).  Only the serial backend builds decoders on
        the driver, so only it reports a ``dijkstra`` phase; pool
        workers pay theirs inside shard elapsed time."""
        phases = dict(self._phase_totals)
        if self.telemetry.enabled:
            driver_side = self.telemetry.phase_totals()
            for name in (
                "compile", "compile.translate", "compile.place",
                "compile.route", "compile.schedule", "dem", "dijkstra",
            ):
                if driver_side.get(name, 0.0) > 0.0:
                    phases[name] = phases.get(name, 0.0) + driver_side[name]
        return phases

    # ------------------------------------------------------------------
    def _on_outcome(self, task: ShardTask, outcome, state) -> None:
        """Absorb one completed shard (scheduler ``on_outcome`` hook):
        checkpoint it, fold its telemetry into the sweep-wide metrics,
        synthesize its worker-lane trace events, and emit a throttled
        live status line when ``status_interval`` is set.

        The final job record appended by ``_finalize`` supersedes the
        checkpoint lines; until it lands, they are what lets an
        interrupted job resume mid-sampling.
        """
        self._shards_done += 1
        self._live_memo_hits += outcome.memo_hits
        self._live_memo_misses += outcome.memo_misses
        if (self.store is not None and self.checkpoint_shards
                and task.parent_shots is None):
            # Stolen windows share their parent's shard_index; a
            # partial window record would collide with (and could be
            # mistaken for) the whole shard on resume, so only whole
            # shards checkpoint.
            self.store.append_shard(ShardRecord(
                job_key=outcome.job_key,
                shard_index=task.shard_index,
                shots=outcome.shots,
                failures=outcome.failures,
                elapsed_s=outcome.elapsed_s,
                run_config=dict(self.run_config),
                phases=outcome.phases,
            ))
            self._checkpointed = True
        if outcome.phases:
            for phase, seconds in outcome.phases.items():
                self._phase_totals[phase] = (
                    self._phase_totals.get(phase, 0.0) + seconds
                )
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.counter("shards_done").inc()
            telemetry.counter("shots_done").inc(outcome.shots)
            telemetry.counter("failures").inc(outcome.failures)
            telemetry.counter("memo_hits").inc(outcome.memo_hits)
            telemetry.counter("memo_misses").inc(outcome.memo_misses)
            telemetry.histogram("shard_elapsed_s").observe(outcome.elapsed_s)
            if telemetry.trace and outcome.worker:
                self._synthesize_lane_events(task, outcome, telemetry)
        if self.status_interval is not None:
            now = time.monotonic()
            if now - self._status_last >= self.status_interval:
                self._status_last = now
                self.progress.status(self._status_snapshot())

    def _synthesize_lane_events(self, task, outcome, telemetry) -> None:
        """Worker-lane trace events for one pool-executed shard.

        Pool workers ship phase *durations*, not timestamps (worker
        clocks are not comparable across hosts), so the driver anchors
        the shard at its arrival time minus its measured duration and
        lays the phases out back-to-back inside it.  In-process
        (serial) shards never reach here: their spans recorded real
        driver-lane events already, and ``outcome.worker`` is empty.
        """
        end = telemetry.now()
        start = max(0.0, end - outcome.elapsed_s)
        telemetry.add_event(
            "shard", start, outcome.elapsed_s, lane=outcome.worker,
            attrs={
                "job": outcome.job_key, "shard": task.shard_index,
                "shots": outcome.shots, "failures": outcome.failures,
            },
        )
        t = start
        for name in ordered_phases(outcome.phases or {}):
            dur = outcome.phases[name]
            telemetry.add_event(name, t, dur, lane=outcome.worker)
            t += dur

    def _status_snapshot(self) -> dict:
        """Live sweep state for :meth:`ProgressReporter.status`."""
        hits, misses = self._live_memo_hits, self._live_memo_misses
        snapshot = {
            "shards_done": self._shards_done,
            "phase_s": self._sweep_phases(),
            "memo": {"hits": hits, "misses": misses},
        }
        if hits + misses:
            snapshot["memo"]["hit_rate"] = hits / (hits + misses)
        pool_health = getattr(self.backend, "pool_health", None)
        if pool_health is not None:
            snapshot["pool"] = pool_health()
        steals = self.steal_stats
        if steals.get("steals"):
            snapshot["steals"] = steals
        return snapshot

    def _state_for(
        self, job: SweepJob, artifacts: JobArtifacts, compiled, setup_s: float
    ) -> JobState:
        # Adaptive jobs never shard coarser than their initial tranche:
        # the shard size is the granularity at which early stopping can
        # act, so a tranche must be at least one whole shard.
        shard_shots = (
            min(self.shard_shots, job.shots) if job.adaptive else self.shard_shots
        )
        plan = plan_shards(
            job.shot_cap, shard_shots, self.spec.master_seed, job.key
        )
        tranche = math.ceil(job.shots / shard_shots)
        checkpointed: dict[int, ShardRecord] = {}
        if self.store is not None and self.checkpoint_shards:
            for index, record in self.store.load_shards(job.key).items():
                # A shard sampled under a different master seed / shard
                # layout / noise model is a different experiment; only
                # this run's own configuration may be credited.
                if record.run_config == self.run_config:
                    checkpointed[index] = record
        initial_shots = initial_failures = 0
        initial_work_s = 0.0
        initial_phases: dict[str, float] = {}
        if checkpointed:
            # Resume mid-job: credit the checkpointed shards and plan
            # only the remainder.  The shard RNG streams are positional
            # in the *full* plan, so skipping completed indices leaves
            # every remaining shard's sample bit-identical.
            remaining = []
            tranche_left = 0
            for position, shard in enumerate(plan):
                record = checkpointed.get(shard.index)
                if record is not None and record.shots == shard.shots:
                    initial_shots += record.shots
                    initial_failures += record.failures
                    initial_work_s += record.elapsed_s
                    if record.phases:
                        for phase, seconds in record.phases.items():
                            initial_phases[phase] = (
                                initial_phases.get(phase, 0.0) + seconds
                            )
                else:
                    remaining.append(shard)
                    if position < tranche:
                        tranche_left += 1
            plan, tranche = remaining, tranche_left
        return JobState(
            key=job.key,
            compiled=compiled,
            decoder=job.decoder,
            plan=plan,
            target_failures=job.target_failures,
            target_rel_stderr=job.target_rel_stderr,
            tranche_shards=tranche,
            payload=(job, artifacts, setup_s),
            initial_shots=initial_shots,
            initial_failures=initial_failures,
            initial_work_s=initial_work_s,
            initial_phases=initial_phases,
        )

    def _finalize_state(self, state: JobState, results: dict) -> None:
        job, artifacts, setup_s = state.payload
        extras = dict(artifacts.extras)
        if job.adaptive:
            extras["adaptive"] = {
                "target_failures": job.target_failures,
                "target_rel_stderr": job.target_rel_stderr,
                "max_shots": job.max_shots,
                "initial_shots": job.shots,
                "converged": state.converged,
            }
        extras["memo"] = {
            "hits": state.memo_hits,
            "misses": state.memo_misses,
            "entries": state.memo_size,
        }
        # Detector pairs whose errors disagree on the observable: each
        # is a place where the decoder's graph cannot be right both ways.
        extras["conflicting_edges"] = state.compiled.graph.conflicting_edges
        if state.phase_s:
            # Per-phase seconds summed over the job's shards, so stored
            # results record *where* this point's sampling time went.
            extras["phases"] = {
                name: state.phase_s[name] for name in ordered_phases(state.phase_s)
            }
        self._memo_totals["hits"] += state.memo_hits
        self._memo_totals["misses"] += state.memo_misses
        self._memo_totals["peak_entries"] = max(
            self._memo_totals["peak_entries"], state.memo_size
        )
        # Compile time plus the job's own sampling time across all
        # workers — exclusive of time its shards sat queued behind
        # other jobs, which streaming would otherwise smear into every
        # concurrently-running job's wall clock.
        results[job.key] = self._finalize(
            job, artifacts, setup_s + state.work_s,
            state.shots_done, state.failures, extras,
        )

    def _finalize(
        self,
        job: SweepJob,
        artifacts: JobArtifacts,
        elapsed_s: float,
        shots: int | None,
        failures: int | None,
        extras: dict | None = None,
    ) -> JobResult:
        result = JobResult(
            job=job,
            shots=job.shots if shots is None else shots,
            failures=failures,
            rounds=job.rounds,
            metrics=dict(artifacts.metrics),
            extras=dict(artifacts.extras) if extras is None else extras,
            elapsed_s=elapsed_s,
            run_config=dict(self.run_config),
        )
        if self.store is not None:
            self.store.append(result)
        self.progress.job_done(
            job.key, failures, result.elapsed_s,
            shots=None if failures is None else result.shots,
        )
        return result

    # ------------------------------------------------------------------
    def _reusable(self, job: SweepJob, prior: JobResult) -> bool:
        """Whether a stored result is the same experiment as this run.

        Records resumed from older or corrupt store lines can carry an
        empty ``metrics`` dict (``from_jsonable``'s default); reusing
        one would permanently poison every record rebuilt from it, so
        reuse requires real compiler metrics.  Compile-only jobs never
        sampled anything, so the sampling configuration (seed, shard
        layout, noise) cannot invalidate them.
        """
        if not prior.metrics:
            return False
        if job.shots == 0:
            return True
        return prior.run_config == self.run_config

    def _artifacts_for(self, job: SweepJob) -> JobArtifacts:
        params = job.circuit_params
        artifacts = self._artifacts.get(params)
        need_circuit = job.shots > 0
        if artifacts is None or (need_circuit and artifacts.circuit is None):
            artifacts = compile_design_point(job, self.noise, need_circuit)
            self._artifacts[params] = artifacts
        return artifacts


def run_sweep(spec: SweepSpec, **kwargs) -> list[JobResult]:
    """One-call sweep execution; see :class:`Runner` for options."""
    return Runner(spec, **kwargs).run()


# ----------------------------------------------------------------------
# Ad-hoc circuit sampling (the engine face of the repro.ler estimators)
# ----------------------------------------------------------------------
def sample_circuit(
    circuit: StabilizerCircuit,
    shots: int,
    *,
    decoder: str = "mwpm",
    target_failures: int | None = None,
    target_rel_stderr: float | None = None,
    shard_shots: int = DEFAULT_SHARD_SHOTS,
    seed: int | None = None,
    backend=None,
) -> tuple[int, int]:
    """Sample and decode one ad-hoc ``circuit``; returns
    ``(shots, failures)``.

    Without a target this runs a fixed plan of ``shots`` shots.  With
    ``target_failures`` and/or ``target_rel_stderr`` set, ``shots`` is
    the budget: sampling stops at that many failures, once the
    estimate's relative standard error falls below the bound, or when
    the budget is spent, whichever comes first.  The first satisfied
    target retires the job, so a tight precision bound needs
    ``target_failures=None`` (precision-only stopping) — otherwise the
    failure count fires first and caps the achievable precision at
    roughly ``1/sqrt(target_failures)``.

    Runs the same cache / shard plan / scheduler machinery as a sweep
    job, so results are deterministic for a given ``seed`` and a fixed
    plan's failure count is identical on every backend (pass a
    :class:`MultiprocessBackend` to fan the shards out over workers).
    Shard streams follow the circuit's text, not a job key: its callers
    are the ad-hoc estimators (``estimate_logical_error_rate``, behind
    ``scan_threshold``, and ``estimate_until_failures``); a design
    point runs as a sweep job instead.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    if target_failures is not None and target_failures < 1:
        raise ValueError("target_failures must be positive")
    if target_rel_stderr is not None and target_rel_stderr <= 0:
        raise ValueError("target_rel_stderr must be positive")
    cache = CompilationCache()
    compiled = cache.compiled(circuit)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy) & 0xFFFFFFFF
    own_backend = backend is None
    backend = backend if backend is not None else SerialBackend()
    state = JobState(
        key=compiled.key,
        compiled=compiled,
        decoder=decoder,
        plan=plan_shards(shots, shard_shots, seed, compiled.key),
        target_failures=target_failures,
        target_rel_stderr=target_rel_stderr,
    )
    scheduler = StreamScheduler(backend, cache)
    try:
        done = scheduler.add(state)
        if not done:
            done = list(scheduler.drain())
    except BaseException:
        abort_backend(backend, own_backend)
        raise
    else:
        if own_backend:
            backend.close()
    [state] = done
    return state.shots_done, state.failures
