"""Sweep job execution: backends, sharding, and the Runner.

The runner walks a :class:`~repro.engine.sweep.SweepSpec`'s job list,
compiles each unique circuit exactly once through the
:class:`~repro.engine.cache.CompilationCache`, and streams the
Monte-Carlo sampling through the cross-job shard scheduler
(:mod:`repro.engine.scheduler`) over a pluggable backend:

- :class:`SerialBackend` runs every shot shard in-process;
- :class:`MultiprocessBackend` fans shards out over worker processes
  with per-worker task queues, priming each worker at most once per
  unique circuit (circuit text, both DEM payloads, MWPM distance
  matrices) — shard messages carry only ``(circuit key, decoder,
  sampler, shots, seed)``, never the circuit text or a DEM payload;
- :class:`repro.engine.remote.RemoteBackend` speaks the same worker
  protocol over TCP sockets to ``repro-worker`` processes on other
  machines.

The pool backends share :class:`WorkerPoolBackend` (submit-side
priming / dispatch / crash-recovery bookkeeping) and their workers
share :class:`ShardExecutor` (worker-side circuit / decoder / sampler
state), so the transports differ only in how bytes move.  A dead
worker no longer kills the sweep: its in-flight shards are disowned
into a lost list the scheduler reaps (``take_lost``) and resubmits to
survivors with their original seeds.

Both consume the *same* shard plan: a job's shots are split into
fixed-size shards, and shard ``i`` samples from an independent RNG
stream spawned via ``np.random.SeedSequence`` from the sweep's master
seed and the job key.  Fixed-shot failure totals are therefore
bit-identical across backends and across worker counts — parallelism
changes only where a shard runs, never what it samples.  Adaptive jobs
(``target_failures`` set) trade that equivalence for early stopping:
the scheduler retires them at their failure target and reinvests the
freed capacity in unconverged design points.
"""

from __future__ import annotations

import hashlib
import logging
import math
import multiprocessing
import os
import queue as queue_module
import signal
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from ..arch.wiring import wiring_by_name
from ..codes import make_code
from ..core.compiler import CompilerConfig, QccdCompiler
from ..core.stim_export import program_to_circuit
from ..decoders.graph import DetectorGraph
from ..ler.estimator import make_decoder
from ..noise.parameters import DEFAULT_NOISE, NoiseParameters
from ..sim.circuit import StabilizerCircuit
from ..sim.dem_sampler import DemSampler, PackedShard
from ..sim.frame import FrameSimulator
from ..sim.text_format import circuit_from_text
from ..telemetry import configure as configure_telemetry
from ..telemetry import get as active_telemetry
from ..telemetry import span
from .cache import CompilationCache, CompiledCircuit, dem_from_jsonable, dem_to_jsonable
from .progress import make_progress
from .results import JobResult, ResultStore, ShardRecord
from .scheduler import JobState, ShardOutcome, ShardTask, StreamScheduler
from .sweep import SweepJob, SweepSpec

logger = logging.getLogger(__name__)

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
@dataclass(frozen=True)
class Shard:
    """A fixed slice of one job's shot budget with its own RNG stream.

    A shard may be a *window* of a larger planned shard (work stealing
    re-shards a straggler's tranche): ``parent_shots`` is then the
    planned shard's full shot count and ``offset`` this window's first
    row within it.  The window re-draws the **whole** parent sample
    from the same seed and decodes only its own rows — per-row samples
    and per-row failures are independent of how the batch is split, so
    the windows' failure counts sum to exactly the parent's.
    """

    index: int
    shots: int
    seed: np.random.SeedSequence
    offset: int = 0
    parent_shots: int | None = None


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


def sample_shard(
    circuit: StabilizerCircuit,
    decoder,
    shard: Shard,
    sampler: DemSampler | None = None,
) -> tuple[int, tuple[int, int, int], dict | None]:
    """Sample one shard and count its logical failures.

    The shard flows packed end to end: a :class:`DemSampler` emits
    :class:`~repro.sim.dem_sampler.PackedShard` words directly (fast
    path, no unpack), while the :class:`FrameSimulator` reference path
    packs its boolean output once at this boundary.  Either way the
    decoder consumes the uint64 words via ``logical_failures_packed``
    and the shard's ``SeedSequence`` fully determines the draw.

    Returns ``(failures, (memo_hits, memo_misses, memo_size), phases)``
    — the shard's own syndrome-memo traffic and, when telemetry is
    enabled, its per-phase exclusive seconds (sample /
    unique / memo / decode / scatter, plus ``other`` for the residue
    between the instrumented phases and the shard's wall clock).
    ``phases`` is ``None`` with telemetry off — the hot path stays
    allocation-free.
    """
    telemetry = active_telemetry()
    enabled = telemetry.enabled
    phases0 = telemetry.phase_snapshot() if enabled else None
    draw_shots = (
        shard.parent_shots if shard.parent_shots is not None else shard.shots
    )
    if shard.offset < 0 or shard.offset + shard.shots > draw_shots:
        raise ValueError(
            f"shard window [{shard.offset}, {shard.offset + shard.shots}) "
            f"outside parent draw of {draw_shots} shots"
        )
    with telemetry.span("shard"):
        with telemetry.span("sample"):
            if sampler is not None:
                packed = sampler.sample_packed(draw_shots, seed=shard.seed)
            else:
                sample = FrameSimulator(circuit, seed=shard.seed).sample(
                    draw_shots
                )
                packed = PackedShard.from_bool(
                    sample.detectors, sample.observables
                )
            if shard.parent_shots is not None and (
                shard.offset or shard.shots != draw_shots
            ):
                lo, hi = shard.offset, shard.offset + shard.shots
                packed = PackedShard(
                    packed.det_words[lo:hi], packed.obs_words[lo:hi],
                    packed.num_detectors, packed.num_observables,
                )
        memo = decoder.syndrome_memo()
        hits0, misses0, _ = memo.snapshot()
        failures = int(
            decoder.logical_failures_packed(
                packed.det_words, packed.obs_words
            ).sum()
        )
        hits1, misses1, size = memo.snapshot()
    memo_stats = (hits1 - hits0, misses1 - misses0, size)
    if not enabled:
        return failures, memo_stats, None
    phases = telemetry.phase_delta(phases0)
    # The "shard" span's exclusive time is whatever the instrumented
    # phases did not cover (packing, memo snapshots, glue): surface it
    # as "other" so per-shard phases still sum to shard wall clock.
    residue = phases.pop("shard", 0.0)
    if residue > 0.0:
        phases["other"] = phases.get("other", 0.0) + residue
    return failures, memo_stats, phases


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
        sampler = cache.dem_sampler(compiled) if task.sampler == "dem" else None
        failures, memo, phases = sample_shard(
            compiled.circuit, decoder,
            Shard(task.shard_index, task.shots, task.seed,
                  offset=task.offset, parent_shots=task.parent_shots),
            sampler=sampler,
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


class NoLiveWorkersError(RuntimeError):
    """Every worker of a pool backend is dead.

    Raised instead of hanging when a sweep still has shards to run but
    the pool has no survivor to run them on — the caller sees a clear
    failure within one poll interval, never a silent stall.
    """


class _WorkerDied(Exception):
    """Internal: a transport send hit a dead worker (already disowned);
    the submit loop retries on a survivor."""


class ShardExecutor:
    """Worker-side shard execution state.

    Holds the circuits this worker was primed with and the decoders /
    samplers built from them (lazily, at most once per circuit).
    Shared by the multiprocessing worker loop and the socket worker
    (``repro-worker``): both feed it the same prime / dmat / shard
    messages and differ only in transport.  Every worker process runs
    one shard at a time, so each (circuit, decoder) pair has exactly
    one decoder, which owns its syndrome memo; the memo never leaves
    the worker.
    """

    def __init__(self):
        self._circuits: dict[str, tuple] = {}
        # (circuit_key, decoder_name) -> decoder instance (and its memo).
        self._decoders: dict[tuple[str, str], object] = {}
        self._samplers: dict[str, DemSampler] = {}

    def prime(self, circuit_key, circuit_text, dem_data, sdem_data, dmat) -> None:
        circuit = circuit_from_text(circuit_text)
        graph = DetectorGraph.from_dem(dem_from_jsonable(dem_data))
        if dmat is not None:
            # Parent-cached all-pairs matrices: this worker's MWPM
            # decoder skips its own Dijkstra.
            graph.set_shortest_paths(*dmat)
        self._circuits[circuit_key] = (circuit, graph, dem_from_jsonable(sdem_data))

    def set_dmat(self, circuit_key, dmat) -> None:
        # Late distance-matrix delivery: the circuit was primed by a
        # non-MWPM shard, and an MWPM shard is now on its way.
        entry = self._circuits.get(circuit_key)
        if entry is not None and (circuit_key, "mwpm") not in self._decoders:
            try:
                entry[1].set_shortest_paths(*dmat)
            except ValueError:
                pass  # shape mismatch: let the decoder compute its own

    def run(
        self, circuit_key, decoder_name, sampler_name, shots, seed,
        offset: int = 0, parent_shots: int | None = None,
    ):
        """Sample one shard; returns ``(failures, memo_stats, phases)``."""
        entry = self._circuits.get(circuit_key)
        if entry is None:
            raise RuntimeError(
                f"shard for unprimed circuit {circuit_key[:12]}…: "
                "priming protocol violated"
            )
        circuit, graph, sampling_dem = entry
        decoder = self._decoders.get((circuit_key, decoder_name))
        if decoder is None:
            decoder = make_decoder(graph, decoder_name)
            self._decoders[(circuit_key, decoder_name)] = decoder
        sampler = None
        if sampler_name == "dem":
            sampler = self._samplers.get(circuit_key)
            if sampler is None:
                sampler = self._samplers[circuit_key] = DemSampler(sampling_dem)
        return sample_shard(
            circuit, decoder,
            Shard(0, shots, seed, offset=offset, parent_shots=parent_shots),
            sampler=sampler,
        )


def handle_worker_message(executor: ShardExecutor, message: tuple):
    """Process one driver message; returns the reply tuple or ``None``.

    The request/reply state machine shared by both worker transports:
    ``prime`` / ``dmat`` update the executor (priming errors are
    reported with ``seq=None``), ``config`` applies worker-side
    settings (today only the telemetry switch), ``shard`` samples and
    replies; ``stop`` is the caller's business.

    A shard message is always ``("shard", seq, circuit_key, decoder,
    sampler, shots, seed, epoch, offset, parent_shots)``;
    ``parent_shots`` is ``None`` for a whole planned shard and set for
    a stolen *window* of one.  Every reply has one shape,
    ``(kind, seq, value, elapsed_s, epoch, memo, phases)``: ``kind``
    is ``"ok"`` (``value`` = failures, ``memo`` = the shard's
    ``(hits, misses, size)``) or ``"error"`` (``value`` = traceback,
    ``memo`` = ``None``); ``phases`` is the per-phase seconds dict or
    ``None`` with telemetry off.
    """
    kind = message[0]
    if kind == "prime":
        _, circuit_key, circuit_text, dem_data, sdem_data, dmat, epoch = message
        try:
            executor.prime(circuit_key, circuit_text, dem_data, sdem_data, dmat)
        except BaseException:
            return ("error", None, traceback.format_exc(), 0.0, epoch,
                    None, None)
        return None
    if kind == "dmat":
        _, circuit_key, dmat, epoch = message
        executor.set_dmat(circuit_key, dmat)
        return None
    if kind == "config":
        # Driver-controlled worker settings.  Settings are per-driver
        # state: a serve-forever worker gets a fresh ``config`` (or
        # none — all off) per session.
        _, settings = message
        configure_telemetry(enabled=bool(settings.get("telemetry", False)))
        return None
    (_, seq, circuit_key, decoder_name, sampler_name, shots, seed,
     epoch, offset, parent_shots) = message
    try:
        t0 = time.perf_counter()
        failures, memo, phases = executor.run(
            circuit_key, decoder_name, sampler_name, shots, seed,
            offset=offset, parent_shots=parent_shots,
        )
        elapsed = time.perf_counter() - t0
        return ("ok", seq, failures, elapsed, epoch, memo, phases)
    except BaseException:
        return ("error", seq, traceback.format_exc(), 0.0, epoch, None, None)


def _worker_main(task_queue, result_queue) -> None:
    """Worker-process loop: prime once per circuit, then sample shards.

    Ctrl-C is the parent's business: a SIGINT delivered to the whole
    foreground group must not kill workers mid-task — the parent
    decides when to terminate them.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    executor = ShardExecutor()
    while True:
        message = task_queue.get()
        if message[0] == "stop":
            break
        reply = handle_worker_message(executor, message)
        if reply is not None:
            result_queue.put(reply)


class WorkerPoolBackend:
    """Submit-side machinery shared by the worker-pool backends.

    The multiprocessing and socket (remote) backends dispatch identical
    messages — ``prime`` (at most once per (worker, circuit): circuit
    text, both DEM payloads, MWPM distance matrices), late ``dmat``
    delivery, ``config`` (only when telemetry is on), tiny
    payload-free ``shard`` tuples, ``stop`` — and receive the
    fixed-shape replies of :func:`handle_worker_message`.  Driver and
    workers ship in one package, so there is exactly one message
    format and no per-worker feature gating.  This base owns the
    bookkeeping: priming state,
    per-worker load, the seq -> worker dispatch map, abandoned-sweep
    epochs, and **crash recovery** — a dead worker's in-flight shards
    are disowned into a lost list that the scheduler reaps via
    ``take_lost()`` and resubmits to survivors.

    Subclasses provide the transport: ``_ensure_workers`` (start /
    connect the pool), ``_live_workers`` (surviving worker indices),
    ``_live_worker_count`` (pool size for the capacity hint) and ``_send``
    (deliver one message, raising :class:`_WorkerDied` after disowning
    a worker that cannot receive it).
    """

    name = "pool"
    queue_depth: int = 2

    def _init_pool(self) -> None:
        self._load: list[int] = []
        self._primed: set[tuple[int, str]] = set()
        # (worker, circuit) pairs whose prime included the MWPM
        # distance matrices (or received them in a late "dmat" send).
        self._dmat_primed: set[tuple[int, str]] = set()
        self._dem_json: dict[str, tuple] = {}
        # task seq -> (worker index, job key, shots, dispatch time)
        self._dispatch: dict[int, tuple[int, str, int, float]] = {}
        # Workers that received this driver's ("config", ...) settings.
        self._configured: set[int] = set()
        # Pool-health bookkeeping: per-worker result stats, keyed by
        # worker index (labels resolve via _worker_label on export).
        self._wstats: dict[int, dict] = {}
        self._crashes = 0
        self._resubmitted = 0
        # Shards disowned because their worker died, awaiting a
        # take_lost() reap by the scheduler.
        self._lost: list[int] = []
        # Every seq disowned this epoch: a late result for one (queued
        # by a worker just before it died, possibly racing its own
        # resubmission) is dropped, or — if the resubmitted copy is in
        # flight — counted once in its place.
        self._forgotten: set[int] = set()
        # Bumped by abandon_pending(): results echo the epoch they were
        # submitted under, so shards of an aborted sweep can never be
        # attributed to a later sweep sharing this backend.
        self._epoch = 0

    # transport hooks ---------------------------------------------------
    def _ensure_workers(self) -> None:
        raise NotImplementedError

    def _live_workers(self) -> list[int]:
        raise NotImplementedError

    def _live_worker_count(self) -> int:
        """Live workers (the capacity hint); before the pool starts,
        the number it will start with."""
        raise NotImplementedError

    def _send(self, worker: int, message: tuple) -> None:
        raise NotImplementedError

    def _worker_label(self, worker: int) -> str:
        """Stable human-readable worker identity for logs, traces and
        pool health (``host:port`` for remote, ``mp:N`` for local)."""
        return f"{self.name}:{worker}"

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Tasks the backend wants in flight: a small per-worker queue
        keeps every worker busy without hoarding shards an adaptive
        job may never need.  Shrinks as workers die."""
        return max(1, self._live_worker_count()) * self.queue_depth

    def supports_windows(self) -> bool:
        """Every pool worker runs windowed (stolen) sub-shards — the
        scheduler's steal-eligibility probe."""
        return True

    def stale_pending(self) -> list[int]:
        """In-flight task seqs old enough to be straggler suspects,
        oldest dispatch first.

        "Old enough" is self-tuning: a task qualifies once its
        dispatch age exceeds twice the fastest worker's observed mean
        shard time (floored at 0.25 s), so a freshly submitted stream
        is never stolen from at t=0 — a sweep smaller than pool
        capacity would otherwise be split instantly, duplicating work
        for nothing — while a genuine straggler qualifies within a
        couple of normal shard durations.  Before any shard has
        completed there is no notion of "normal", so nothing
        qualifies."""
        means = [
            stats["busy_s"] / stats["shards"]
            for stats in self._wstats.values() if stats["shards"]
        ]
        if not means:
            return []
        threshold = max(0.25, 2.0 * min(means))
        now = time.perf_counter()
        stale = [
            seq for seq, entry in self._dispatch.items()
            if now - entry[3] > threshold
        ]
        return sorted(stale, key=lambda seq: self._dispatch[seq][3])

    def submit(
        self, task: ShardTask, compiled: CompiledCircuit, cache: CompilationCache
    ) -> None:
        self._ensure_workers()
        while True:
            live = self._live_workers()
            if task.parent_shots is not None:
                parent = (
                    self._dispatch.get(task.parent_seq)
                    if task.parent_seq is not None else None
                )
                if parent is not None:
                    # A window queued behind its own still-running
                    # parent defeats the steal: route it anywhere else
                    # while an alternative exists.
                    others = [w for w in live if w != parent[0]]
                    if others:
                        live = others
            if not live:
                raise NoLiveWorkersError(
                    f"{self.name} backend: no live worker; cannot run "
                    f"shard {task.shard_index} of job {task.job_key}"
                )
            worker = self._pick_worker(task.circuit_key, live)
            try:
                self._maybe_configure(worker)
                self._dispatch_shard(worker, task, compiled, cache, live)
            except _WorkerDied:
                continue  # _send disowned the worker; try a survivor
            self._load[worker] += 1
            self._dispatch[task.seq] = (
                worker, task.job_key, task.shots, time.perf_counter()
            )
            return

    def _maybe_configure(self, worker: int) -> None:
        """Ship this driver's settings to a worker exactly once, and
        only when telemetry is on: the all-off path must not change
        the wire conversation at all."""
        if worker in self._configured:
            return
        self._configured.add(worker)
        if active_telemetry().enabled:
            self._send(worker, ("config", {"telemetry": True}))

    def _dispatch_shard(self, worker, task, compiled, cache, live) -> None:
        pair = (worker, task.circuit_key)
        if pair not in self._primed:
            payload = self._dem_json.get(task.circuit_key)
            if payload is None:
                payload = (
                    dem_to_jsonable(compiled.dem),
                    dem_to_jsonable(compiled.sampling_dem),
                )
                self._dem_json[task.circuit_key] = payload
            dem_data, sdem_data = payload
            # MWPM needs the all-pairs distance matrices; computing (or
            # disk-loading) them once in the parent and shipping them
            # in the prime saves one Dijkstra per (worker, circuit).
            if task.decoder == "mwpm":
                dmat = cache.distance_matrix(compiled)
            else:
                dmat = cache.peek_distance_matrix(task.circuit_key)
            self._send(
                worker,
                ("prime", task.circuit_key, compiled.text, dem_data, sdem_data,
                 dmat, self._epoch),
            )
            self._primed.add(pair)
            if dmat is not None:
                self._dmat_primed.add(pair)
            if all((w, task.circuit_key) in self._primed for w in live):
                # Every live worker holds this circuit now; the
                # serialized DEM can never be sent again, so stop
                # retaining it.
                self._dem_json.pop(task.circuit_key, None)
        elif task.decoder == "mwpm" and pair not in self._dmat_primed:
            # The circuit was primed by a non-MWPM shard, without the
            # distance matrices; deliver them before the MWPM shard so
            # the worker never recomputes the Dijkstra.
            self._send(
                worker,
                ("dmat", task.circuit_key, cache.distance_matrix(compiled),
                 self._epoch),
            )
            self._dmat_primed.add(pair)
        self._send(
            worker,
            ("shard", task.seq, task.circuit_key, task.decoder, task.sampler,
             task.shots, task.seed, self._epoch, task.offset,
             task.parent_shots),
        )

    def _pick_worker(self, circuit_key: str, live: list[int]) -> int:
        """Least-loaded live worker; among ties, prefer one already
        primed for this circuit so priming traffic stays minimal."""
        best = live[0]
        best_rank = None
        for worker in live:
            primed = (worker, circuit_key) in self._primed
            rank = (self._load[worker], not primed)
            if best_rank is None or rank < best_rank:
                best, best_rank = worker, rank
        return best

    def _forget_worker(self, worker: int) -> None:
        """Disown a dead worker: its in-flight shards join the lost
        list (for scheduler resubmission) and its priming state is
        dropped so nothing is ever routed to it again."""
        lost = [
            seq for seq, entry in self._dispatch.items() if entry[0] == worker
        ]
        for seq in lost:
            del self._dispatch[seq]
            self._forgotten.add(seq)
        self._lost.extend(lost)
        self._crashes += 1
        self._resubmitted += len(lost)
        logger.warning(
            "worker %s died with %d shard(s) in flight%s",
            self._worker_label(worker), len(lost),
            f" (lost shard seqs: {lost})" if lost else "",
        )
        if worker < len(self._load):
            self._load[worker] = 0
        self._configured.discard(worker)
        self._primed = {pair for pair in self._primed if pair[0] != worker}
        self._dmat_primed = {
            pair for pair in self._dmat_primed if pair[0] != worker
        }

    def take_lost(self) -> list[int]:
        """Drain the seqs of shards lost to dead workers (scheduler
        crash-recovery protocol)."""
        lost, self._lost = self._lost, []
        return lost

    def _handle(self, message) -> ShardOutcome | None:
        kind, seq, value, elapsed_s, epoch, memo, phases = message
        # A worker left enabled by an earlier driver must not leak
        # phases into a telemetry-off run, so gate on our own setting.
        if not active_telemetry().enabled:
            phases = None
        if epoch != self._epoch:
            return None  # shard of an abandoned sweep: silently drop
        dispatched = self._dispatch.pop(seq, None)
        if dispatched is None and seq in self._forgotten:
            # Disowned when its worker died: either the result beat the
            # death notice through a shared queue, or the resubmitted
            # copy already landed.  Shards are seed-deterministic, so
            # whichever copy is counted first is the answer; this one
            # is surplus.
            return None
        if dispatched is not None:
            worker, job_key, shots, t_sent = dispatched
            self._load[worker] -= 1
            self._record_result_stats(worker, float(elapsed_s), t_sent)
        if kind == "error":
            raise RuntimeError(f"worker shard failed:\n{value}")
        if dispatched is None:
            raise RuntimeError(f"result for unknown shard task {seq}")
        return ShardOutcome(
            seq, job_key, shots, int(value), float(elapsed_s), *memo,
            phases=phases, worker=self._worker_label(worker),
        )

    def _record_result_stats(
        self, worker: int, busy_s: float, t_sent: float
    ) -> None:
        now = time.perf_counter()
        stats = self._wstats.get(worker)
        if stats is None:
            stats = self._wstats[worker] = {
                "shards": 0, "busy_s": 0.0, "overhead_s": 0.0,
                "last_heard": now,
            }
        stats["shards"] += 1
        stats["busy_s"] += busy_s
        # Round-trip minus on-worker execution: queue wait behind the
        # worker's other shards plus (for remote) wire/serialize time.
        stats["overhead_s"] += max(0.0, (now - t_sent) - busy_s)
        stats["last_heard"] = now

    def pool_health(self) -> dict:
        """Driver-side pool snapshot: per-worker utilisation (shards
        done, on-worker busy seconds, queue/wire overhead, in-flight
        count, heartbeat age) plus pool-wide crash/resubmit counts and
        any transport-level extras (wire bytes for the remote pool)."""
        now = time.perf_counter()
        workers = {}
        for worker in sorted(self._wstats):
            stats = self._wstats[worker]
            workers[self._worker_label(worker)] = {
                "shards": stats["shards"],
                "busy_s": stats["busy_s"],
                "overhead_s": stats["overhead_s"],
                "inflight": (
                    self._load[worker] if worker < len(self._load) else 0
                ),
                "heartbeat_age_s": now - stats["last_heard"],
            }
        health = {
            "workers": workers,
            "crashes": self._crashes,
            "resubmitted_shards": self._resubmitted,
        }
        health.update(self._transport_stats())
        return health

    def _transport_stats(self) -> dict:
        """Pool-wide transport extras merged into :meth:`pool_health`."""
        return {}

    def abandon_pending(self) -> None:
        """Disown every in-flight shard (aborted-sweep recovery).

        Workers will still finish the abandoned shards, but their
        results arrive tagged with the old epoch and are dropped — a
        later sweep sharing this backend can never absorb them.
        """
        self._epoch += 1
        for worker, _job_key, _shots, _t_sent in self._dispatch.values():
            if worker < len(self._load):
                self._load[worker] -= 1
        self._dispatch.clear()
        self._lost = []
        self._forgotten = set()

    def begin_session(self) -> None:
        """Fence off a new sweep's results from an older sweep's.

        Called by the scheduler when it attaches to this backend.  Task
        sequence numbers restart at zero per scheduler, so without a
        fresh epoch a *surplus* result left over from a previous sweep
        on a shared backend (a dead worker's duplicate, still sitting
        in the shared result queue) could be credited to this sweep's
        same-numbered shard.  Bumping the epoch makes every stale
        message identifiable and droppable.
        """
        self.abandon_pending()


class MultiprocessBackend(WorkerPoolBackend):
    """Fans shot shards out over worker processes with per-worker queues.

    Unlike a ``Pool``, the parent controls exactly which worker runs
    which shard, so it can *prime* each worker with a circuit's text
    and DEM payload at most once (``prime`` message) and afterwards
    send only tiny ``(key, decoder, sampler, shots, seed)`` shard
    messages.
    Results stream back over a shared queue that the parent polls with
    an interruptible timed wait — SIGINT reaches the parent promptly
    instead of languishing behind a blocking ``pool.map``.  A worker
    that dies (OOM kill, SIGKILL, segfault) does not kill the sweep:
    its in-flight shards are disowned for the scheduler to resubmit to
    the survivors.
    """

    name = "multiprocess"

    def __init__(
        self,
        max_workers: int | None = None,
        start_method: str | None = None,
        queue_depth: int = 2,
    ):
        self.max_workers = max_workers if max_workers else (os.cpu_count() or 2)
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        self.queue_depth = queue_depth
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._procs: list = []
        self._task_queues: list = []
        self._result_queue = None
        self._dead: set[int] = set()
        self._init_pool()

    # ------------------------------------------------------------------
    def _worker_label(self, worker: int) -> str:
        return f"mp:{worker}"

    def _live_worker_count(self) -> int:
        if not self._procs:
            return self.max_workers
        return len(self._procs) - len(self._dead)

    def _ensure_workers(self) -> None:
        if self._procs:
            return
        self._result_queue = self._ctx.Queue()
        for _ in range(self.max_workers):
            task_queue = self._ctx.Queue()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(task_queue, self._result_queue),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
            self._task_queues.append(task_queue)
            self._load.append(0)

    def _live_workers(self) -> list[int]:
        self._reap_dead()
        return [w for w in range(len(self._procs)) if w not in self._dead]

    def _reap_dead(self) -> None:
        """Notice dead worker processes and disown their shards."""
        for worker, proc in enumerate(self._procs):
            if worker not in self._dead and not proc.is_alive():
                self._dead.add(worker)
                self._forget_worker(worker)

    def _send(self, worker: int, message: tuple) -> None:
        """Single dispatch point for worker messages (tests hook this
        to count priming traffic)."""
        self._task_queues[worker].put(message)

    # ------------------------------------------------------------------
    def poll(self) -> list[ShardOutcome]:
        outcomes = []
        if self._result_queue is None:
            return outcomes
        while True:
            try:
                message = self._result_queue.get_nowait()
            except queue_module.Empty:
                return outcomes
            outcome = self._handle(message)
            if outcome is not None:
                outcomes.append(outcome)

    def wait(self, poll_interval: float = 0.2) -> list[ShardOutcome]:
        """Wait up to one ``poll_interval`` for a shard to finish.

        The timed ``get`` keeps the parent interruptible: a SIGINT
        lands between polls instead of hanging until a whole job's
        ``map`` returns.  Returns an empty list after one quiet
        interval — the scheduler uses the beat to reap lost shards,
        steal straggler tails, and rescan elastic pools, and only
        treats emptiness as a stall when nothing is in flight at all.
        """
        try:
            message = self._result_queue.get(timeout=poll_interval)
        except queue_module.Empty:
            self._reap_dead()
            if not self._lost and self._procs and \
                    len(self._dead) == len(self._procs):
                # No survivor can ever produce a result; the usual
                # surfacing point is submit() on the scheduler's
                # resubmission attempt, but if wait() is reached
                # first it must raise too, never spin.
                raise NoLiveWorkersError(
                    f"all {len(self._procs)} worker process(es) died"
                )
            return []
        outcome = self._handle(message)
        if outcome is None:
            return self.poll()  # stale epoch / disowned: drain the rest
        return [outcome] + self.poll()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Graceful shutdown: let queued work finish, stop workers."""
        if not self._procs:
            return
        for worker in range(len(self._procs)):
            if worker not in self._dead:
                self._send(worker, ("stop",))
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        self._reset()

    def terminate(self) -> None:
        """Hard shutdown: abandon in-flight shards (interrupt path)."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join()
        self._reset()

    def _reset(self) -> None:
        self._procs = []
        self._task_queues = []
        self._result_queue = None
        self._dead = set()
        self._init_pool()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.close()
        else:
            self.terminate()


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
    wiring_method=None,
) -> JobArtifacts:
    """Run one design point through compile -> schedule -> resources,
    optionally exporting the noisy stabilizer circuit for sampling.

    ``wiring_method`` overrides the lookup of ``job.wiring`` by name —
    the hook the toolflow uses to evaluate custom wiring schemes.
    """
    if wiring_method is None:
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
        placer=job.placer,
    )
    compiler = QccdCompiler(config)
    program = compiler.compile()
    placement = compiler.placement()
    resources = wiring_method.resources(placement.device)
    metrics = {
        "code": job.code,
        "distance": job.distance,
        "capacity": job.capacity,
        "topology": job.topology,
        "wiring": wiring_method.name,
        "router": job.router,
        "placer": job.placer,
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
        in the registry)."""
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
            sampler=job.sampler,
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
# Ad-hoc adaptive sampling (the engine face of estimate_until_failures)
# ----------------------------------------------------------------------
def sample_adaptive(
    circuit: StabilizerCircuit,
    *,
    decoder: str = "mwpm",
    target_failures: int | None = 20,
    target_rel_stderr: float | None = None,
    max_shots: int = 10 ** 6,
    shard_shots: int = 5000,
    seed: int | None = None,
    backend=None,
    cache: CompilationCache | None = None,
    sampler: str = "dem",
) -> tuple[int, int]:
    """Sample ``circuit`` until ``target_failures`` failures (or, when
    ``target_rel_stderr`` is set, until the estimate's relative
    standard error falls below that bound) or the ``max_shots``
    budget, whichever comes first.

    The first satisfied target retires the job, so a tight precision
    bound needs ``target_failures=None`` (precision-only stopping) —
    otherwise the failure count fires first and caps the achievable
    precision at roughly ``1/sqrt(target_failures)``.

    Runs the same scheduler / shard plan machinery as a sweep job, so
    results are deterministic for a given ``seed`` and the sampling can
    be fanned out over a :class:`MultiprocessBackend`.  Returns
    ``(shots, failures)``.
    """
    if target_failures is None and target_rel_stderr is None:
        raise ValueError(
            "need target_failures and/or target_rel_stderr (otherwise use "
            "a fixed-shot sweep)"
        )
    if target_failures is not None and target_failures < 1:
        raise ValueError("target_failures must be positive")
    if target_rel_stderr is not None and target_rel_stderr <= 0:
        raise ValueError("target_rel_stderr must be positive")
    if shard_shots < 1 or max_shots < shard_shots:
        raise ValueError("need max_shots >= shard_shots >= 1")
    cache = cache if cache is not None else CompilationCache()
    compiled = cache.compiled(circuit)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy) & 0xFFFFFFFF
    own_backend = backend is None
    backend = backend if backend is not None else SerialBackend()
    plan = plan_shards(max_shots, shard_shots, seed, compiled.key)
    state = JobState(
        key=compiled.key,
        compiled=compiled,
        decoder=decoder,
        plan=plan,
        sampler=sampler,
        target_failures=target_failures,
        target_rel_stderr=target_rel_stderr,
        tranche_shards=len(plan),
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
