"""Cross-job streaming shard scheduler with adaptive shot allocation.

The scheduler is the engine's execution core: it turns a set of
:class:`JobState` machines (one per sampled sweep job) into a stream
of :class:`ShardTask` submissions against a backend, absorbing
:class:`ShardOutcome` results as they arrive.  Three properties fall
out of the design:

- **streaming** — shards of *different* jobs are in flight at the same
  time, so a worker pool never drains between jobs and the parent can
  keep compiling the next design point while workers sample the
  previous one;
- **adaptive allocation** — a job with ``target_failures`` set retires
  as soon as it has observed that many failures, and a job with
  ``target_rel_stderr`` set retires once its Jeffreys-smoothed
  relative standard error falls below the bound (a *precision* target:
  noisy points stop early, quiet points keep sampling); the worker
  slots a retired job frees are immediately refilled with shards of
  unconverged jobs (up to each job's ``max_shots``), which is where
  the reinvested budget goes;
- **fixed-shot determinism** — a job without a failure target always
  runs its *entire* shard plan, and failure counts are summed over the
  full plan, so totals are bit-identical across backends, worker
  counts and scheduling order (integer addition commutes).

Backends expose a small streaming interface:

- ``capacity`` — how many tasks the backend wants in flight;
- ``submit(task, compiled, cache)`` — dispatch one shard;
- ``poll()`` — non-blocking drain of finished shards;
- ``wait()`` — block (interruptibly) until at least one shard finishes.

Worker-pool backends additionally expose **crash recovery**:

- ``take_lost()`` — drain the sequence numbers of shards whose worker
  died before reporting a result.

The scheduler remembers every in-flight :class:`ShardTask` and, when a
backend reports losses, resubmits the lost tasks — with their
*original* ``SeedSequence`` streams — to the surviving workers.  A
shard's sample is fully determined by its seed, so a recovered sweep's
failure counts are bit-identical to a crash-free run.  ``wait()`` may
return an empty outcome list after one poll interval; the scheduler
uses each beat to reap losses, steal straggler tails, and let elastic
pools rescan, and only diagnoses a stall when nothing is in flight.

**Work stealing**: when the stream's tail is held by in-flight shards
and the pool has idle capacity, the slowest in-flight shard of a
fixed-shot job is *split* — released from its worker (its eventual
result is dropped as superseded) and resubmitted as several windowed
sub-shards that re-draw the parent's sample from its original seed and
each decode a disjoint row range.  Per-row samples and failures are
independent of the batch split, so the windows' failure counts sum to
exactly what the unstolen shard would have reported: stealing changes
wall-clock, never statistics.  Seeds come from the pre-planned shard
stream, not from timing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ShardTask:
    """One shard submission: everything a worker needs, and nothing more.

    Deliberately carries no DEM payload — the DEMs are shipped to each
    worker at most once per unique circuit by the backend's priming
    protocol, keyed by ``circuit_key``.
    """

    seq: int
    job_key: str
    circuit_key: str
    decoder: str
    shots: int
    seed: np.random.SeedSequence
    shard_index: int
    # Stolen-window fields: a window re-draws its parent's full
    # ``parent_shots`` sample from ``seed`` and decodes only rows
    # ``[offset, offset + shots)``.  ``parent_shots is None`` means a
    # whole planned shard.
    offset: int = 0
    parent_shots: int | None = None
    # Scheduler seq of the superseded parent (driver-side routing hint
    # only — never serialized): lets the backend keep a window off the
    # worker still chewing on the parent it replaced.
    parent_seq: int | None = None


@dataclass(frozen=True)
class ShardOutcome:
    """One finished shard's failure tally.

    ``elapsed_s`` is the shard's own sampling time on whichever worker
    ran it, so a job's cost can be reported exclusive of time spent
    queued behind other jobs' shards.  ``memo_hits`` / ``memo_misses``
    are the shard's own syndrome-memo traffic (deltas, so they sum
    across shards); ``memo_size`` is the memo's entry count right after
    the shard, making dedupe behaviour observable from the parent.

    ``phases`` (telemetry-enabled runs only) is the shard's own
    per-phase exclusive seconds — ``{"sample": ..., "unique": ...,
    "decode": ...}`` — measured wherever the shard actually ran, so the
    driver can attribute shard wall-clock across the pipeline.
    ``worker`` labels that location (``"host:port"`` for remote
    workers, ``"mp:N"`` for local processes, ``""`` for in-process
    execution).
    """

    seq: int
    job_key: str
    shots: int
    failures: int
    elapsed_s: float = 0.0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_size: int = 0
    phases: dict | None = field(default=None, compare=False)
    worker: str = ""


class JobState:
    """Sampling progress of one job: plan cursor, tallies, convergence.

    ``plan`` covers the job's *maximum* budget (``max_shots`` when
    adaptive, ``shots`` otherwise); ``tranche_shards`` marks how many
    of those shards form the guaranteed initial tranche.  ``payload``
    is opaque context the caller gets back on completion (the runner
    stores the job, its artifacts and a start timestamp there).

    ``initial_shots`` / ``initial_failures`` / ``initial_work_s`` seed
    the tallies with checkpointed shard outcomes: a resumed job passes
    the sums of its already-completed shards (and a ``plan`` holding
    only the *remaining* shards), so sampling continues mid-job instead
    of restarting.  An empty remaining plan is legal — the job is done
    on arrival.
    """

    __slots__ = (
        "key", "compiled", "decoder", "plan", "target_failures",
        "target_rel_stderr", "tranche_shards", "payload", "next_index",
        "inflight", "shots_done", "failures", "shots_submitted", "work_s",
        "memo_hits", "memo_misses", "memo_size", "phase_s", "retired",
    )

    def __init__(
        self,
        key: str,
        compiled,
        decoder: str,
        plan: list,
        *,
        target_failures: int | None = None,
        target_rel_stderr: float | None = None,
        tranche_shards: int | None = None,
        payload=None,
        initial_shots: int = 0,
        initial_failures: int = 0,
        initial_work_s: float = 0.0,
        initial_phases: dict | None = None,
    ):
        self.key = key
        self.compiled = compiled
        self.decoder = decoder
        self.plan = plan
        self.target_failures = target_failures
        self.target_rel_stderr = target_rel_stderr
        self.tranche_shards = (
            len(plan) if tranche_shards is None else min(tranche_shards, len(plan))
        )
        self.payload = payload
        self.next_index = 0
        self.inflight = 0
        self.shots_done = initial_shots
        self.failures = initial_failures
        # Checkpointed shots count as submitted so reinvestment ranking
        # doesn't mistake a resumed job for a starved one.
        self.shots_submitted = initial_shots
        self.work_s = initial_work_s
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_size = 0
        # Per-phase exclusive seconds summed over this job's shards
        # (seeded with checkpointed phases on resume, like work_s).
        self.phase_s: dict[str, float] = dict(initial_phases or {})
        self.retired = False

    # ------------------------------------------------------------------
    @property
    def adaptive(self) -> bool:
        return (
            self.target_failures is not None
            or self.target_rel_stderr is not None
        )

    @property
    def rel_stderr(self) -> float:
        """Jeffreys-smoothed per-shot relative standard error — the
        same smoothing as :class:`repro.ler.estimator.LerResult`, so a
        precision-retired job's stored counts reproduce the bound."""
        p = (self.failures + 0.5) / (self.shots_done + 1.0)
        return math.sqrt(p * (1.0 - p) / (self.shots_done + 1.0)) / p

    @property
    def converged(self) -> bool:
        """A target met — only adaptive jobs ever converge.

        A precision target never retires a job with zero observed
        failures: the explicit ``failures > 0`` guard matters because
        the smoothed zero-failure rel-stderr approaches sqrt(2) from
        *below*, so a loose bound in [~1.22, 1.414) would otherwise
        retire a job that has produced no statistics at all.

        Convergence **latches**: at fixed failures the relative stderr
        *rises* with shots, so a zero-failure in-flight shard landing
        after the bound was met could otherwise push the job back above
        the bound and un-retire it — resuming submission for a point
        whose precision target was already satisfied (and breaking the
        tranche cursor's no-reversal invariant).
        """
        if self.retired:
            return True
        if self.target_failures is not None and (
            self.failures >= self.target_failures
        ):
            self.retired = True
        elif (
            self.target_rel_stderr is not None
            and self.failures > 0
            and self.rel_stderr <= self.target_rel_stderr
        ):
            self.retired = True
        return self.retired

    @property
    def exhausted(self) -> bool:
        return self.next_index >= len(self.plan)

    @property
    def in_tranche(self) -> bool:
        return self.next_index < self.tranche_shards

    @property
    def wants_submission(self) -> bool:
        """Fixed jobs must run their whole plan; adaptive jobs stop
        submitting the moment they converge."""
        return not self.exhausted and not self.converged

    @property
    def done(self) -> bool:
        return self.inflight == 0 and (self.exhausted or self.converged)


class StreamScheduler:
    """Streams shards from many jobs through one backend.

    Submission policy: first resubmit shards lost to dead workers
    (their data is owed to jobs already past the planning cursor), then
    fill every job's initial tranche in job order (so serial execution
    visits jobs in the order the sweep declared them), then reinvest
    free capacity in the adaptive job that has sampled the least so far
    — the starved points catch up first.

    ``on_outcome(task, outcome, state)``, when given, fires once per
    absorbed shard — the hook the runner uses to checkpoint completed
    shards into the result store.
    """

    def __init__(
        self, backend, cache, on_outcome=None, *,
        steal: bool = True, steal_min_shots: int = 256,
    ):
        self.backend = backend
        self.cache = cache
        self.on_outcome = on_outcome
        # Straggler stealing: only meaningful against a backend whose
        # workers can run windowed sub-shards (``supports_windows``);
        # silently inert elsewhere.  ``steal_min_shots`` floors the
        # window size so stealing never shatters a shard into slivers
        # whose per-window overhead outweighs the tail it trims.
        self._steal = bool(steal)
        self._steal_min_shots = max(1, int(steal_min_shots))
        # Seqs of split (stolen-from) parents whose late results must
        # be dropped: their windows are the copies that count.
        self._superseded: set[int] = set()
        self._steals = 0
        self._stolen_shots = 0
        self._steal_windows = 0
        # A shared backend may hold leftovers of an earlier sweep
        # (replies to its abandoned shards); our seq numbers start at
        # 0, so fence those out before any submission can collide
        # with them.
        begin_session = getattr(backend, "begin_session", None)
        if begin_session is not None:
            begin_session()
        self._states: dict[str, JobState] = {}
        self._order: list[JobState] = []
        self._seq = 0
        self._inflight = 0
        self._unfinished = 0
        # Monotone cursor over _order for tranche filling (a job never
        # regains tranche eligibility, so skipped entries stay skipped)
        # and a completion queue filled by _absorb — both keep the
        # scheduler O(1) per shard instead of O(jobs).
        self._tranche_cursor = 0
        self._newly_done: list[JobState] = []
        # Every in-flight task by sequence number: the source of truth
        # for crash recovery (a lost seq maps back to the exact task —
        # and seed — that must be resubmitted) and for the checkpoint
        # hook (an outcome's shard index lives on the task).
        self._pending: dict[int, tuple[ShardTask, JobState]] = {}
        # Tasks reaped from a dead worker, awaiting resubmission.
        self._retry: list[ShardTask] = []

    # ------------------------------------------------------------------
    def has(self, key: str) -> bool:
        return key in self._states

    def add(self, state: JobState) -> list[JobState]:
        """Register a job and pump the stream without blocking.

        Returns any jobs that completed while pumping (with a serial
        backend that is typically the job just added: submission runs
        the shard in-process, so the stream drains eagerly).
        """
        if state.key in self._states:
            raise ValueError(f"job {state.key!r} already scheduled")
        self._states[state.key] = state
        self._order.append(state)
        if state.done:
            # Nothing left to sample — every shard was checkpointed
            # (or the preloaded tallies already satisfy an adaptive
            # target).  _absorb never runs for such a job, so surface
            # the completion here.
            self._newly_done.append(state)
        else:
            self._unfinished += 1
        self._pump()
        return self._pop_completed()

    def drain(self):
        """Generator of completed jobs; blocks until every job is done."""
        for done in self._pop_completed():
            yield done
        while self._unfinished:
            submitted = self._fill()
            outcomes = self.backend.poll()
            if not outcomes and not submitted:
                if self._inflight == 0:
                    raise RuntimeError(
                        "scheduler stalled: jobs pending but nothing in flight"
                    )
                outcomes = self.backend.wait()
            self._absorb(outcomes)
            for done in self._pop_completed():
                yield done

    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Submit as much as capacity allows; absorb without blocking."""
        while True:
            submitted = self._fill()
            outcomes = self.backend.poll()
            if not outcomes and not submitted:
                return
            self._absorb(outcomes)

    def _fill(self) -> int:
        self._recover()
        capacity = max(1, int(getattr(self.backend, "capacity", 1)))
        submitted = 0
        # Lost shards first: their jobs already committed to these
        # samples (the plan cursor moved past them), so the stream
        # cannot finish until they land somewhere.  state.inflight
        # still counts a queued retry (see _recover), so only the
        # scheduler's capacity slot is re-taken here.
        while self._retry and self._inflight < capacity:
            task = self._retry.pop(0)
            state = self._states[task.job_key]
            if state.converged:
                # Converged while the retry sat queued: its sample can
                # no longer matter — abandon it instead of resubmitting.
                self._drop_task(state)
                continue
            self._inflight += 1
            self._pending[task.seq] = (task, state)
            self.backend.submit(task, state.compiled, self.cache)
            submitted += 1
        while self._inflight < capacity:
            state = self._pick()
            if state is None:
                break
            shard = state.plan[state.next_index]
            task = ShardTask(
                seq=self._seq,
                job_key=state.key,
                circuit_key=state.compiled.key,
                decoder=state.decoder,
                shots=shard.shots,
                seed=shard.seed,
                shard_index=shard.index,
            )
            self._seq += 1
            state.next_index += 1
            state.inflight += 1
            state.shots_submitted += shard.shots
            self._inflight += 1
            self._pending[task.seq] = (task, state)
            self.backend.submit(task, state.compiled, self.cache)
            submitted += 1
        if self._inflight < capacity and not self._retry:
            # No plannable work left but capacity is idle: the stream's
            # tail is held by in-flight stragglers — split one.
            submitted += self._maybe_steal(capacity)
        return submitted

    def _maybe_steal(self, capacity: int) -> int:
        """Split the stalest in-flight fixed-shot shard across the idle
        capacity.  The parent is released immediately (its late result
        is superseded) and ``idle + 1`` windows of it are submitted, so
        post-steal in-flight exactly refills capacity — no re-steal
        churn within one beat, and the stolen rows start moving on idle
        workers while the original worker's effort is simply discarded.
        """
        if not self._steal or self._inflight == 0:
            return 0
        supports = getattr(self.backend, "supports_windows", None)
        if supports is None or not supports():
            return 0
        stale = getattr(self.backend, "stale_pending", None)
        order = stale() if stale is not None else sorted(self._pending)
        for seq in order:
            entry = self._pending.get(seq)
            if entry is None:
                continue
            task, state = entry
            if task.parent_shots is not None or state.adaptive:
                # Never re-split a window; adaptive jobs retire early
                # on their own and a dropped parent would waste their
                # nearly-done sample.
                continue
            idle = capacity - self._inflight
            windows = min(idle + 1, task.shots // self._steal_min_shots)
            if windows < 2:
                continue
            self._split_task(seq, task, state, windows)
            return windows
        return 0

    def _split_task(self, seq, task, state, windows: int) -> None:
        del self._pending[seq]
        self._inflight -= 1
        state.inflight -= 1
        self._superseded.add(seq)
        base, rem = divmod(task.shots, windows)
        offset = 0
        for i in range(windows):
            shots = base + (1 if i < rem else 0)
            child = ShardTask(
                seq=self._seq,
                job_key=task.job_key,
                circuit_key=task.circuit_key,
                decoder=task.decoder,
                shots=shots,
                seed=task.seed,
                shard_index=task.shard_index,
                offset=offset,
                parent_shots=task.shots,
                parent_seq=seq,
            )
            self._seq += 1
            offset += shots
            state.inflight += 1
            self._inflight += 1
            self._pending[child.seq] = (child, state)
            self.backend.submit(child, state.compiled, self.cache)
        self._steals += 1
        self._stolen_shots += task.shots
        self._steal_windows += windows
        logger.info(
            "stole straggler shard %d of job %s (seq %d, %d shots) into "
            "%d windows", task.shard_index, task.job_key, seq, task.shots,
            windows,
        )

    def steal_stats(self) -> dict:
        """Straggler-steal counters (all zero when stealing never
        engaged): parents split, shots re-sharded, windows submitted."""
        if not self._steals:
            return {}
        return {
            "steals": self._steals,
            "stolen_shots": self._stolen_shots,
            "windows": self._steal_windows,
        }

    def _recover(self) -> None:
        """Reap shards lost to dead workers and queue their resubmission.

        The resubmitted task carries its original seed, so the survivor
        draws exactly the sample the dead worker would have — failure
        counts stay bit-identical to a crash-free run.  A lost shard of
        an adaptive job that has *already converged* is dropped instead:
        its result could no longer change the job's outcome, and the
        job may have no surviving capacity to run it on.

        A queued retry releases only the *scheduler's* capacity slot
        (``self._inflight``), never the job's own ``state.inflight``: a
        job still owed a lost sample is not done, even if every shard
        the backend currently holds has landed — otherwise the job
        would finalize early with the lost shard's shots missing and
        then complete a second time when the retry lands, corrupting
        the unfinished-job count.
        """
        take_lost = getattr(self.backend, "take_lost", None)
        if take_lost is None:
            return
        for seq in take_lost():
            # A split parent lost with its worker needs no recovery —
            # its windows carry the sample — just stop tracking it.
            self._superseded.discard(seq)
            entry = self._pending.pop(seq, None)
            if entry is None:
                continue
            task, state = entry
            self._inflight -= 1
            if state.converged:
                self._drop_task(state)
            else:
                logger.warning(
                    "resubmitting shard %d of job %s (seq %d) lost to a "
                    "dead worker", task.shard_index, task.job_key, seq,
                )
                self._retry.append(task)

    def _drop_task(self, state: JobState) -> None:
        """Abandon one lost/queued task of a converged job for good."""
        state.inflight -= 1
        if state.done:
            self._newly_done.append(state)
            self._unfinished -= 1

    def _pick(self) -> JobState | None:
        # Phase 1: guaranteed initial tranches, in declaration order.
        # The cursor only moves forward: a job leaves the tranche phase
        # by exhausting it or converging, and neither reverses.
        while self._tranche_cursor < len(self._order):
            state = self._order[self._tranche_cursor]
            if state.wants_submission and state.in_tranche:
                return state
            self._tranche_cursor += 1
        # Phase 2: reinvest in the least-sampled unconverged job.
        best = None
        best_rank = None
        for position, state in enumerate(self._order):
            if not state.wants_submission:
                continue
            rank = (state.shots_submitted, position)
            if best_rank is None or rank < best_rank:
                best, best_rank = state, rank
        return best

    def _absorb(self, outcomes) -> None:
        for outcome in outcomes:
            if outcome.seq in self._superseded:
                # A split parent finished after all: its windows are
                # the copies that count (identical rows, identical
                # failures), so this result is surplus by construction.
                self._superseded.discard(outcome.seq)
                continue
            state = self._states[outcome.job_key]
            task_entry = self._pending.pop(outcome.seq, None)
            state.inflight -= 1
            self._inflight -= 1
            state.shots_done += outcome.shots
            state.failures += outcome.failures
            state.work_s += outcome.elapsed_s
            state.memo_hits += outcome.memo_hits
            state.memo_misses += outcome.memo_misses
            if outcome.phases:
                for phase, seconds in outcome.phases.items():
                    state.phase_s[phase] = state.phase_s.get(phase, 0.0) + seconds
            # Peak entry count: shard snapshots of one memo are
            # monotone, so the max is the job's final memo size on its
            # busiest worker.
            state.memo_size = max(state.memo_size, outcome.memo_size)
            if self.on_outcome is not None and task_entry is not None:
                self.on_outcome(task_entry[0], outcome, state)
            if state.done:
                # A job can only complete when its last in-flight shard
                # lands (a queued retry counts as in flight), so this
                # is the one place completions surface.
                self._newly_done.append(state)
                self._unfinished -= 1

    def _pop_completed(self) -> list[JobState]:
        fresh, self._newly_done = self._newly_done, []
        return fresh
