"""Progress reporting for sweep runs.

Long sweeps are the normal case, so the runner narrates: one line per
job (completed, or skipped via resume) with running counts and the
job's failure tally, plus a final summary including compilation-cache
statistics.  Disabled reporters swallow everything, so library callers
pay nothing.
"""

from __future__ import annotations

import sys
import time


class ProgressReporter:
    """Prints one status line per finished job to ``stream``."""

    def __init__(self, enabled: bool = True, stream=None):
        self.enabled = enabled
        self.stream = stream if stream is not None else sys.stderr
        self.total = 0
        self.done = 0
        self.skipped = 0
        self._t0 = time.monotonic()

    # ------------------------------------------------------------------
    def start(self, total: int) -> None:
        self.total = total
        self.done = 0
        self.skipped = 0
        self._t0 = time.monotonic()
        self._emit(f"sweep: {total} job(s)")

    def job_skipped(self, key: str) -> None:
        self.done += 1
        self.skipped += 1
        self._emit(f"[{self.done}/{self.total}] skip (resumed) {key}")

    def job_done(
        self,
        key: str,
        failures: int | None,
        elapsed_s: float,
        shots: int | None = None,
    ) -> None:
        self.done += 1
        tally = "compile-only" if failures is None else f"failures={failures}"
        if shots is not None and failures is not None:
            tally += f"/{shots} shots"
        self._emit(f"[{self.done}/{self.total}] done {key} {tally} ({elapsed_s:.1f}s)")

    def finish(
        self,
        cache_stats: dict | None = None,
        memo_stats: dict | None = None,
        setup_s: float | None = None,
        phase_s: dict | None = None,
        steal_stats: dict | None = None,
    ) -> None:
        """End-of-sweep summary line.

        ``setup_s`` is the total per-job setup time (compile + DEM +
        cache) the runner measured; ``phase_s`` is the sweep-wide
        per-phase seconds dict from telemetry-enabled runs;
        ``steal_stats`` the scheduler's straggler-steal counters — all
        optional so older callers keep working unchanged.
        """
        elapsed = time.monotonic() - self._t0
        line = (
            f"sweep finished: {self.done}/{self.total} job(s), "
            f"{self.skipped} resumed, {elapsed:.1f}s"
        )
        if setup_s is not None and setup_s > 0.0:
            line += f" | setup: {setup_s:.1f}s"
        if cache_stats:
            # Partial stats dicts (custom caches, older stores) must
            # not crash the end-of-sweep summary.
            line += (
                f" | cache: {cache_stats.get('misses', 0)} compiled, "
                f"{cache_stats.get('hits', 0)} hits, "
                f"{cache_stats.get('disk_hits', 0)} disk hits"
            )
        if memo_stats and (
            memo_stats.get("hits", 0) or memo_stats.get("misses", 0)
        ):
            # Syndrome-memo traffic: without it, a dedupe regression
            # (near-threshold points where every syndrome is distinct)
            # is invisible from the sweep summary.
            line += (
                f" | memo: {memo_stats.get('hits', 0)} hits, "
                f"{memo_stats.get('misses', 0)} misses, "
                f"{memo_stats.get('peak_entries', 0)} peak entries"
            )
        self._emit(line)
        if phase_s:
            self._emit("phases: " + format_phase_share(phase_s))
        if steal_stats and steal_stats.get("steals"):
            # Straggler-steal summary: how many tail shards the
            # scheduler re-sharded onto idle capacity (statistics are
            # bit-identical either way; this is purely a latency lever).
            self._emit(
                f"steals: {steal_stats['steals']} straggler shard(s) "
                f"re-sharded into {steal_stats.get('windows', 0)} "
                f"window(s) ({steal_stats.get('stolen_shots', 0)} shots)"
            )

    def status(self, snapshot: dict) -> None:
        """Live mid-sweep status (the runner calls this every
        ``status_interval`` seconds): job/shard progress, per-phase
        time share, memo hit rate, and — on pool backends — per-worker
        utilisation with straggler flags."""
        elapsed = time.monotonic() - self._t0
        line = (
            f"status: {self.done}/{self.total} job(s), "
            f"{snapshot.get('shards_done', 0)} shard(s), {elapsed:.1f}s"
        )
        memo = snapshot.get("memo") or {}
        if "hit_rate" in memo:
            line += f" | memo hit rate {memo['hit_rate']:.1%}"
        phase_s = snapshot.get("phase_s")
        if phase_s:
            line += " | " + format_phase_share(phase_s)
        steals = snapshot.get("steals")
        if steals and steals.get("steals"):
            line += (
                f" | steals {steals['steals']} "
                f"({steals.get('windows', 0)} windows)"
            )
        self._emit(line)
        pool = snapshot.get("pool")
        if pool and pool.get("workers"):
            self._emit("workers: " + format_pool_health(pool))

    # ------------------------------------------------------------------
    def _emit(self, line: str) -> None:
        if not self.enabled:
            return
        print(line, file=self.stream)
        if hasattr(self.stream, "flush"):
            self.stream.flush()


def format_phase_share(phase_s: dict) -> str:
    """``name 42% (1.3s)`` fragments, largest share first."""
    total = sum(phase_s.values())
    if total <= 0.0:
        return "(no phase data)"
    parts = []
    for name, seconds in sorted(
        phase_s.items(), key=lambda item: -item[1]
    ):
        parts.append(f"{name} {seconds / total:.0%} ({seconds:.2f}s)")
    return ", ".join(parts)


def format_pool_health(pool: dict) -> str:
    """One fragment per worker plus pool-wide crash/resubmit counts.

    A worker whose on-worker busy time trails the pool's best by more
    than half is flagged as a straggler — the thing to look at when a
    distributed sweep's wall clock stops scaling.
    """
    workers = pool.get("workers", {})
    best_busy = max(
        (stats.get("busy_s", 0.0) for stats in workers.values()), default=0.0
    )
    parts = []
    for label, stats in sorted(workers.items()):
        fragment = (
            f"{label} {stats.get('shards', 0)} shard(s) "
            f"busy {stats.get('busy_s', 0.0):.1f}s"
        )
        inflight = stats.get("inflight", 0)
        if inflight:
            fragment += f" +{inflight} inflight"
        if best_busy > 0.0 and stats.get("busy_s", 0.0) < 0.5 * best_busy:
            fragment += " [straggler]"
        parts.append(fragment)
    line = "; ".join(parts) if parts else "(none)"
    crashes = pool.get("crashes", 0)
    if crashes:
        line += (
            f" | {crashes} crash(es), "
            f"{pool.get('resubmitted_shards', 0)} shard(s) resubmitted"
        )
    return line


def make_progress(progress) -> ProgressReporter:
    """Normalise a user-supplied progress argument.

    Accepts a :class:`ProgressReporter`, a truthy flag (report to
    stderr), or anything falsy (silent).
    """
    if isinstance(progress, ProgressReporter):
        return progress
    return ProgressReporter(enabled=bool(progress))
