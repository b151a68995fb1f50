"""JSON-lines result persistence with resume support.

Each completed :class:`~repro.engine.sweep.SweepJob` appends one JSON
object to the store, keyed by the job's content hash.  Re-running a
sweep against the same store skips every job whose key is already
present — the property that makes long sweeps interruptible.  Loading
is tolerant of a truncated final line (the signature of a run killed
mid-write).

The store also checkpoints at **shard** granularity: the runner
appends one :class:`ShardRecord` line per completed shot shard, so a
job interrupted mid-sampling resumes from its surviving shards instead
of restarting.  Shard lines are written *before* the job's final
record and are superseded by it — ``load_shards`` only surfaces shard
records appended after the key's latest job record, and ``compact``
rewrites the file without the superseded lines.  Stores written before
shard checkpointing existed simply contain no shard lines (and old
readers skip shard lines as unparseable), so the format is compatible
in both directions.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from ..ler.estimator import LerResult
from .sweep import ForeignJobRecord, SweepJob


@dataclass
class JobResult:
    """Outcome of one sweep job.

    ``failures`` is ``None`` for compile-only jobs (``shots == 0``).
    ``metrics`` carries the compiler / resource numbers for the design
    point (field names match :class:`repro.toolflow.records.EvaluationRecord`),
    so higher layers can rebuild full records from a resumed store.
    """

    job: SweepJob
    shots: int
    failures: int | None
    rounds: int
    metrics: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    elapsed_s: float = 0.0
    resumed: bool = False
    # The run configuration the sample was drawn under (master seed,
    # shard layout, noise fingerprint).  A job key alone is not enough
    # to reuse a stored result: the same design point sampled under a
    # different seed or noise model is a different experiment.
    run_config: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return self.job.key

    @property
    def ler(self) -> LerResult | None:
        if self.failures is None:
            return None
        return LerResult(shots=self.shots, failures=self.failures, rounds=self.rounds)

    @property
    def per_shot(self) -> float | None:
        ler = self.ler
        return None if ler is None else ler.per_shot

    @property
    def per_round(self) -> float | None:
        ler = self.ler
        return None if ler is None else ler.per_round

    def to_jsonable(self) -> dict:
        return {
            "key": self.key,
            "job": self.job.to_dict(),
            "shots": self.shots,
            "failures": self.failures,
            "rounds": self.rounds,
            "metrics": self.metrics,
            "extras": self.extras,
            "elapsed_s": self.elapsed_s,
            "run_config": self.run_config,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "JobResult":
        return cls(
            job=SweepJob.from_dict(data["job"]),
            shots=int(data["shots"]),
            failures=None if data["failures"] is None else int(data["failures"]),
            rounds=int(data["rounds"]),
            metrics=dict(data.get("metrics", {})),
            extras=dict(data.get("extras", {})),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            resumed=True,
            run_config=dict(data.get("run_config", {})),
        )


@dataclass
class ShardRecord:
    """One checkpointed shot shard of a job still being sampled.

    Carries everything needed to credit the shard to a resumed job
    without re-executing it: the tallies, and the ``run_config`` the
    sample was drawn under (a shard sampled under a different master
    seed or shard layout belongs to a different experiment and must
    not be credited).
    """

    job_key: str
    shard_index: int
    shots: int
    failures: int
    elapsed_s: float = 0.0
    run_config: dict = field(default_factory=dict)
    # Telemetry-enabled runs checkpoint the shard's per-phase seconds
    # too, so a resumed job's phase attribution stays complete.  None
    # (telemetry off) serialises to no field at all — records stay
    # byte-identical to pre-telemetry stores.
    phases: dict | None = None

    def to_jsonable(self) -> dict:
        # The top-level "shard" wrapper is the format discriminator:
        # pre-checkpoint readers fail to parse it as a JobResult (no
        # "job" field) and skip the line as corrupt, which is exactly
        # the backward-compatible behaviour we want.
        body = {
            "job_key": self.job_key,
            "shard_index": self.shard_index,
            "shots": self.shots,
            "failures": self.failures,
            "elapsed_s": self.elapsed_s,
            "run_config": self.run_config,
        }
        if self.phases:
            body["phases"] = self.phases
        return {"shard": body}

    @classmethod
    def from_jsonable(cls, data: dict) -> "ShardRecord":
        body = data["shard"]
        phases = body.get("phases")
        return cls(
            job_key=str(body["job_key"]),
            shard_index=int(body["shard_index"]),
            shots=int(body["shots"]),
            failures=int(body["failures"]),
            elapsed_s=float(body.get("elapsed_s", 0.0)),
            run_config=dict(body.get("run_config", {})),
            phases=dict(phases) if phases else None,
        )


class ResultStore:
    """Append-only JSONL store of :class:`JobResult` records and
    :class:`ShardRecord` checkpoints.

    Loads are memoized against the file's stat signature: polling
    ``len(store)`` / ``completed_keys()`` during a sweep costs one
    ``stat`` instead of re-parsing the whole JSONL (O(n²) over a sweep
    otherwise).  ``append`` / ``append_shard`` keep the memo coherent;
    a write by another process changes the signature and forces a
    re-read.
    """

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._cache: dict[str, JobResult] | None = None
        self._shards: dict[str, dict[int, ShardRecord]] = {}
        self._signature: tuple[int, int] | None = None
        self.file_reads = 0  # parse passes over the file (for tests)

    def _stat_signature(self) -> tuple[int, int] | None:
        try:
            st = os.stat(self.path)
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def _parse(self):
        """One pass over the file: ``(jobs, live_shards, keep_lines)``.

        ``keep_lines`` is the set of line numbers a compaction retains:
        each key's latest job record, plus the shard records that
        *follow* it (checkpoints of a newer, unfinished sampling of the
        same key — the final job record supersedes only the shards
        written before it), plus every foreign job record (frame-sampled
        or pre-DEM-sampler): not loaded, but not corrupt either.
        """
        jobs: dict[str, JobResult] = {}
        job_line: dict[str, int] = {}
        foreign: set[int] = set()
        shard_entries: dict[tuple[str, int], tuple[int, ShardRecord]] = {}
        with open(self.path) as fh:
            for line_no, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    if isinstance(data, dict) and "shard" in data:
                        record = ShardRecord.from_jsonable(data)
                        shard_entries[(record.job_key, record.shard_index)] = (
                            line_no, record,
                        )
                        continue
                    result = JobResult.from_jsonable(data)
                except ForeignJobRecord:
                    foreign.add(line_no)
                    continue
                except (ValueError, KeyError, TypeError):
                    continue  # truncated / corrupt line from an interrupted run
                jobs[result.key] = result
                job_line[result.key] = line_no
        shards: dict[str, dict[int, ShardRecord]] = {}
        keep = set(job_line.values()) | foreign
        for (key, index), (line_no, record) in shard_entries.items():
            if line_no > job_line.get(key, -1):
                shards.setdefault(key, {})[index] = record
                keep.add(line_no)
        return jobs, shards, keep

    def _refresh(self) -> None:
        signature = self._stat_signature()
        if self._cache is not None and signature == self._signature:
            return
        if signature is None:
            self._cache, self._shards = {}, {}
        else:
            self.file_reads += 1
            self._cache, self._shards, _ = self._parse()
        self._signature = signature

    def load(self) -> dict[str, JobResult]:
        """All stored results by job key; silently drops corrupt lines.

        Later lines win, so a job re-sampled under a new run
        configuration supersedes the stale record.
        """
        self._refresh()
        return dict(self._cache)

    def load_shards(self, job_key: str) -> dict[int, ShardRecord]:
        """Checkpointed shards of ``job_key`` not yet superseded by a
        final job record, by shard index."""
        self._refresh()
        return dict(self._shards.get(job_key, {}))

    def completed_keys(self) -> set[str]:
        return set(self.load())

    def _append_line(self, payload: str):
        """Append one JSONL line with crash-repair and memo accounting.

        Returns ``(fresh, post_signature)`` — whether the memo matched
        the file before the write *and* the file grew by exactly our
        payload (no interleaved writer), in which case the caller may
        extend the memo instead of dropping it.
        """
        # A run killed mid-write can leave a truncated final line with
        # no newline; appending straight after it would corrupt this
        # record too, so repair the separator first.
        pre_signature = self._stat_signature()
        fresh = self._cache is not None and pre_signature == self._signature
        needs_newline = False
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            with open(self.path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                needs_newline = fh.read(1) != b"\n"
        if needs_newline:
            payload = "\n" + payload
        with open(self.path, "a") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        post_signature = self._stat_signature()
        expected_size = (pre_signature[1] if pre_signature else 0) + len(
            payload.encode()
        )
        fresh = (
            fresh
            and post_signature is not None
            and post_signature[1] == expected_size
        )
        return fresh, post_signature

    def append(self, result: JobResult) -> None:
        payload = json.dumps(result.to_jsonable()) + "\n"
        fresh, post_signature = self._append_line(payload)
        if fresh:
            # Round-trip the record so the memo is indistinguishable
            # from a disk read (``resumed`` flag, JSON-normalised
            # values).  The final job record supersedes the key's
            # checkpointed shards.
            self._cache[result.key] = JobResult.from_jsonable(result.to_jsonable())
            self._shards.pop(result.key, None)
            self._signature = post_signature
        else:
            # Another process may have written concurrently: drop the
            # memo so the next load re-reads the merged file.
            self._cache = None
            self._shards = {}
            self._signature = None

    def append_shard(self, record: ShardRecord) -> None:
        """Checkpoint one completed shard (fsynced, crash-safe)."""
        payload = json.dumps(record.to_jsonable()) + "\n"
        fresh, post_signature = self._append_line(payload)
        if fresh:
            normalised = ShardRecord.from_jsonable(
                json.loads(json.dumps(record.to_jsonable()))
            )
            self._shards.setdefault(record.job_key, {})[
                record.shard_index
            ] = normalised
            self._signature = post_signature
        else:
            self._cache = None
            self._shards = {}
            self._signature = None

    def compact(self) -> int:
        """Rewrite the store without superseded lines; returns the
        number of lines dropped.

        Superseded means: an older job record for a key that was since
        re-recorded, or a shard checkpoint written before its key's
        final job record.  Shard checkpoints of jobs with no final
        record survive — they are what a resumed run needs.  Not safe
        against a concurrent writer appending mid-rewrite (the store
        has a single-writer append model; compaction is for the owner
        of the sweep).
        """
        if self._stat_signature() is None:
            return 0
        self.file_reads += 1
        _jobs, _shards, keep = self._parse()
        kept_lines = []
        dropped = 0
        with open(self.path) as fh:
            for line_no, line in enumerate(fh):
                if line_no in keep:
                    kept_lines.append(line if line.endswith("\n") else line + "\n")
                elif line.strip():
                    dropped += 1
        if dropped == 0:
            return 0
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.writelines(kept_lines)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._cache = None
        self._shards = {}
        self._signature = None
        return dropped

    def __len__(self) -> int:
        return len(self.load())
