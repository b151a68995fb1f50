"""repro.engine — sharded, cached experiment execution for Monte-Carlo sweeps.

The uniform harness behind the paper's figure sweeps:

- :class:`SweepSpec` / :class:`SweepJob` — a declarative grid over
  (distance x capacity x topology x wiring x noise point x decoder)
  that expands into a deterministic job list (``sweep.py``);
- :class:`CompilationCache` — content-addressed in-memory + on-disk
  caching of DEM extraction and detector graphs, plus in-memory
  decoders and bit-packed DEM samplers, so each unique circuit is
  compiled exactly once per sweep (MWPM's all-pairs search runs once
  per detector graph, inside the graph); the disk layer holds the two
  DEMs and is LRU-size-bounded via ``max_disk_mb`` (``cache.py``);
- :class:`Runner` / :func:`run_sweep` with pluggable backends —
  :class:`SerialBackend`, and one worker pool with two ways in: a
  :class:`MultiprocessBackend` that forks local workers and a
  :class:`RemoteBackend` that dials ``repro-worker`` processes on
  other machines.  Every pool worker runs the same loop over one
  socket and builds its own decoders from the primed DEMs; shots are
  sharded over independent ``SeedSequence`` streams so failure counts
  merge bit-identically, and a dead worker's shards are resubmitted
  to survivors (``runner.py``, ``pool.py``, ``worker.py``,
  ``remote.py``);
- :func:`sample_circuit` — the same cache, shard plan and scheduler
  over one ad-hoc circuit, fixed-shot or adaptive; every
  :mod:`repro.ler` estimator samples through it (``runner.py``);
- :class:`ResultStore` / :class:`JobResult` / :class:`ShardRecord` —
  JSON-lines persistence with resume at job *and* shard granularity:
  completed job keys are skipped, and an interrupted job resumes from
  its checkpointed shards (``results.py``);
- :class:`ProgressReporter` — per-job narration, end-of-sweep
  setup/phase breakdown and the ``--status`` live view (``progress.py``);
- observability — with :func:`repro.telemetry.configure` enabled, every
  pipeline phase runs in a span, shard outcomes carry per-phase
  seconds, pool backends expose ``pool_health()``, and sweeps export
  Chrome traces / JSONL metrics (see :mod:`repro.telemetry`).

Quick start
-----------
>>> from repro.engine import SweepSpec, run_sweep
>>> spec = SweepSpec(distances=(3,), shots=0)          # compile-only
>>> results = run_sweep(spec)
>>> results[0].metrics["round_time_us"] > 0
True
"""

from .cache import CompilationCache, CompiledCircuit, circuit_key
from .pool import MultiprocessBackend, NoLiveWorkersError, WorkerPoolBackend
from .progress import ProgressReporter
from .results import JobResult, ResultStore, ShardRecord
from .runner import (
    DEFAULT_SHARD_SHOTS,
    Runner,
    SerialBackend,
    compile_design_point,
    plan_shards,
    run_sweep,
    sample_circuit,
)
from .scheduler import JobState, ShardOutcome, ShardTask, StreamScheduler
from .sweep import SweepJob, SweepSpec
from .worker import Shard, ShardExecutor


def __getattr__(name):
    # Lazy so that ``python -m repro.engine.remote`` (the worker entry
    # point) doesn't find the module pre-imported by its own package —
    # runpy warns about that.
    if name == "RemoteBackend":
        from .remote import RemoteBackend

        return RemoteBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "SweepSpec",
    "SweepJob",
    "CompilationCache",
    "CompiledCircuit",
    "circuit_key",
    "Runner",
    "run_sweep",
    "sample_circuit",
    "SerialBackend",
    "MultiprocessBackend",
    "RemoteBackend",
    "WorkerPoolBackend",
    "ShardExecutor",
    "NoLiveWorkersError",
    "Shard",
    "plan_shards",
    "compile_design_point",
    "DEFAULT_SHARD_SHOTS",
    "JobResult",
    "ResultStore",
    "ShardRecord",
    "ProgressReporter",
    "StreamScheduler",
    "JobState",
    "ShardTask",
    "ShardOutcome",
]
