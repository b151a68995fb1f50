"""The worker pool: one driver event loop over one socket per worker.

Local and remote workers are the same worker: each runs
:func:`~repro.engine.worker._serve_connection` on one socket, and the
driver speaks to all of them through :class:`WorkerPoolBackend` — the
hello handshake, priming at most once per (worker, circuit), tiny
payload-free shard tuples, a selector event loop, crash recovery on
EOF, :class:`NoLiveWorkersError` and wire statistics.  The backends
differ only in how a connection is made:

- :class:`MultiprocessBackend` forks ``max_workers`` children, each
  serving one end of a ``socket.socketpair()`` (lanes ``mp:N``);
- :class:`repro.engine.remote.RemoteBackend` dials ``repro-worker``
  addresses (lanes ``host:port``).

A forked child closes the copies of the pool's driver ends it
inherits, so a driver that dies — even by SIGKILL — closes its
workers' sockets and they exit on the EOF.  Frames are pickle: local
workers trust the driver exactly as remote ones do (see
:mod:`repro.engine.worker`).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import selectors
import signal
import socket
import time

from ..telemetry import get as active_telemetry
from .cache import CompilationCache, CompiledCircuit, dem_to_jsonable
from .scheduler import ShardOutcome, ShardTask
from .worker import (
    _MAX_FRAME,
    PROTOCOL_VERSION,
    _encode_frame,
    _parse_frames,
    _recv_frame,
    _serve_connection,
)

logger = logging.getLogger(__name__)


class NoLiveWorkersError(RuntimeError):
    """Every worker of a pool backend is dead.

    Raised instead of hanging when a sweep still has shards to run but
    the pool has no survivor to run them on — the caller sees a clear
    failure within one poll interval, never a silent stall.
    """


class _WorkerDied(Exception):
    """Internal: a send hit a dead worker (already disowned); the
    submit loop retries on a survivor."""


class _Connection:
    """Driver-side state of one worker link."""

    __slots__ = (
        "label", "sock", "addr", "buffer", "alive", "outbox",
        "outbox_since", "interest",
    )

    def __init__(self, label: str, sock: socket.socket | None,
                 addr: tuple[str, int] | None = None):
        self.label = label  # lane name: "mp:N" or "host:port"
        self.sock = sock
        self.addr = addr  # dialled address (remote workers only)
        self.buffer = bytearray()
        self.alive = True
        # Frames queued behind a full socket buffer, flushed by the
        # event loop as the socket turns writable; ``outbox_since``
        # timestamps the last flush progress so a wedged worker
        # surfaces as dead within send_timeout.
        self.outbox = bytearray()
        self.outbox_since: float | None = None
        self.interest = 0  # current selector event mask


class WorkerPoolBackend:
    """The driver side of every worker pool.

    Dispatches the messages of
    :func:`~repro.engine.worker.handle_worker_message` — ``prime`` (at
    most once per (worker, circuit): both DEM payloads), ``config``
    (only when telemetry is on), tiny payload-free ``shard`` tuples,
    ``stop`` — and reads their fixed-shape replies.  Workers build
    their own decoders, MWPM's all-pairs search included, so the
    driver computes no decoder artefact for a pool sweep.  It owns the
    bookkeeping: priming state, per-worker load, the seq -> worker
    dispatch map, abandoned-sweep epochs, and **crash recovery** — a
    worker whose socket breaks is disowned, and its in-flight shards
    join a lost list that the scheduler reaps via ``take_lost()`` and
    resubmits to survivors with their original seeds.

    The driver is a single selector event loop: sends are queued per
    connection and flushed as sockets turn writable, reads are
    multiplexed in one ``select``, so dispatch latency is independent
    of pool size and one slow worker's full socket buffer never blocks
    the others.

    Subclasses make the connections: ``_open_connections`` returns the
    pool's handshaken :class:`_Connection` list (see
    :meth:`_handshake`).
    """

    name = "pool"
    # Tasks in flight per worker: enough to keep every worker busy
    # without hoarding shards an adaptive job may never need.
    queue_depth = 2
    # Seconds to wait for a worker's hello.
    connect_timeout = 10.0
    # A worker whose outbox makes no progress this long is dead.
    send_timeout = 60.0

    def __init__(self, size: int):
        self._size = size  # the pool's size before it starts
        self._selector: selectors.BaseSelector | None = None
        self._conns: list[_Connection] = []
        # Wire-level metrics (lifetime totals, surfaced via
        # pool_health): frame bytes each way and driver-side pickle
        # serialisation time.
        self._bytes_out = 0
        self._bytes_in = 0
        self._serialize_s = 0.0
        self._init_pool()

    def _init_pool(self) -> None:
        self._load: list[int] = []
        self._primed: set[tuple[int, str]] = set()
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
        # take_lost() reap by the scheduler.  A disowned seq can never
        # be answered: its worker's socket is closed before anything
        # more is read from it.
        self._lost: list[int] = []
        # Bumped by abandon_pending(): results echo the epoch they were
        # submitted under, so shards of an aborted sweep can never be
        # attributed to a later sweep sharing this backend.
        self._epoch = 0

    # connections -------------------------------------------------------
    def _open_connections(self) -> list[_Connection]:
        raise NotImplementedError

    def _handshake(self, sock: socket.socket, label: str,
                   addr: tuple[str, int] | None = None) -> _Connection:
        """Read a fresh worker's hello and adopt its socket as a
        non-blocking connection; refuse anything that is not a worker
        speaking this driver's protocol."""
        sock.settimeout(self.connect_timeout)
        hello = _recv_frame(sock)
        if not (isinstance(hello, tuple) and hello[:1] == ("hello",)):
            sock.close()
            raise ConnectionError(
                f"worker at {label} did not say hello (got {hello!r}) — "
                "is it a repro-worker?"
            )
        version = hello[1] if len(hello) > 1 else None
        if version != PROTOCOL_VERSION:
            sock.close()
            raise ConnectionError(
                f"worker at {label} speaks protocol {version!r} but this "
                f"driver speaks protocol {PROTOCOL_VERSION} — run the same "
                "repro version on driver and workers"
            )
        sock.setblocking(False)
        return _Connection(label, sock, addr)

    def _ensure_workers(self) -> None:
        if self._conns:
            return
        conns = self._open_connections()
        self._selector = selectors.DefaultSelector()
        for conn in conns:
            self._adopt(conn)

    def _adopt(self, conn: _Connection) -> int:
        """Append a fresh connection as a new worker index (indices are
        never reused — a rejoining address gets a new identity, so the
        bookkeeping of its previous life can never leak onto it)."""
        worker = len(self._conns)
        self._conns.append(conn)
        self._load.append(0)
        self._update_interest(worker)
        return worker

    def _live_workers(self) -> list[int]:
        return [w for w, conn in enumerate(self._conns) if conn.alive]

    def _worker_label(self, worker: int) -> str:
        """Stable human-readable worker identity for logs, traces and
        pool health (``host:port`` for remote, ``mp:N`` for local)."""
        if worker < len(self._conns):
            return self._conns[worker].label
        return f"{self.name}:{worker}"

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Tasks the backend wants in flight: ``queue_depth`` per live
        worker (before the pool starts, per worker it will start
        with).  Shrinks as workers die."""
        live = len(self._live_workers()) if self._conns else self._size
        return max(1, live) * self.queue_depth

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
                self._dispatch_shard(worker, task, compiled, live)
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

    def _dispatch_shard(self, worker, task, compiled, live) -> None:
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
            self._send(
                worker,
                ("prime", task.circuit_key, dem_data, sdem_data, self._epoch),
            )
            self._primed.add(pair)
            if all((w, task.circuit_key) in self._primed for w in live):
                # Every live worker holds this circuit now; the
                # serialized DEM can never be sent again, so stop
                # retaining it.
                self._dem_json.pop(task.circuit_key, None)
        self._send(
            worker,
            ("shard", task.seq, task.circuit_key, task.decoder, task.shots,
             task.seed, self._epoch, task.offset, task.parent_shots),
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

    # the wire ----------------------------------------------------------
    def _send(self, worker: int, message: tuple) -> None:
        """Single dispatch point for worker messages (tests hook this
        to audit priming traffic)."""
        conn = self._conns[worker]
        if not conn.alive:
            raise _WorkerDied(worker)
        t0 = time.perf_counter()
        frame = _encode_frame(message)
        self._serialize_s += time.perf_counter() - t0
        # Queue-and-flush, never block: whatever the socket buffer
        # refuses right now rides in the outbox until the event loop
        # sees the socket writable.  A worker that stops draining its
        # socket surfaces as dead once its outbox stalls for
        # ``send_timeout`` — crash recovery can only fire on an error.
        conn.outbox += frame
        self._bytes_out += len(frame)
        if not self._flush(worker):
            raise _WorkerDied(worker)

    def _flush(self, worker: int) -> bool:
        """Push a connection's outbox as far as the socket allows.
        Returns False when the flush killed the worker."""
        conn = self._conns[worker]
        if not conn.alive:
            return False
        now = time.monotonic()
        while conn.outbox:
            try:
                sent = conn.sock.send(memoryview(conn.outbox))
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._worker_died(worker)
                return False
            if sent == 0:
                break
            del conn.outbox[:sent]
            conn.outbox_since = now  # progress resets the stall clock
        if not conn.outbox:
            conn.outbox_since = None
        elif conn.outbox_since is None:
            conn.outbox_since = now
        elif now - conn.outbox_since > self.send_timeout:
            logger.warning(
                "worker %s stopped draining its socket for %.0fs with %d "
                "byte(s) queued; declaring it dead",
                conn.label, self.send_timeout, len(conn.outbox),
            )
            self._worker_died(worker)
            return False
        self._update_interest(worker)
        return True

    def _update_interest(self, worker: int) -> None:
        """Sync one connection's selector registration with its state
        (read always; write only while its outbox holds queued frames)."""
        conn = self._conns[worker]
        if self._selector is None or not conn.alive:
            return
        try:
            if conn.sock.fileno() < 0:
                return
            events = selectors.EVENT_READ
            if conn.outbox:
                events |= selectors.EVENT_WRITE
            if conn.interest == events:
                return
            if conn.interest:
                self._selector.modify(conn.sock, events, worker)
            else:
                self._selector.register(conn.sock, events, worker)
            conn.interest = events
        except (KeyError, ValueError, OSError):
            pass  # a raced-away descriptor is reaped on the next drain

    # crash recovery ----------------------------------------------------
    def _worker_died(self, worker: int) -> None:
        """Close a broken connection, then disown the worker.  Nothing
        is read from a closed socket, so no reply to a disowned shard
        can ever arrive."""
        conn = self._conns[worker]
        if not conn.alive:
            return
        conn.alive = False
        if self._selector is not None:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass  # never registered, or its fd is already gone
        conn.interest = 0
        conn.outbox = bytearray()
        try:
            conn.sock.close()
        except OSError:
            pass
        self._forget_worker(worker)

    def _forget_worker(self, worker: int) -> None:
        """Disown a dead worker: its in-flight shards join the lost
        list (for scheduler resubmission) and its priming state is
        dropped so nothing is ever routed to it again."""
        lost = [
            seq for seq, entry in self._dispatch.items() if entry[0] == worker
        ]
        for seq in lost:
            del self._dispatch[seq]
        self._lost.extend(lost)
        self._crashes += 1
        self._resubmitted += len(lost)
        logger.warning(
            "worker %s died with %d shard(s) in flight%s; %d live "
            "worker(s) remain",
            self._worker_label(worker), len(lost),
            f" (lost shard seqs: {lost})" if lost else "",
            len(self._live_workers()),
        )
        if worker < len(self._load):
            self._load[worker] = 0
        self._configured.discard(worker)
        self._primed = {pair for pair in self._primed if pair[0] != worker}

    def take_lost(self) -> list[int]:
        """Drain the seqs of shards lost to dead workers (scheduler
        crash-recovery protocol)."""
        lost, self._lost = self._lost, []
        return lost

    # results -----------------------------------------------------------
    def _drain(self, timeout: float) -> list[ShardOutcome]:
        """One event-loop turn: flush writable outboxes, read whatever
        the live workers sent within ``timeout``."""
        outcomes: list[ShardOutcome] = []
        # A socket can become invalid under us (closed by a signal
        # handler, torn down by a test's partition simulation): treat
        # that exactly like a death noticed via EOF.
        for worker, conn in enumerate(self._conns):
            if conn.alive and conn.sock.fileno() < 0:
                self._worker_died(worker)
        if self._selector is None or not any(c.alive for c in self._conns):
            return outcomes
        try:
            events = self._selector.select(timeout)
        except (OSError, ValueError):
            # A descriptor went bad between the fileno() sweep and the
            # select: reap it on the next pass.
            return outcomes
        for key, mask in events:
            worker = key.data
            conn = self._conns[worker]
            if not conn.alive:
                continue
            if mask & selectors.EVENT_WRITE and not self._flush(worker):
                continue
            if not mask & selectors.EVENT_READ:
                continue
            try:
                chunk = conn.sock.recv(1 << 20)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError:
                chunk = b""
            if not chunk:
                # EOF / reset: the worker is gone; disown its shards.
                self._worker_died(worker)
                continue
            self._bytes_in += len(chunk)
            conn.buffer.extend(chunk)
            messages, corrupt = _parse_frames(conn.buffer)
            for message in messages:
                outcome = self._handle(message)
                if outcome is not None:
                    outcomes.append(outcome)
            if corrupt:
                # Framing is lost for good: nothing after this header
                # can be parsed, so the worker's in-flight shards would
                # never return.  Treat it exactly like a dead socket.
                logger.warning(
                    "worker %s sent a frame header over the %d-byte "
                    "limit; declaring it dead", conn.label, _MAX_FRAME,
                )
                self._worker_died(worker)
        # Age out wedged outboxes even when their sockets never turn
        # writable (the peer advertises no window at all).
        now = time.monotonic()
        for worker, conn in enumerate(self._conns):
            if (conn.alive and conn.outbox and conn.outbox_since is not None
                    and now - conn.outbox_since > self.send_timeout):
                self._flush(worker)  # last chance; kills on stall
        return outcomes

    def _handle(self, message) -> ShardOutcome | None:
        kind, seq, value, elapsed_s, epoch, memo, phases = message
        # A worker left enabled by an earlier driver must not leak
        # phases into a telemetry-off run, so gate on our own setting.
        if not active_telemetry().enabled:
            phases = None
        if epoch != self._epoch:
            return None  # shard of an abandoned sweep: silently drop
        dispatched = self._dispatch.pop(seq, None)
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
        # worker's other shards plus wire/serialize time.
        stats["overhead_s"] += max(0.0, (now - t_sent) - busy_s)
        stats["last_heard"] = now

    def poll(self) -> list[ShardOutcome]:
        if not self._conns:
            return []
        return self._drain(0.0)

    def wait(self, poll_interval: float = 0.2) -> list[ShardOutcome]:
        """Wait up to one ``poll_interval`` for finished shards.

        May return an empty list: the scheduler uses each quiet beat
        to reap lost shards (``take_lost``), steal straggler tails,
        and let an elastic pool's rescan admit joiners.  Raises
        :class:`NoLiveWorkersError` once nobody is left to wait for —
        never hangs on a dead pool.
        """
        outcomes = self._drain(poll_interval)
        if outcomes or self._lost:
            return outcomes
        if not self._live_workers():
            raise NoLiveWorkersError(
                f"all {len(self._conns)} {self.name} worker(s) died "
                f"with {len(self._dispatch)} shard(s) in flight"
            )
        return []

    def pool_health(self) -> dict:
        """Driver-side pool snapshot: per-worker utilisation (shards
        done, on-worker busy seconds, queue/wire overhead, in-flight
        count, heartbeat age), pool-wide crash/resubmit counts and
        wire totals."""
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
        return {
            "workers": workers,
            "crashes": self._crashes,
            "resubmitted_shards": self._resubmitted,
            "wire": {
                "bytes_out": self._bytes_out,
                "bytes_in": self._bytes_in,
                "serialize_s": self._serialize_s,
            },
        }

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

    def begin_session(self) -> None:
        """Fence off a new sweep's results from an older sweep's.

        Called by the scheduler when it attaches to this backend.  Task
        sequence numbers restart at zero per scheduler, so without a
        fresh epoch a reply to an abandoned shard of a previous sweep
        on a shared backend could be credited to this sweep's
        same-numbered shard.  Bumping the epoch makes every stale
        message identifiable and droppable.
        """
        self.abandon_pending()

    # shutdown ----------------------------------------------------------
    def close(self) -> None:
        """Graceful shutdown: tell every live worker to stop, disconnect."""
        for worker, conn in enumerate(self._conns):
            if not conn.alive:
                continue
            try:
                self._send(worker, ("stop",))
            except _WorkerDied:
                continue
        self._teardown(hard=False)

    def terminate(self) -> None:
        """Hard shutdown: drop the connections (interrupt path).
        Workers notice the EOF and abandon the session."""
        self._teardown(hard=True)

    def _teardown(self, hard: bool) -> None:
        for conn in self._conns:
            if conn.alive:
                try:
                    conn.sock.close()
                except OSError:
                    pass
        if self._selector is not None:
            try:
                self._selector.close()
            except OSError:
                pass
            self._selector = None
        self._conns = []
        self._init_pool()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.close()
        else:
            self.terminate()


# ----------------------------------------------------------------------
# The local pool
# ----------------------------------------------------------------------
def _run_local_worker(sock: socket.socket, inherited: list) -> None:
    """A local worker's whole life: serve the driver on ``sock`` until
    it says stop or hangs up.

    ``inherited`` holds the driver-side sockets a forked child copied
    from its parent; closing them leaves the driver the only holder of
    its ends, so the driver's death reaches every worker as EOF.
    Ctrl-C is the driver's business: a SIGINT delivered to the whole
    foreground group must not kill workers mid-shard.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    with sock:
        try:
            _serve_connection(sock)
        except (OSError, pickle.UnpicklingError, EOFError):
            pass  # the driver vanished mid-frame


class MultiprocessBackend(WorkerPoolBackend):
    """Fans shot shards out over ``max_workers`` local worker processes.

    Each worker is a child process serving one end of a
    ``socket.socketpair()``; the driver holds the other end as an
    ordinary pool connection labelled ``mp:N``.  Children are forked
    where the platform can (spawned elsewhere) when the first shard is
    submitted, and reaped by ``close()`` / ``terminate()``.
    ``max_workers`` of ``None`` or ``0`` means one per CPU core.
    """

    name = "multiprocess"

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 0:
            raise ValueError(
                f"max_workers must be >= 0 (0 or None = one per CPU "
                f"core), not {max_workers}"
            )
        self.max_workers = max_workers or os.cpu_count() or 2
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._procs: list = []  # one handle per child, in worker order
        super().__init__(self.max_workers)

    def _open_connections(self) -> list[_Connection]:
        forking = self._ctx.get_start_method() == "fork"
        driver_ends: list[socket.socket] = []
        try:
            for _ in range(self.max_workers):
                driver_end, worker_end = socket.socketpair()
                driver_ends.append(driver_end)
                proc = self._ctx.Process(
                    target=_run_local_worker,
                    args=(worker_end, list(driver_ends) if forking else []),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
                worker_end.close()
            return [
                self._handshake(sock, f"mp:{worker}")
                for worker, sock in enumerate(driver_ends)
            ]
        except BaseException:
            for sock in driver_ends:
                sock.close()
            self._reap(hard=True)
            raise

    def _teardown(self, hard: bool) -> None:
        super()._teardown(hard)
        self._reap(hard)

    def _reap(self, hard: bool) -> None:
        """Wait for every child to exit — at once on the hard path —
        so none is left running or as a zombie."""
        for proc in self._procs:
            if not hard:
                proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
            proc.join()
        self._procs = []
