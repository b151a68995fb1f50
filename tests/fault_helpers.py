"""Shared fault-injection fixtures for the engine test suites.

Used by ``test_fault_tolerance.py`` (the chaos harness) and
``test_engine.py``:

- :class:`FlakyBackend` — an in-process backend with virtual workers
  and deterministic fault injection (drop worker K after N completed
  shards, fail shard with seq N), for scheduler crash-recovery tests
  that need no subprocesses;
- :class:`CountingSerialBackend` — records every submitted
  ``(job_key, shard_index)``, for asserting checkpointed shards are
  not re-executed on resume;
- :func:`spawn_worker` / :func:`spawn_workers` / :func:`spawn_launcher`
  — launch real ``repro-worker`` subprocesses on free ports (a
  ``--slots N`` launcher forks N workers, one address each);
- :class:`FakeWorker` — a scripted in-process stand-in that sends
  exact bytes (a wrong hello, a corrupt frame header);
- :class:`StubPoolBackend` — an in-process worker pool (real pool
  driver, real worker message handler, workers answered inline);
- :func:`run_sweep_driver` / :func:`wait_for_shard_lines` — drive a
  sweep in a subprocess and watch its result store, so tests can
  SIGKILL the driver between shards; :func:`process_running` tells
  whether a process it started is still alive;
- :func:`run_with_timeout` — a watchdog for "raises, never hangs"
  regressions.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
import weakref

from repro.engine import CompilationCache, NoLiveWorkersError, SerialBackend
from repro.engine.pool import WorkerPoolBackend, _Connection
from repro.engine.scheduler import ShardOutcome
from repro.engine.worker import (
    Shard,
    ShardExecutor,
    _encode_frame,
    handle_worker_message,
    sample_shard,
)

SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src")
)


class FlakyBackend:
    """In-process pool backend with deterministic fault injection.

    Executes shards exactly like :class:`SerialBackend`, but spreads
    them over ``workers`` virtual workers and supports two injected
    faults:

    - ``drop_worker=k, drop_after=n`` — once ``n`` shards have
      completed (anywhere), worker ``k`` "dies": its queued shards are
      disowned into the lost list (``take_lost``), and nothing is ever
      routed to it again.  ``drop_worker="all"`` kills every worker.
    - ``fail_seq=n`` — the shard with scheduler sequence number ``n``
      raises instead of sampling (a genuine shard *error*, which must
      fail the sweep — unlike worker death, which must not).

    Execution order is deterministic (FIFO by submission), so
    recovered sweeps can be compared bit-for-bit against serial runs.
    """

    name = "flaky"

    def __init__(
        self,
        workers: int = 2,
        queue_depth: int = 2,
        drop_worker=None,
        drop_after: int = 0,
        fail_seq: int | None = None,
    ):
        self.workers = workers
        self.queue_depth = queue_depth
        self.drop_worker = drop_worker
        self.drop_after = drop_after
        self.fail_seq = fail_seq
        self._queues: list[list] = [[] for _ in range(workers)]
        self._dead: set[int] = set()
        self._lost: list[int] = []
        self._completed = 0
        self.executed: list[tuple[str, int]] = []  # (job_key, shard_index)

    # ------------------------------------------------------------------
    def _live(self) -> list[int]:
        return [w for w in range(self.workers) if w not in self._dead]

    @property
    def capacity(self) -> int:
        return max(1, len(self._live())) * self.queue_depth

    def submit(self, task, compiled, cache: CompilationCache) -> None:
        live = self._live()
        if not live:
            raise NoLiveWorkersError(
                "flaky backend: every virtual worker is dead"
            )
        worker = min(live, key=lambda w: len(self._queues[w]))
        self._queues[worker].append((task, compiled, cache))

    def kill_worker(self, worker) -> None:
        """Drop a virtual worker; its queued shards become lost."""
        victims = (
            list(self._live()) if worker == "all" else [worker]
        )
        for victim in victims:
            if victim in self._dead:
                continue
            self._dead.add(victim)
            for task, _compiled, _cache in self._queues[victim]:
                self._lost.append(task.seq)
            self._queues[victim] = []

    def _maybe_drop(self) -> None:
        if self.drop_worker is not None and self._completed >= self.drop_after:
            drop, self.drop_worker = self.drop_worker, None
            self.kill_worker(drop)

    def take_lost(self) -> list[int]:
        lost, self._lost = self._lost, []
        return lost

    def poll(self) -> list[ShardOutcome]:
        return []

    def wait(self) -> list[ShardOutcome]:
        self._maybe_drop()
        if self._lost:
            return []  # scheduler reaps and resubmits
        live = [w for w in self._live() if self._queues[w]]
        if not live:
            if not self._live():
                raise NoLiveWorkersError(
                    "flaky backend: every virtual worker is dead"
                )
            raise RuntimeError("flaky backend: wait() with nothing queued")
        # Globally-oldest task first: deterministic FIFO execution.
        worker = min(live, key=lambda w: self._queues[w][0][0].seq)
        task, compiled, cache = self._queues[worker].pop(0)
        if self.fail_seq is not None and task.seq == self.fail_seq:
            raise RuntimeError(f"injected failure for shard seq {task.seq}")
        decoder = cache.decoder(compiled, task.decoder)
        failures, memo, phases = sample_shard(
            decoder,
            Shard(task.shard_index, task.shots, task.seed),
            cache.dem_sampler(compiled),
        )
        self.executed.append((task.job_key, task.shard_index))
        self._completed += 1
        self._maybe_drop()
        return [ShardOutcome(task.seq, task.job_key, task.shots, failures,
                             0.0, *memo, phases=phases)]

    def abandon_pending(self) -> None:
        self._queues = [[] for _ in range(self.workers)]
        self._lost = []

    def close(self) -> None:
        pass

    def terminate(self) -> None:
        pass


class CountingSerialBackend(SerialBackend):
    """Serial backend that records every submitted (job_key, shard_index)."""

    def __init__(self):
        super().__init__()
        self.executed: list[tuple[str, int]] = []

    def submit(self, task, compiled, cache) -> None:
        self.executed.append((task.job_key, task.shard_index))
        super().submit(task, compiled, cache)


class SweepAborted(Exception):
    """Raised by :class:`AbortingSerialBackend` to simulate a crash."""


class AbortingSerialBackend(CountingSerialBackend):
    """Dies (raises :class:`SweepAborted`) after N submitted shards.

    The in-process stand-in for a driver killed mid-sweep: the shards
    submitted before the abort are executed and (with a store)
    checkpointed; everything after is lost.
    """

    def __init__(self, abort_after: int):
        super().__init__()
        self.abort_after = abort_after

    def submit(self, task, compiled, cache) -> None:
        if len(self.executed) >= self.abort_after:
            raise SweepAborted(
                f"injected abort after {self.abort_after} shard(s)"
            )
        super().submit(task, compiled, cache)


# ----------------------------------------------------------------------
# Subprocess helpers (real workers, real drivers, real SIGKILL)
# ----------------------------------------------------------------------
def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def spawn_launcher(slots: int, extra_args: tuple = (),
                   listen: str = "127.0.0.1:0"):
    """Start ``repro-worker --slots <slots>``.

    Returns ``(proc, ["host:port", ...])``: the launcher announces one
    bound address per forked worker on stdout, which is how port 0 is
    resolved.  The launcher leads its own process group, so
    :func:`reap_workers` can reach the forked workers too.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.engine.remote",
         "--listen", listen, "--slots", str(slots), *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=subprocess_env(),
        text=True,
        start_new_session=True,
    )
    prefix = "repro-worker listening on "
    addrs = []
    for _ in range(slots):
        line = proc.stdout.readline().strip()
        if not line.startswith(prefix):
            reap_workers([proc], timeout=0)
            raise RuntimeError(f"worker failed to start: {line!r}")
        addrs.append(line[len(prefix):])
    return proc, addrs


def spawn_worker(extra_args: tuple = (), listen: str = "127.0.0.1:0"):
    """Start one single-slot ``repro-worker``; returns
    ``(proc, "host:port")``.  Elastic-pool tests pass an explicit
    ``listen`` address so a replacement worker can reclaim a dead
    one's roster address."""
    proc, [addr] = spawn_launcher(1, extra_args, listen)
    return proc, addr


class FakeWorker:
    """A scripted stand-in for ``repro-worker`` on a free local port.

    Every session it accepts is sent ``payload`` (raw bytes, exactly
    as given) and then drained until the driver hangs up, so the
    driver sees the scripted bytes and nothing else.  ``sessions``
    counts the connections accepted.
    """

    def __init__(self, payload: bytes):
        self._payload = payload
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.1)
        host, port = self._listener.getsockname()[:2]
        self.addr = f"{host}:{port}"
        self.sessions = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                continue  # accept timeout: re-check the stop flag
            self.sessions += 1
            with conn:
                conn.sendall(self._payload)
                conn.settimeout(0.1)
                while not self._stop.is_set():
                    try:
                        if not conn.recv(1 << 16):
                            break
                    except socket.timeout:
                        continue
                    except OSError:
                        break

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._listener.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _close_sockets(sockets) -> None:
    for sock in sockets:
        sock.close()


class StubPoolBackend(WorkerPoolBackend):
    """In-memory pool: the real `WorkerPoolBackend` driver (bookkeeping
    and event loop) and the real worker message handler, with an
    in-process fake behind each connection — so the config/phases wire
    protocol is exercised without processes.

    Each fake connection is a socket pair whose worker end is answered
    inline: ``_send`` records the message, hands it to
    ``handle_worker_message`` with that worker's executor, and writes
    the reply frame to the worker end, where the driver reads it.
    """

    name = "stub"

    def __init__(self, workers: int = 2):
        super().__init__(workers)
        self._executors = [ShardExecutor() for _ in range(workers)]
        self._worker_ends: list[socket.socket] = []
        self.sent: list[tuple[int, tuple]] = []
        # Tests seldom close a stub: its sockets go when it does.
        self._sockets: list[socket.socket] = []
        weakref.finalize(self, _close_sockets, self._sockets)

    def _open_connections(self):
        conns = []
        for worker in range(self._size):
            driver_end, worker_end = socket.socketpair()
            self._sockets += (driver_end, worker_end)
            driver_end.setblocking(False)
            self._worker_ends.append(worker_end)
            conns.append(_Connection(f"stub:{worker}", driver_end))
        return conns

    def _send(self, worker: int, message: tuple) -> None:
        self.sent.append((worker, message))
        if message[0] == "stop":
            self._worker_ends[worker].close()
            return
        reply = handle_worker_message(self._executors[worker], message)
        if reply is not None:
            self._worker_ends[worker].sendall(_encode_frame(reply))


def spawn_workers(n: int):
    """``n`` workers; returns ``(procs, addrs)``."""
    procs, addrs = [], []
    for _ in range(n):
        proc, addr = spawn_worker()
        procs.append(proc)
        addrs.append(addr)
    return procs, addrs


def reap_workers(procs, timeout: float = 15.0) -> None:
    """Wait for each worker to exit (give up after ``timeout``), then
    SIGKILL whatever is left of its process group — the launcher and
    any worker it forked — so no process outlives the test."""
    for proc in procs:
        if proc.poll() is None:
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass  # the whole group is already gone
        proc.wait()
        proc.stdout.close()


def run_sweep_driver(script: str):
    """Run a sweep-driver script in a subprocess (for SIGKILL tests).

    The script should print ``READY`` once imports are done so the
    caller can time its observations.
    """
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=subprocess_env(),
        text=True,
    )
    assert proc.stdout.readline().strip() == "READY"
    return proc


def process_running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie is not: it has
    exited and waits only for its parent to reap it)."""
    if not os.path.isdir("/proc"):
        try:
            os.kill(pid, 0)
        except OSError:
            return False
        return True
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def count_shard_lines(path: str) -> int:
    """Shard-checkpoint lines currently in a result store file."""
    try:
        with open(path) as fh:
            return sum(1 for line in fh if '"shard"' in line)
    except OSError:
        return 0


def wait_for_shard_lines(path: str, n: int, timeout: float = 60.0) -> bool:
    """Poll ``path`` until it holds >= n shard-checkpoint lines."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if count_shard_lines(path) >= n:
            return True
        time.sleep(0.005)
    return False


def run_with_timeout(fn, seconds: float):
    """Watchdog: run ``fn`` in a thread; fail the test if it hangs.

    Returns ``{"value": ...}`` or ``{"error": exc}``.
    """
    result: dict = {}

    def target():
        try:
            result["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - relayed to the test
            result["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        raise AssertionError(
            f"operation still running after {seconds}s — it should have "
            "raised promptly instead of hanging"
        )
    return result
