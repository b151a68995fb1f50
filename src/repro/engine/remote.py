"""Socket-based distributed execution backend.

``RemoteBackend`` speaks the engine's streaming backend protocol
(``capacity`` / ``submit`` / ``poll`` / ``wait`` / ``take_lost``) over
TCP connections to ``repro-worker`` processes — the same worker
messages as the multiprocessing backend (prime once per (worker,
circuit), tiny shard tuples), serialised as length-prefixed pickle
frames.  The worker side runs the very same
:class:`~repro.engine.runner.ShardExecutor` as a multiprocessing
worker; only the transport differs.

Launch workers anywhere the driver can reach::

    repro-worker --listen 0.0.0.0:7930            # or: python -m repro.engine.remote
    repro-worker --listen 0.0.0.0:7931 --slots 2  # forks workers on 7931, 7932

then point a sweep at every announced address::

    python -m repro.toolflow.cli sweep --distances 3 5 --shots 20000 \
        --backend remote --workers-addr host1:7930,host1:7931,host1:7932

A worker runs one shard at a time.  ``--slots N`` fills a multi-core
host with N of them: the launcher binds N listeners, announces each,
and forks one single-slot worker per listener, so the driver sees N
ordinary workers, one address each.

Fault tolerance: a worker that dies mid-sweep (crash, SIGKILL, network
partition — anything that closes or breaks the socket) is disowned;
the scheduler resubmits its in-flight shards, with their original RNG
seeds, to the surviving workers, so failure counts stay bit-identical
to a crash-free run.  When *no* worker survives, the backend raises
:class:`~repro.engine.runner.NoLiveWorkersError` instead of hanging.

Trust model: frames are **pickle** — the worker executes what the
driver sends and trusts it completely (and vice versa).  Run workers
only on hosts/networks you control, exactly like a multiprocessing
pool stretched across machines.
"""

from __future__ import annotations

import argparse
import logging
import os
import pickle
import selectors
import signal
import socket
import struct
import sys
import time
import traceback

from ..telemetry import configure as configure_telemetry
from .runner import (
    NoLiveWorkersError,
    ShardExecutor,
    ShardOutcome,
    WorkerPoolBackend,
    _WorkerDied,
    handle_worker_message,
)

logger = logging.getLogger(__name__)

# The worker opens every session with ``("hello", PROTOCOL_VERSION)``;
# the driver then sends the messages of
# :func:`~repro.engine.runner.handle_worker_message` (prime, dmat,
# config, shard, stop) and reads its fixed-shape replies.  Driver and
# worker ship in one package, so there is exactly one message format:
# a driver refuses a worker whose hello names any other version
# (bump the number whenever a message shape changes).
PROTOCOL_VERSION = 6
_HEADER = struct.Struct(">I")
# A frame is bounded by the largest prime payload (two DEM JSONs plus
# the all-pairs distance matrices) — far below this, but cap it so a
# corrupt/hostile header cannot trigger a giant allocation.
_MAX_FRAME = 1 << 31
_MAX_PORT = 65535
# How often a forked worker idle in ``accept`` checks that its launcher
# is still alive (a worker must never outlive its launcher).
_ORPHAN_CHECK_S = 0.25


def _encode_frame(message) -> bytes:
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload)) + payload


def parse_addr(addr: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``; the port must be 0-65535."""
    host, sep, port = addr.rpartition(":")
    if not sep or not host or not port.isdigit() or int(port) > _MAX_PORT:
        raise ValueError(
            f"worker address {addr!r} is not host:port "
            f"(port 0-{_MAX_PORT})"
        )
    return host, int(port)


def parse_addrs(addrs) -> list[tuple[str, int]]:
    """A comma-separated address string (or iterable) -> address list."""
    if isinstance(addrs, str):
        addrs = [a for a in addrs.split(",") if a.strip()]
    parsed = []
    for addr in addrs:
        parsed.append(addr if isinstance(addr, tuple) else parse_addr(addr.strip()))
    if not parsed:
        raise ValueError("need at least one worker address")
    return parsed


# ----------------------------------------------------------------------
# Worker side (repro-worker)
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes, or ``None`` on a clean/broken EOF."""
    chunks = []
    while n:
        try:
            chunk = sock.recv(min(n, 1 << 20))
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket):
    """Blocking read of one frame; ``None`` on EOF/reset."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > _MAX_FRAME:
        return None
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    return pickle.loads(payload)


def _serve_connection(conn: socket.socket,
                      chaos_shard_delay: float = 0.0) -> None:
    """One driver session: hello, then prime/dmat/shard until stop/EOF.

    Executor state is per-connection — a new driver always reprimes,
    so stale circuits can never leak between sweeps.
    ``chaos_shard_delay`` sleeps that long before each shard — a fault-
    injection knob for forcing straggler shards in tests/benchmarks.
    """
    conn.sendall(_encode_frame(("hello", PROTOCOL_VERSION)))
    # Telemetry is per-driver state: a serve-forever worker must not
    # carry the previous driver's setting into the next session.
    configure_telemetry(enabled=False)
    executor = ShardExecutor()
    while True:
        message = _recv_frame(conn)
        if message is None or message[0] == "stop":
            return
        if chaos_shard_delay and message[0] == "shard":
            time.sleep(chaos_shard_delay)
        reply = handle_worker_message(executor, message)
        if reply is not None:
            conn.sendall(_encode_frame(reply))


def _accept_loop(listener: socket.socket, *, serve_forever: bool,
                 chaos_shard_delay: float, launcher: int | None = None,
                 ) -> None:
    """Serve drivers on one listener, one session at a time.

    A forked worker passes its ``launcher`` pid: while idle it polls
    its parent pid and returns once the launcher is gone, so even a
    SIGKILLed launcher leaves no worker behind (a worker orphaned
    mid-session finishes that driver's session first).
    """
    if launcher is not None:
        listener.settimeout(_ORPHAN_CHECK_S)
    while True:
        try:
            conn, _peer = listener.accept()
        except TimeoutError:
            if os.getppid() != launcher:
                return
            continue
        try:
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                _serve_connection(conn, chaos_shard_delay=chaos_shard_delay)
        except (OSError, pickle.UnpicklingError, EOFError):
            pass  # driver vanished mid-frame: drop the session
        if not serve_forever:
            return


def bind_listeners(host: str, port: int, count: int) -> list[socket.socket]:
    """Bind ``count`` listeners on ``port, port+1, ...`` — or each on a
    free port when ``port`` is 0.  All or nothing: a failed bind closes
    the listeners bound so far and re-raises."""
    listeners: list[socket.socket] = []
    try:
        for i in range(count):
            listeners.append(
                socket.create_server((host, port + i if port else 0))
            )
    except OSError:
        for listener in listeners:
            listener.close()
        raise
    return listeners


def serve(listeners: list[socket.socket], *, serve_forever: bool = False,
          chaos_shard_delay: float = 0.0) -> None:
    """Run one shard worker per bound listener.

    Announces ``repro-worker listening on host:port`` per listener on
    stdout, so launchers using port 0 can discover the bound ports.
    One listener is served in this process; several are served by one
    forked child each, while this process only waits for them (and
    terminates any still running if it is interrupted).  Call it from
    a process that runs no threads: forking one that does is unsafe.
    By default a worker exits when its driver disconnects — the right
    lifetime for job scripts and CI; ``serve_forever`` keeps it
    accepting one driver after another (a long-lived pool node).
    """
    for listener in listeners:
        bound_host, bound_port = listener.getsockname()[:2]
        print(f"repro-worker listening on {bound_host}:{bound_port}",
              flush=True)
    serve_kw = dict(serve_forever=serve_forever,
                    chaos_shard_delay=chaos_shard_delay)
    if len(listeners) == 1:
        with listeners[0]:
            _accept_loop(listeners[0], **serve_kw)
        return
    launcher = os.getpid()
    children = []
    try:
        for mine in listeners:
            pid = os.fork()
            if pid == 0:
                _run_child(mine, listeners, launcher, serve_kw)
            children.append(pid)
        for listener in listeners:
            listener.close()
        while children:
            os.waitpid(children[0], 0)
            children.pop(0)
    finally:
        for pid in children:
            try:
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
            except OSError:
                pass  # already gone


def _run_child(mine, listeners, launcher: int, serve_kw: dict) -> None:
    """A forked worker's whole life: serve ``mine``, then ``_exit`` —
    never unwind into the launcher's stack."""
    code = 0
    try:
        for listener in listeners:
            if listener is not mine:
                listener.close()
        with mine:
            _accept_loop(mine, launcher=launcher, **serve_kw)
    except KeyboardInterrupt:
        code = 130
    except BaseException:
        traceback.print_exc()
        code = 1
    finally:
        os._exit(code)


def main(argv=None) -> int:
    """``repro-worker`` console entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Shard worker for the sweep engine's remote backend "
                    "(see repro.engine.remote).",
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="address to listen on (port 0 = pick a free port and "
             "announce it on stdout; default %(default)s)",
    )
    parser.add_argument(
        "--serve-forever", action="store_true",
        help="keep accepting new drivers after one disconnects "
             "(default: exit with the first driver)",
    )
    parser.add_argument(
        "--slots", default="1", metavar="N|auto",
        help="fork N single-slot workers on ports PORT..PORT+N-1 (or N "
             "free ports with port 0), each announced on its own line "
             "('auto' = one per CPU core; default %(default)s)",
    )
    parser.add_argument(
        "--chaos-shard-delay", type=float, default=0.0, metavar="SECONDS",
        help="sleep this long before every shard (fault-injection knob "
             "for forcing straggler shards; default off)",
    )
    args = parser.parse_args(argv)
    try:
        host, port = parse_addr(args.listen)
    except ValueError as exc:
        parser.error(f"--listen: {exc}")
    if args.slots == "auto":
        slots = os.cpu_count() or 1
    elif args.slots.isdigit():
        slots = int(args.slots)
    else:
        slots = 0
    if slots < 1:
        parser.error(f"--slots must be a positive integer or 'auto', "
                     f"not {args.slots!r}")
    if port and port + slots - 1 > _MAX_PORT:
        parser.error(f"--slots {slots} from port {port} runs past port "
                     f"{_MAX_PORT}")
    if slots > 1 and not hasattr(os, "fork"):
        parser.error("--slots above 1 needs os.fork, which this platform "
                     "lacks")
    try:
        listeners = bind_listeners(host, port, slots)
    except OSError as exc:
        print(f"repro-worker: cannot listen on {args.listen}: {exc}",
              file=sys.stderr)
        return 1
    try:
        serve(
            listeners, serve_forever=args.serve_forever,
            chaos_shard_delay=args.chaos_shard_delay,
        )
    except KeyboardInterrupt:
        return 130
    return 0


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
class _Connection:
    """Driver-side state of one worker link."""

    __slots__ = (
        "addr", "sock", "buffer", "alive", "outbox", "outbox_since",
        "interest",
    )

    def __init__(self, addr: tuple[str, int], sock: socket.socket):
        self.addr = addr
        self.sock = sock
        self.buffer = bytearray()
        self.alive = True
        # Frames queued behind a full socket buffer, flushed by the
        # event loop as the socket turns writable; ``outbox_since``
        # timestamps the last flush progress so a wedged worker
        # surfaces as dead within send_timeout.
        self.outbox = bytearray()
        self.outbox_since: float | None = None
        self.interest = 0  # current selector event mask

    @property
    def label(self) -> str:
        return f"{self.addr[0]}:{self.addr[1]}"


class RemoteBackend(WorkerPoolBackend):
    """Streams shot shards to ``repro-worker`` processes over TCP.

    Accepts the same tasks as the in-process backends and keeps the
    engine's contracts: deterministic shard seeds (so distributed
    failure counts match serial bit for bit), once-per-(worker,
    circuit) priming, epoch-tagged abandonment for shared backends,
    and crash recovery — a broken socket disowns that worker's
    in-flight shards for the scheduler to resubmit to survivors.

    The driver is a single selector-based event loop: sends are queued
    per connection and flushed as sockets turn writable, reads are
    multiplexed in one ``select``, so dispatch latency is independent
    of pool size and one slow worker's full socket buffer never blocks
    the others.

    ``elastic=True`` turns the address list into a *membership*
    roster: unreachable workers at start are tolerated (any one
    suffices) and the driver periodically rescans the list mid-sweep,
    so ``--serve-forever`` nodes can join a running sweep — a joiner
    is primed exactly like a first-class member.  The default (strict)
    mode keeps the original contract: every listed worker must be
    reachable at start.  Either way a worker speaking another protocol
    version is refused: strict mode raises, elastic mode treats it as
    unreachable.
    """

    name = "remote"

    def __init__(
        self,
        addrs,
        *,
        queue_depth: int = 2,
        connect_timeout: float = 10.0,
        send_timeout: float = 60.0,
        elastic: bool = False,
        rescan_interval: float = 2.0,
    ):
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        self.addrs = parse_addrs(addrs)
        self.queue_depth = queue_depth
        self.connect_timeout = connect_timeout
        self.send_timeout = send_timeout
        self.elastic = bool(elastic)
        self.rescan_interval = rescan_interval
        self._last_rescan = 0.0
        self._selector: selectors.BaseSelector | None = None
        self._conns: list[_Connection] = []
        # Wire-level metrics (sweep-lifetime totals, surfaced via
        # pool_health): frame bytes each way and driver-side pickle
        # serialisation time.
        self._bytes_out = 0
        self._bytes_in = 0
        self._serialize_s = 0.0
        self._init_pool()

    # transport hooks ---------------------------------------------------
    def _worker_label(self, worker: int) -> str:
        if worker < len(self._conns):
            return self._conns[worker].label
        return f"remote:{worker}"

    def _transport_stats(self) -> dict:
        return {
            "wire": {
                "bytes_out": self._bytes_out,
                "bytes_in": self._bytes_in,
                "serialize_s": self._serialize_s,
            }
        }

    def _live_worker_count(self) -> int:
        if not self._conns:
            return len(self.addrs)
        return len(self._live_workers())

    def _live_workers(self) -> list[int]:
        return [w for w, conn in enumerate(self._conns) if conn.alive]

    def _connect(self, addr, timeout: float | None = None) -> _Connection:
        """Dial one worker and complete the hello handshake."""
        timeout = self.connect_timeout if timeout is None else timeout
        try:
            sock = socket.create_connection(addr, timeout=timeout)
        except OSError as exc:
            raise ConnectionError(
                f"cannot reach repro-worker at {addr[0]}:{addr[1]}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(addr, sock)
        hello = self._blocking_frame(conn)
        if not (isinstance(hello, tuple) and hello[:1] == ("hello",)):
            sock.close()
            raise ConnectionError(
                f"worker at {addr[0]}:{addr[1]} did not say hello "
                f"(got {hello!r}) — is it a repro-worker?"
            )
        version = hello[1] if len(hello) > 1 else None
        if version != PROTOCOL_VERSION:
            sock.close()
            raise ConnectionError(
                f"worker at {addr[0]}:{addr[1]} speaks protocol "
                f"{version!r} but this driver speaks protocol "
                f"{PROTOCOL_VERSION} — run the same repro version on "
                "driver and workers"
            )
        sock.settimeout(None)
        sock.setblocking(False)
        return conn

    def _adopt(self, conn: _Connection) -> int:
        """Append a fresh connection as a new worker index (indices are
        never reused — a rejoining address gets a new identity, so the
        bookkeeping of its previous life can never leak onto it)."""
        worker = len(self._conns)
        self._conns.append(conn)
        self._load.append(0)
        self._update_interest(worker)
        return worker

    def _ensure_workers(self) -> None:
        if self._conns:
            return
        self._selector = selectors.DefaultSelector()
        unreachable: list[ConnectionError] = []
        for addr in self.addrs:
            try:
                conn = self._connect(addr)
            except ConnectionError as exc:
                if not self.elastic:
                    self._teardown()
                    raise
                unreachable.append(exc)
                continue
            self._adopt(conn)
        if not self._conns:
            self._teardown()
            raise unreachable[-1]  # every address failed; elastic needs one
        for exc in unreachable:
            logger.warning("elastic pool: %s; will keep rescanning", exc)

    def _rescan(self) -> None:
        """Elastic membership: reconnect roster addresses with no live
        connection (throttled to one pass per ``rescan_interval``)."""
        if not self.elastic or not self._conns:
            return
        now = time.monotonic()
        if now - self._last_rescan < self.rescan_interval:
            return
        self._last_rescan = now
        covered = {conn.addr for conn in self._conns if conn.alive}
        for addr in self.addrs:
            if addr in covered:
                continue
            try:
                conn = self._connect(
                    addr, timeout=min(self.connect_timeout, 0.5)
                )
            except ConnectionError:
                continue
            self._adopt(conn)
            logger.info("elastic pool: worker %s joined", conn.label)

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

    def _send(self, worker: int, message: tuple) -> None:
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
                "remote worker %s stopped draining its socket for %.0fs "
                "with %d byte(s) queued; declaring it dead",
                conn.label, self.send_timeout, len(conn.outbox),
            )
            self._worker_died(worker)
            return False
        self._update_interest(worker)
        return True

    # ------------------------------------------------------------------
    def _blocking_frame(self, conn: _Connection):
        """One frame during the (blocking) handshake phase."""
        conn.sock.settimeout(self.connect_timeout)
        return _recv_frame(conn.sock)

    def _worker_died(self, worker: int) -> None:
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
        # _forget_worker logs the lost shard ids; this names the remote
        # endpoint and what's left of the pool.
        logger.warning(
            "remote worker %s disconnected; %d worker(s) remain",
            conn.label, sum(1 for c in self._conns if c.alive),
        )
        self._forget_worker(worker)

    def _drain(self, timeout: float) -> list[ShardOutcome]:
        """One event-loop turn: rescan (elastic), flush writable
        outboxes, read whatever the live workers sent within
        ``timeout``."""
        outcomes: list[ShardOutcome] = []
        self._rescan()
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
            messages, corrupt = self._parse_buffer(conn)
            for message in messages:
                outcome = self._handle(message)
                if outcome is not None:
                    outcomes.append(outcome)
            if corrupt:
                # Framing is lost for good: nothing after this header
                # can be parsed, so the worker's in-flight shards would
                # never return.  Treat it exactly like a dead socket.
                logger.warning(
                    "remote worker %s sent a frame header over the "
                    "%d-byte limit; declaring it dead",
                    conn.label, _MAX_FRAME,
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

    @staticmethod
    def _parse_buffer(conn: _Connection) -> tuple[list, bool]:
        """Complete frames buffered so far, and whether the next header
        is corrupt (longer than ``_MAX_FRAME``)."""
        messages = []
        buffer = conn.buffer
        while len(buffer) >= _HEADER.size:
            (length,) = _HEADER.unpack(buffer[:_HEADER.size])
            if length > _MAX_FRAME:
                return messages, True
            if len(buffer) < _HEADER.size + length:
                break
            payload = bytes(buffer[_HEADER.size:_HEADER.size + length])
            del buffer[:_HEADER.size + length]
            messages.append(pickle.loads(payload))
        return messages, False

    # ------------------------------------------------------------------
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
                f"all {len(self._conns)} remote worker(s) disconnected "
                f"with {len(self._dispatch)} shard(s) in flight"
            )
        return []

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Graceful shutdown: tell every live worker to stop, disconnect."""
        for worker, conn in enumerate(self._conns):
            if not conn.alive:
                continue
            try:
                self._send(worker, ("stop",))
            except _WorkerDied:
                continue
        self._teardown()

    def terminate(self) -> None:
        """Hard shutdown: drop the connections (interrupt path).

        Workers notice the EOF, abandon the session, and — unless
        launched with ``--serve-forever`` — exit.
        """
        self._teardown()

    def _teardown(self) -> None:
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


if __name__ == "__main__":
    raise SystemExit(main())
