"""Remote workers: ``repro-worker`` and the backend that dials it.

``RemoteBackend`` is the engine's worker pool
(:class:`~repro.engine.pool.WorkerPoolBackend`) over TCP connections
to ``repro-worker`` processes.  A remote worker is the same worker as
a local :class:`~repro.engine.pool.MultiprocessBackend` one — the same
:func:`~repro.engine.worker._serve_connection` loop on one socket —
and the driver runs the same event loop over both; only the making
of a connection differs (dial an address, or fork on a socket pair).

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
:class:`~repro.engine.pool.NoLiveWorkersError` instead of hanging.

Trust model: frames are **pickle** — the worker executes what the
driver sends and trusts it completely (and vice versa), exactly as a
local pool worker does.  Run workers only on hosts/networks you
control.
"""

from __future__ import annotations

import argparse
import logging
import os
import pickle
import signal
import socket
import sys
import time
import traceback

from .pool import WorkerPoolBackend, _Connection
from .worker import _serve_connection

logger = logging.getLogger(__name__)

_MAX_PORT = 65535
# How often a forked worker idle in ``accept`` checks that its launcher
# is still alive (a worker must never outlive its launcher).
_ORPHAN_CHECK_S = 0.25


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
class RemoteBackend(WorkerPoolBackend):
    """Streams shot shards to ``repro-worker`` processes over TCP.

    Keeps every pool contract (deterministic shard seeds, so
    distributed failure counts match serial bit for bit;
    once-per-(worker, circuit) priming; epoch-tagged abandonment;
    crash recovery on a broken socket) and adds only the dialling.

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
        connect_timeout: float = 10.0,
        elastic: bool = False,
        rescan_interval: float = 2.0,
    ):
        self.addrs = parse_addrs(addrs)
        self.connect_timeout = connect_timeout
        self.elastic = bool(elastic)
        self.rescan_interval = rescan_interval
        self._last_rescan = 0.0
        super().__init__(len(self.addrs))

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
        return self._handshake(sock, f"{addr[0]}:{addr[1]}", addr)

    def _open_connections(self) -> list[_Connection]:
        conns: list[_Connection] = []
        unreachable: list[ConnectionError] = []
        for addr in self.addrs:
            try:
                conns.append(self._connect(addr))
            except ConnectionError as exc:
                if not self.elastic:
                    for conn in conns:
                        conn.sock.close()
                    raise
                unreachable.append(exc)
        if not conns:
            raise unreachable[-1]  # every address failed; elastic needs one
        for exc in unreachable:
            logger.warning("elastic pool: %s; will keep rescanning", exc)
        return conns

    def _drain(self, timeout: float):
        self._rescan()
        return super()._drain(timeout)

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

if __name__ == "__main__":
    raise SystemExit(main())
