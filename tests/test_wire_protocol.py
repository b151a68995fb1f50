"""The one driver <-> worker wire protocol.

Driver and workers ship in one package, so they speak exactly one
message format (``PROTOCOL_VERSION``).  These tests pin its pieces
without subprocesses:

- **framing** — the driver's incremental frame parser keeps partial
  tails and flags a length header over ``_MAX_FRAME`` as corrupt; the
  worker's blocking reader treats such a header as a dead link;
- **hello** — a worker session opens with ``("hello", VERSION)``, and
  the driver's handshake refuses anything that is not a hello;
- **sessions** — prime/shard/stop over a socket pair, with replies of
  the one fixed shape, and telemetry reset per session;
- **handler** — ``config``, prime errors, and the per-process memo
  (never shared across workers);
- **driver** — a synchronous stub pool sends only fixed-shape shard
  tuples and lands on the serial failure counts.
"""

import socket
import threading

import pytest

from fault_helpers import FakeWorker, StubPoolBackend
from repro import telemetry
from repro.engine import CompilationCache, SweepSpec, run_sweep
from repro.engine.cache import dem_to_jsonable
from repro.engine.pool import _Connection
from repro.engine.remote import RemoteBackend, parse_addr
from repro.engine.runner import compile_design_point, plan_shards
from repro.engine.worker import (
    _HEADER,
    _MAX_FRAME,
    PROTOCOL_VERSION,
    ShardExecutor,
    _encode_frame,
    _parse_frames,
    _recv_frame,
    _serve_connection,
    handle_worker_message,
)
from repro.noise.parameters import DEFAULT_NOISE
from repro.telemetry import Telemetry

SHOTS = 256
SHARD = 64


def small_spec(**overrides):
    base = dict(distances=(2,), shots=SHOTS, rounds=2, master_seed=7)
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture
def scoped_registry():
    """Restore the process's active telemetry registry afterwards."""
    previous = telemetry.get()
    yield
    telemetry.set_active(previous)


@pytest.fixture(scope="module")
def point():
    """``(prime message, shard message factory)`` for one design point."""
    spec = small_spec()
    [job] = spec.expand()
    art = compile_design_point(job, DEFAULT_NOISE, need_circuit=True)
    compiled = CompilationCache().compiled(art.circuit, art.text)
    prime = ("prime", "ckt", dem_to_jsonable(compiled.dem),
             dem_to_jsonable(compiled.sampling_dem), 0)
    [shard] = plan_shards(SHARD, SHARD, spec.master_seed, job.key)

    def shard_message(seq):
        return ("shard", seq, "ckt", job.decoder, SHARD,
                shard.seed, 0, 0, None)

    return prime, shard_message


def _connection(data: bytes) -> _Connection:
    conn = _Connection("127.0.0.1:0", None)
    conn.buffer.extend(data)
    return conn


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_parser_returns_whole_frames_and_keeps_the_tail(self):
        third = _encode_frame(("ok", 3))
        conn = _connection(
            _encode_frame(("ok", 1)) + _encode_frame(("ok", 2)) + third[:5]
        )
        messages, corrupt = _parse_frames(conn.buffer)
        assert messages == [("ok", 1), ("ok", 2)]
        assert not corrupt
        assert bytes(conn.buffer) == third[:5]
        conn.buffer.extend(third[5:])
        assert _parse_frames(conn.buffer) == ([("ok", 3)], False)
        assert not conn.buffer

    def test_parser_flags_header_over_limit_after_good_frames(self):
        conn = _connection(
            _encode_frame(("ok", 1)) + _HEADER.pack(_MAX_FRAME + 1)
        )
        messages, corrupt = _parse_frames(conn.buffer)
        assert messages == [("ok", 1)]
        assert corrupt

    def test_parser_waits_on_a_header_at_the_limit(self):
        # Exactly _MAX_FRAME is a legal (if huge) frame: keep buffering.
        conn = _connection(_HEADER.pack(_MAX_FRAME) + b"partial")
        assert _parse_frames(conn.buffer) == ([], False)

    def test_worker_reader_roundtrips_and_drops_oversized_header(self):
        left, right = socket.socketpair()
        with left, right:
            left.sendall(_encode_frame(("shard", 1, {"k": [1, 2]})))
            assert _recv_frame(right) == ("shard", 1, {"k": [1, 2]})
            left.sendall(_HEADER.pack(_MAX_FRAME + 1) + b"junk")
            assert _recv_frame(right) is None


# ----------------------------------------------------------------------
# Hello handshake, both ends
# ----------------------------------------------------------------------
def _session():
    """A worker session on one end of a socket pair; returns the
    driver-side socket and the serving thread."""
    driver, worker = socket.socketpair()
    thread = threading.Thread(
        target=_serve_connection, args=(worker,), daemon=True,
    )
    thread.start()
    driver.settimeout(30)
    return driver, worker, thread


def _end_session(driver, worker, thread) -> None:
    driver.sendall(_encode_frame(("stop",)))
    thread.join(timeout=30)
    assert not thread.is_alive()
    driver.close()
    worker.close()


class TestHello:
    def test_worker_hello_names_version(self):
        driver, worker, thread = _session()
        try:
            assert _recv_frame(driver) == ("hello", PROTOCOL_VERSION)
        finally:
            _end_session(driver, worker, thread)

    def test_driver_refuses_a_peer_that_does_not_say_hello(self):
        with FakeWorker(_encode_frame(("ok", 0))) as fake:
            backend = RemoteBackend([fake.addr], connect_timeout=5.0)
            with pytest.raises(ConnectionError, match="did not say hello"):
                backend._connect(parse_addr(fake.addr))


# ----------------------------------------------------------------------
# Whole sessions over a socket pair
# ----------------------------------------------------------------------
class TestSession:
    def test_shard_reply_has_the_fixed_shape(self, point):
        prime, shard_message = point
        driver, worker, thread = _session()
        try:
            _recv_frame(driver)  # hello
            driver.sendall(_encode_frame(prime))
            driver.sendall(_encode_frame(shard_message(5)))
            reply = _recv_frame(driver)
        finally:
            _end_session(driver, worker, thread)
        kind, seq, failures, elapsed, epoch, memo, phases = reply
        assert (kind, seq, epoch, phases) == ("ok", 5, 0, None)
        assert isinstance(failures, int) and elapsed >= 0.0
        assert len(memo) == 3

    def test_session_starts_with_telemetry_off(self, scoped_registry):
        # A serve-forever worker must not inherit an earlier session's
        # (or its own process's) telemetry switch.
        telemetry.set_active(Telemetry(enabled=True))
        driver, worker, thread = _session()
        _recv_frame(driver)
        _end_session(driver, worker, thread)
        assert not telemetry.get().enabled


# ----------------------------------------------------------------------
# The message handler
# ----------------------------------------------------------------------
class TestHandler:
    def test_config_without_telemetry_switches_it_off(self, scoped_registry):
        telemetry.set_active(Telemetry(enabled=False))
        executor = ShardExecutor()
        assert handle_worker_message(
            executor, ("config", {"telemetry": True})
        ) is None
        assert telemetry.get().enabled
        assert handle_worker_message(executor, ("config", {})) is None
        assert not telemetry.get().enabled

    def test_prime_error_reply_has_fixed_shape(self):
        bad = ("prime", "ckt", {"not": "a dem"}, None, 4)
        reply = handle_worker_message(ShardExecutor(), bad)
        assert len(reply) == 7
        assert reply[:2] == ("error", None)
        assert reply[4:] == (4, None, None)
        assert "Traceback" in reply[2]

    def test_repeat_shard_is_served_from_the_memo(self, point):
        prime, shard_message = point
        executor = ShardExecutor()
        handle_worker_message(executor, prime)
        first = handle_worker_message(executor, shard_message(0))
        again = handle_worker_message(executor, shard_message(1))
        assert again[2] == first[2]
        hits, misses, size = again[5]
        assert misses == 0 and hits > 0
        assert size == first[5][2]

    def test_separate_workers_never_share_a_memo(self, point):
        prime, shard_message = point
        replies = []
        for _ in range(2):
            executor = ShardExecutor()
            handle_worker_message(executor, prime)
            replies.append(handle_worker_message(executor, shard_message(0)))
        assert replies[0][2] == replies[1][2]
        assert replies[0][5] == replies[1][5]  # both decoded from scratch
        assert replies[1][5][1] > 0


# ----------------------------------------------------------------------
# The driver side, on a synchronous stub pool
# ----------------------------------------------------------------------
class TestDriver:
    def test_stub_pool_matches_serial(self):
        serial = run_sweep(small_spec(), shard_shots=SHARD)
        pooled = run_sweep(
            small_spec(), backend=StubPoolBackend(workers=3),
            shard_shots=SHARD,
        )
        assert [(r.shots, r.failures) for r in pooled] == [
            (r.shots, r.failures) for r in serial
        ]

    def test_driver_sends_only_known_messages_of_one_shape(self):
        backend = StubPoolBackend(workers=2)
        [result] = run_sweep(small_spec(), backend=backend, shard_shots=SHARD)
        kinds = {message[0] for _, message in backend.sent}
        assert kinds <= {"prime", "config", "shard"}
        shards = [m for _, m in backend.sent if m[0] == "shard"]
        assert len(shards) == SHOTS // SHARD
        # Whole planned shards: offset 0, no parent draw.
        assert {(len(m), m[7], m[8]) for m in shards} == {(9, 0, None)}
        assert set(result.extras["memo"]) == {"hits", "misses", "entries"}
