"""What a pool worker runs: shard sampling, the worker loop, the wire.

Every pool worker — a local one forked by
:class:`~repro.engine.pool.MultiprocessBackend` or a ``repro-worker``
process on another machine (:mod:`repro.engine.remote`) — runs
:func:`_serve_connection` on one socket: it says hello, then answers
the driver's messages through :func:`handle_worker_message` and one
:class:`ShardExecutor` until the driver sends ``stop`` or hangs up.
:class:`~repro.engine.runner.SerialBackend` calls :func:`sample_shard`
in-process instead.

Messages travel as length-prefixed **pickle** frames: a worker
executes what its driver sends and trusts it completely (and vice
versa), so run workers only on hosts and networks you control.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
import traceback
from dataclasses import dataclass

import numpy as np

from ..decoders import make_decoder
from ..decoders.graph import DetectorGraph
from ..sim.dem_sampler import DemSampler, PackedShard
from ..telemetry import configure as configure_telemetry
from ..telemetry import get as active_telemetry
from .cache import dem_from_jsonable

# A worker opens every session with ``("hello", PROTOCOL_VERSION)``;
# the driver then sends the messages of :func:`handle_worker_message`
# (prime, config, shard, stop) and reads its fixed-shape replies.
# Driver and worker ship in one package, so there is exactly one
# message format: a driver refuses a worker whose hello names any
# other version (bump the number whenever a message shape, or what a
# worker builds from a payload, changes).
PROTOCOL_VERSION = 9
_HEADER = struct.Struct(">I")
# A frame is bounded by the largest prime payload (two DEM JSONs) —
# far below this, but cap it so a corrupt/hostile header cannot
# trigger a giant allocation.
_MAX_FRAME = 1 << 31


# ----------------------------------------------------------------------
# Shard sampling
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


def sample_shard(
    decoder,
    shard: Shard,
    sampler: DemSampler,
) -> tuple[int, tuple[int, int, int], dict | None]:
    """Sample one shard and count its logical failures.

    The shard flows packed end to end: the :class:`DemSampler` emits
    :class:`~repro.sim.dem_sampler.PackedShard` words directly, the
    decoder consumes them via ``logical_failures_packed``, and the
    shard's ``SeedSequence`` fully determines the draw.

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
            packed = sampler.sample_packed(draw_shots, seed=shard.seed)
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
# Worker-side state and message handling
# ----------------------------------------------------------------------
class ShardExecutor:
    """Worker-side shard execution state.

    Holds, per circuit this worker was primed with, the detector
    graph and the DEM sampler, plus the decoders built lazily from the
    graph.  Every worker process runs one shard at a time, so each
    (circuit, decoder) pair has exactly one decoder, which owns its
    syndrome memo; the memo never leaves the worker.

    An MWPM decoder runs the graph's all-pairs search when it is
    built, so each worker pays it once per circuit inside its first
    MWPM shard's elapsed time (outside that shard's phases); the
    driver computes none, and a pool sweep's driver-side ``dijkstra``
    phase reads 0.
    """

    def __init__(self):
        # circuit_key -> (detector graph, DEM sampler).
        self._circuits: dict[str, tuple[DetectorGraph, DemSampler]] = {}
        # (circuit_key, decoder_name) -> decoder instance (and its memo).
        self._decoders: dict[tuple[str, str], object] = {}

    def prime(self, circuit_key, dem_data, sdem_data) -> None:
        graph = DetectorGraph.from_dem(dem_from_jsonable(dem_data))
        sampler = DemSampler(dem_from_jsonable(sdem_data))
        self._circuits[circuit_key] = (graph, sampler)

    def run(
        self, circuit_key, decoder_name, shots, seed,
        offset: int = 0, parent_shots: int | None = None,
    ):
        """Sample one shard; returns ``(failures, memo_stats, phases)``."""
        entry = self._circuits.get(circuit_key)
        if entry is None:
            raise RuntimeError(
                f"shard for unprimed circuit {circuit_key[:12]}…: "
                "priming protocol violated"
            )
        graph, sampler = entry
        decoder = self._decoders.get((circuit_key, decoder_name))
        if decoder is None:
            decoder = make_decoder(graph, decoder_name)
            self._decoders[(circuit_key, decoder_name)] = decoder
        return sample_shard(
            decoder,
            Shard(0, shots, seed, offset=offset, parent_shots=parent_shots),
            sampler,
        )


def handle_worker_message(executor: ShardExecutor, message: tuple):
    """Process one driver message; returns the reply tuple or ``None``.

    The worker's request/reply state machine: ``prime`` updates the
    executor (priming errors are reported with ``seq=None``),
    ``config`` applies worker-side settings (today only the telemetry
    switch), ``shard`` samples and replies; ``stop`` is the caller's
    business.

    A prime message is ``("prime", circuit_key, dem, sampling_dem,
    epoch)``: both DEMs as JSON-able payloads.  A shard message is
    always ``("shard", seq, circuit_key, decoder, shots, seed, epoch,
    offset, parent_shots)``;
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
        _, circuit_key, dem_data, sdem_data, epoch = message
        try:
            executor.prime(circuit_key, dem_data, sdem_data)
        except BaseException:
            return ("error", None, traceback.format_exc(), 0.0, epoch,
                    None, None)
        return None
    if kind == "config":
        # Driver-controlled worker settings.  Settings are per-driver
        # state: a serve-forever worker gets a fresh ``config`` (or
        # none — all off) per session.
        _, settings = message
        configure_telemetry(enabled=bool(settings.get("telemetry", False)))
        return None
    (_, seq, circuit_key, decoder_name, shots, seed,
     epoch, offset, parent_shots) = message
    try:
        t0 = time.perf_counter()
        failures, memo, phases = executor.run(
            circuit_key, decoder_name, shots, seed,
            offset=offset, parent_shots=parent_shots,
        )
        elapsed = time.perf_counter() - t0
        return ("ok", seq, failures, elapsed, epoch, memo, phases)
    except BaseException:
        return ("error", seq, traceback.format_exc(), 0.0, epoch, None, None)


# ----------------------------------------------------------------------
# The wire: length-prefixed pickle frames, and the worker loop
# ----------------------------------------------------------------------
def _encode_frame(message) -> bytes:
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload)) + payload


def _parse_frames(buffer: bytearray) -> tuple[list, bool]:
    """Pop every complete frame off the front of ``buffer``; also
    report whether the next header is corrupt (longer than
    ``_MAX_FRAME``)."""
    messages = []
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
    """One driver session: hello, then prime/config/shard until stop/EOF.

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
