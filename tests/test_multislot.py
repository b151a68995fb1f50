"""Chaos tests for forked worker slots, work stealing, and elastic pools.

Proves these guarantees end to end:

- **forked worker slots** — ``repro-worker --slots N`` forks N
  single-slot workers on N announced addresses, each an ordinary
  worker with its own plain ``host:port`` lane, the totals stay
  bit-identical to serial, and the forked workers never outlive their
  launcher; bad worker arguments are usage errors;
- **windowed sub-shards** — a window re-draws the whole parent sample
  and decodes only its rows, so window failure counts sum to exactly
  the parent's (the invariant work stealing rests on);
- **work stealing** — a forced straggler's tail is re-sharded onto
  idle capacity, the parent's late result is discarded, and the sweep
  lands on the serial failure counts bit for bit;
- **elastic pools** — workers can join a running sweep (and get primed
  before shards), die by SIGKILL and be replaced at the same address,
  or drop their session and rejoin via ``--serve-forever``, all
  without changing the results.
"""

import socket
import subprocess
import sys
import threading
import time

import pytest

from fault_helpers import (
    reap_workers,
    spawn_launcher,
    spawn_worker,
    spawn_workers,
    subprocess_env,
)
from repro.engine import (
    CompilationCache,
    SweepSpec,
    run_sweep,
)
from repro.engine.cache import dem_to_jsonable
from repro.engine.remote import RemoteBackend, parse_addr
from repro.engine.remote import main as worker_main
from repro.engine.runner import Runner, compile_design_point, plan_shards
from repro.engine.scheduler import ShardOutcome
from repro.engine.worker import (
    Shard,
    ShardExecutor,
    _recv_frame,
    handle_worker_message,
    sample_shard,
)
from repro.noise.parameters import DEFAULT_NOISE

SHOTS = 600
SHARD = 128


def small_spec(**overrides):
    base = dict(
        distances=(2, 3),
        capacities=(2,),
        shots=SHOTS,
        rounds=2,
        master_seed=7,
    )
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture(scope="module")
def serial_reference():
    """Failure counts of the canonical single-slot serial run."""
    return [r.failures for r in run_sweep(small_spec(), shard_shots=SHARD)]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ----------------------------------------------------------------------
# Windowed sub-shards (the bit-identity invariant, no sockets)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def compiled_point():
    """One compiled design point with its decoder and DEM sampler."""
    spec = small_spec(distances=(2,))
    [job] = spec.expand()
    art = compile_design_point(job, DEFAULT_NOISE, need_circuit=True)
    cache = CompilationCache()
    compiled = cache.compiled(art.circuit, art.text)
    decoder = cache.decoder(compiled, job.decoder)
    sampler = cache.dem_sampler(compiled)
    return spec, job, compiled, decoder, sampler


class TestShardWindows:
    def test_window_failures_sum_to_parent(self, compiled_point):
        # Split every planned shard into three uneven windows: the
        # windows must reproduce the parent's failure count exactly,
        # because each window re-draws the full parent sample and
        # decodes only its own rows.
        spec, job, compiled, decoder, sampler = compiled_point
        for shard in plan_shards(job.shots, SHARD, spec.master_seed, job.key):
            whole, _, _ = sample_shard(
                decoder, shard, sampler=sampler
            )
            cuts = [0, shard.shots // 3, 2 * shard.shots // 3 + 5, shard.shots]
            windowed = 0
            for lo, hi in zip(cuts, cuts[1:]):
                window = Shard(
                    shard.index, hi - lo, shard.seed,
                    offset=lo, parent_shots=shard.shots,
                )
                failures, _, _ = sample_shard(
                    decoder, window, sampler=sampler
                )
                windowed += failures
            assert windowed == whole

    def test_window_outside_parent_draw_raises(self, compiled_point):
        _spec, _job, compiled, decoder, sampler = compiled_point
        shard = Shard(0, SHARD, None)
        bogus = Shard(0, 64, shard.seed, offset=100, parent_shots=SHARD)
        with pytest.raises(ValueError, match="outside parent draw"):
            sample_shard(decoder, bogus, sampler=sampler)


class TestWorkerMessages:
    def test_replies_have_one_fixed_shape(self, compiled_point):
        # Whole shards, stolen windows and errors all reply with
        # (kind, seq, value, elapsed_s, epoch, memo, phases).
        spec, job, compiled, _decoder, _sampler = compiled_point
        executor = ShardExecutor()
        prime = ("prime", "ckt", dem_to_jsonable(compiled.dem),
                 dem_to_jsonable(compiled.sampling_dem), 0)
        assert handle_worker_message(executor, prime) is None
        [shard] = plan_shards(SHARD, SHARD, spec.master_seed, job.key)

        def shard_message(seq, shots, offset, parent_shots, key="ckt"):
            return ("shard", seq, key, job.decoder, shots,
                    shard.seed, 0, offset, parent_shots)

        whole = handle_worker_message(executor, shard_message(0, SHARD, 0, None))
        assert len(whole) == 7 and whole[:2] == ("ok", 0)
        assert len(whole[5]) == 3  # (hits, misses, size)
        assert whole[6:] == (None,)  # telemetry off
        half = SHARD // 2
        windows = [
            handle_worker_message(
                executor, shard_message(1 + i, half, i * half, SHARD)
            )
            for i in range(2)
        ]
        assert [len(reply) for reply in windows] == [7, 7]
        assert sum(reply[2] for reply in windows) == whole[2]
        error = handle_worker_message(
            executor, shard_message(3, SHARD, 0, None, key="unprimed")
        )
        assert len(error) == 7 and error[:2] == ("error", 3)
        assert "unprimed" in error[2]


# ----------------------------------------------------------------------
# In-process stealing (deterministic: a stub backend stalls one shard)
# ----------------------------------------------------------------------
class StallingBackend:
    """In-process pool backend that never executes one designated shard.

    Executes shards like :class:`SerialBackend` (one per ``wait``, FIFO)
    but holds the task with scheduler seq ``stall_seq`` unexecuted.  When
    only stalled work remains it returns ``[]`` once, which is the beat
    where the scheduler must steal.  After the steal it executes the
    stalled *parent* before the windows — the late result the scheduler
    must discard as superseded.
    """

    name = "stalling"

    def __init__(self, stall_seq: int = 0, capacity: int = 4):
        self.capacity = capacity
        self.stall_seq = stall_seq
        self._queue: list = []
        self.executed: list[int] = []  # seqs, in execution order

    def supports_windows(self) -> bool:
        return True

    def submit(self, task, compiled, cache) -> None:
        self._queue.append((task, compiled, cache))

    def poll(self):
        return []

    def _run(self, entry):
        task, compiled, cache = entry
        decoder = cache.decoder(compiled, task.decoder)
        failures, memo, phases = sample_shard(
            decoder,
            Shard(task.shard_index, task.shots, task.seed,
                  offset=task.offset, parent_shots=task.parent_shots),
            cache.dem_sampler(compiled),
        )
        self.executed.append(task.seq)
        return [ShardOutcome(task.seq, task.job_key, task.shots, failures,
                             0.0, *memo, phases=phases)]

    def wait(self):
        stolen = [e for e in self._queue if e[0].parent_shots is not None]
        if stolen:
            # Post-steal: the stalled parent "finishes" first, so its
            # (superseded) result races the windows and must be dropped.
            for entry in self._queue:
                if entry[0].seq == self.stall_seq:
                    self._queue.remove(entry)
                    return self._run(entry)
        runnable = [e for e in self._queue if e[0].seq != self.stall_seq]
        if not runnable:
            return []  # only the straggler left: the steal beat
        entry = min(runnable, key=lambda e: e[0].seq)
        self._queue.remove(entry)
        return self._run(entry)

    def abandon_pending(self) -> None:
        self._queue = []

    def close(self) -> None:
        pass

    def terminate(self) -> None:
        pass


class TestStealScheduler:
    def test_stalled_shard_is_stolen_and_parent_discarded(
        self, serial_reference
    ):
        backend = StallingBackend(stall_seq=0, capacity=4)
        runner = Runner(
            small_spec(), backend=backend, shard_shots=SHARD,
            steal_min_shots=32,
        )
        results = runner.run()
        assert [r.failures for r in results] == serial_reference
        # The stalled shard is the stalest pending task, so it is the
        # first steal target; once the stream is exhausted the
        # scheduler may split further stragglers onto idle capacity.
        stats = runner.steal_stats
        assert stats["steals"] >= 1
        assert stats["stolen_shots"] >= SHARD
        assert stats["windows"] >= 2
        # Every planned shard and every window executed exactly once —
        # including the superseded parents, whose late results landed
        # *after* their windows — yet totals match serial, proving the
        # discarded copies were dropped, not double-counted.
        assert 0 in backend.executed
        assert len(backend.executed) == 10 + stats["windows"]
        assert len(set(backend.executed)) == len(backend.executed)

    def test_steal_disabled_keeps_stats_empty(self):
        backend = StallingBackend(stall_seq=10 ** 9, capacity=2)
        runner = Runner(
            small_spec(distances=(2,)), backend=backend, shard_shots=SHARD,
            steal=False, steal_min_shots=32,
        )
        results = runner.run()
        assert results and runner.steal_stats == {}


# ----------------------------------------------------------------------
# Real workers: forked slots (sockets, processes)
# ----------------------------------------------------------------------
class RecordingRemote(RemoteBackend):
    """RemoteBackend that audits outcome lanes, sends, and adoptions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lanes: list[str] = []
        self.sent: list[tuple[int, str]] = []  # (worker index, kind)
        self.adopted: list[tuple] = []  # addrs, in adoption order

    def _handle(self, message):
        outcome = super()._handle(message)
        if outcome is not None and outcome.worker:
            self.lanes.append(outcome.worker)
        return outcome

    def _send(self, worker, message):
        self.sent.append((worker, message[0]))
        super()._send(worker, message)

    def _adopt(self, conn):
        self.adopted.append(conn.addr)
        return super()._adopt(conn)


def port_is_free(addr: str) -> bool:
    """Whether nothing listens on ``addr`` any more — probed by binding
    it, which never opens a session with a live worker."""
    try:
        socket.create_server(parse_addr(addr)).close()
    except OSError:
        return False
    return True


class TestForkedSlots:
    def test_two_slot_launcher_is_two_plain_workers_bit_identical(
        self, serial_reference
    ):
        # The shard delay keeps shards on each worker long enough that
        # the driver's queue spreads them over both.
        proc, addrs = spawn_launcher(
            2, extra_args=("--chaos-shard-delay", "0.05")
        )
        try:
            assert len(set(addrs)) == 2
            with RecordingRemote(addrs) as backend:
                results = run_sweep(
                    small_spec(), backend=backend, shard_shots=SHARD
                )
                health = backend.pool_health()
            assert [r.failures for r in results] == serial_reference
            # Every outcome lands on one of the two plain addresses.
            assert set(backend.lanes) == set(addrs), backend.lanes
            assert set(health["workers"]) == set(addrs)
            for stats in health["workers"].values():
                assert not {"slots", "busy_slots"} & set(stats)
            # The workers exit with their driver, the launcher with them.
            assert proc.wait(timeout=30) == 0
        finally:
            reap_workers([proc])

    def test_sigkilled_launcher_leaves_no_worker_behind(self):
        # Serve-forever workers never exit on their own.  A hello from
        # each proves both were forked before the launcher is killed.
        proc, addrs = spawn_launcher(2, extra_args=("--serve-forever",))
        try:
            for addr in addrs:
                with socket.create_connection(parse_addr(addr)) as sock:
                    sock.settimeout(30)
                    assert _recv_frame(sock)[0] == "hello"
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 5.0
            held = set(addrs)
            while held and time.monotonic() < deadline:
                held = {addr for addr in held if not port_is_free(addr)}
                time.sleep(0.05)
            assert not held, f"forked workers outlived the launcher: {held}"
        finally:
            reap_workers([proc])

    def test_bind_failure_exits_before_any_fork(self):
        # The second of two consecutive ports is taken: the launcher
        # must fail on the bind, announce nothing, and fork nobody.
        with socket.create_server(("127.0.0.1", 0)) as taken:
            port = taken.getsockname()[1]
            proc = subprocess.run(
                [sys.executable, "-m", "repro.engine.remote",
                 "--listen", f"127.0.0.1:{port - 1}", "--slots", "2"],
                capture_output=True, text=True, env=subprocess_env(),
                timeout=60,
            )
        assert proc.returncode == 1
        assert "listening" not in proc.stdout
        assert "cannot listen" in proc.stderr


class TestWorkerArguments:
    @pytest.mark.parametrize("argv", [
        ["--slots", "abc"],
        ["--slots", "0"],
        ["--slots", "-2"],
        ["--listen", "127.0.0.1:notaport"],
        ["--listen", "nohost"],
        ["--listen", "127.0.0.1:65536"],
        ["--listen", "127.0.0.1:65535", "--slots", "2"],
    ])
    def test_bad_arguments_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            worker_main(argv)
        assert exit_info.value.code == 2
        assert "usage: repro-worker" in capsys.readouterr().err

    def test_parse_addr_accepts_only_ports_0_to_65535(self):
        assert parse_addr("127.0.0.1:0") == ("127.0.0.1", 0)
        assert parse_addr("host:65535") == ("host", 65535)
        for bad in ("host:65536", "host:-1", "host:", "host:x", ":7930",
                    "host"):
            with pytest.raises(ValueError, match="not host:port"):
                parse_addr(bad)


class TestWorkStealingRemote:
    def test_forced_straggler_is_stolen_bit_identical(self, serial_reference):
        # One worker sleeps before every shard (the straggler), one is
        # fast.  The tail held by the slow worker must be stolen onto
        # the fast one, and the failure counts must not change.
        slow_proc, slow_addr = spawn_worker(
            extra_args=("--chaos-shard-delay", "0.4")
        )
        fast_proc, fast_addr = spawn_worker()
        try:
            with RemoteBackend([slow_addr, fast_addr]) as backend:
                runner = Runner(
                    small_spec(), backend=backend, shard_shots=SHARD,
                    steal_min_shots=32,
                )
                results = runner.run()
            stats = runner.steal_stats
            assert stats.get("steals", 0) >= 1, (
                "forced straggler was never stolen"
            )
            assert stats["windows"] >= 2
            assert [r.failures for r in results] == serial_reference
        finally:
            reap_workers([slow_proc, fast_proc])


# ----------------------------------------------------------------------
# Elastic pools (join / SIGKILL-replace / leave-and-rejoin)
# ----------------------------------------------------------------------
class TestElasticPool:
    def test_worker_joins_mid_sweep_and_is_primed(self, serial_reference):
        # The sweep starts with one live worker and one roster address
        # nobody is listening on yet; a worker spawned there mid-sweep
        # must be adopted, primed, and given shards.
        proc1, addr1 = spawn_worker(
            extra_args=("--chaos-shard-delay", "0.15")
        )
        late_addr = f"127.0.0.1:{free_port()}"
        late: dict = {}
        listening = threading.Event()

        def join_late():
            late["proc"], late["addr"] = spawn_worker(listen=late_addr)
            listening.set()

        class JoinGated(RecordingRemote):
            # The joiner's interpreter start-up can outlast the whole
            # sweep on a loaded host.  Holding back the first outcome
            # until it listens leaves most shards unsubmitted when the
            # rescan can first adopt it, however slow the start-up.
            def _handle(self, message):
                outcome = super()._handle(message)
                if outcome is not None and not listening.is_set():
                    assert listening.wait(timeout=60), (
                        "late worker never started listening"
                    )
                return outcome

        joiner = threading.Thread(target=join_late, daemon=True)
        try:
            with JoinGated(
                [addr1, late_addr], elastic=True, rescan_interval=0.2
            ) as backend:
                joiner.start()
                results = run_sweep(
                    small_spec(), backend=backend, shard_shots=SHARD
                )
            joiner.join(timeout=30)
            assert [r.failures for r in results] == serial_reference
            # The late worker was adopted as a fresh index...
            assert tuple(backend.adopted[-1]) == (
                "127.0.0.1", int(late_addr.rsplit(":", 1)[1]))
            late_index = len(backend.adopted) - 1
            kinds = [kind for worker, kind in backend.sent
                     if worker == late_index]
            # ...primed before any shard, and actually given shards.
            assert "prime" in kinds
            assert "shard" in kinds
            assert kinds.index("prime") < kinds.index("shard")
            assert any(lane.startswith(late_addr) for lane in backend.lanes)
        finally:
            reap_workers([proc1] + ([late["proc"]] if "proc" in late else []))

    def test_sigkilled_worker_is_replaced_at_same_address(
        self, serial_reference
    ):
        # SIGKILL one of two workers mid-sweep, then stand up a fresh
        # worker on the same roster address: the elastic driver must
        # re-adopt it (as a new identity) and finish bit-identically.
        procs, addrs = spawn_workers(1)
        survivor_proc, survivor_addr = spawn_worker(
            extra_args=("--chaos-shard-delay", "0.1")
        )
        victim_proc, victim_addr = procs[0], addrs[0]
        replacement: dict = {}

        class KillAndReplace(RecordingRemote):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._seen = 0
                self.killed = False

            def _handle(self, message):
                outcome = super()._handle(message)
                if outcome is not None:
                    self._seen += 1
                    if not self.killed and self._seen >= 2:
                        self.killed = True
                        victim_proc.kill()
                        victim_proc.wait()
                        replacement["proc"], _ = spawn_worker(
                            listen=victim_addr
                        )
                return outcome

        try:
            with KillAndReplace(
                [victim_addr, survivor_addr], elastic=True,
                rescan_interval=0.2,
            ) as backend:
                results = run_sweep(
                    small_spec(), backend=backend, shard_shots=SHARD
                )
                health = backend.pool_health()
            assert backend.killed
            assert [r.failures for r in results] == serial_reference
            assert health["crashes"] == 1
            # Three adoptions: two at start, one for the replacement —
            # and the replacement (a fresh index >= 2) received shards.
            assert len(backend.adopted) == 3
            assert any(worker >= 2 and kind == "shard"
                       for worker, kind in backend.sent)
        finally:
            reap_workers(
                [victim_proc, survivor_proc]
                + ([replacement["proc"]] if "proc" in replacement else [])
            )

    def test_clean_leave_and_rejoin_with_serve_forever(
        self, serial_reference
    ):
        # A --serve-forever worker whose session drops (clean leave: the
        # driver severs the socket, the worker loops back to accept)
        # must be re-adopted by the elastic rescan and finish the sweep.
        leaver_proc, leaver_addr = spawn_worker(
            extra_args=("--serve-forever",)
        )
        stayer_proc, stayer_addr = spawn_worker(
            extra_args=("--chaos-shard-delay", "0.1")
        )

        class SessionDropping(RecordingRemote):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._seen = 0
                self.dropped = False

            def _handle(self, message):
                outcome = super()._handle(message)
                if outcome is not None:
                    self._seen += 1
                    if not self.dropped and self._seen >= 2:
                        self.dropped = True
                        self._conns[0].sock.shutdown(socket.SHUT_RDWR)
                return outcome

        try:
            with SessionDropping(
                [leaver_addr, stayer_addr], elastic=True,
                rescan_interval=0.2,
            ) as backend:
                results = run_sweep(
                    small_spec(), backend=backend, shard_shots=SHARD
                )
            assert backend.dropped
            assert [r.failures for r in results] == serial_reference
            # The same process rejoined under a fresh driver-side
            # identity once its old session died.
            assert backend.adopted.count(backend.adopted[0]) == 2
            assert leaver_proc.poll() is None  # it never exited
        finally:
            reap_workers([leaver_proc, stayer_proc])
