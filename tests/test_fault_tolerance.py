"""Fault-tolerance chaos harness for the distributed execution engine.

Proves the PR's three guarantees end to end:

- **worker crash recovery** — a worker lost mid-sweep (virtual drop,
  SIGKILL, broken socket) never kills the sweep and never changes the
  failure counts: lost shards rerun on survivors with their original
  ``SeedSequence`` streams, so totals stay bit-identical to a
  crash-free serial run;
- **no-survivor behaviour** — when *every* worker is dead the sweep
  raises :class:`NoLiveWorkersError` promptly instead of hanging;
- **shard-level checkpointing** — a driver SIGKILLed between shards
  resumes mid-job from its checkpointed shards, re-executing none of
  them, and converges to the same result as an uninterrupted run.
"""

import os
import random
import signal
import socket
import textwrap
import time

import pytest

from fault_helpers import (
    AbortingSerialBackend,
    CountingSerialBackend,
    FakeWorker,
    FlakyBackend,
    SweepAborted,
    count_shard_lines,
    process_running,
    reap_workers,
    run_sweep_driver,
    run_with_timeout,
    spawn_workers,
    wait_for_shard_lines,
)
from repro.engine import (
    NoLiveWorkersError,
    ResultStore,
    SweepSpec,
    run_sweep,
)
from repro.engine.remote import RemoteBackend, parse_addr, parse_addrs
from repro.engine.worker import (
    _HEADER,
    _MAX_FRAME,
    PROTOCOL_VERSION,
    _encode_frame,
)

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
    """Failure counts of the canonical crash-free serial run."""
    return [r.failures for r in run_sweep(small_spec(), shard_shots=SHARD)]


# ----------------------------------------------------------------------
# In-process crash recovery (FlakyBackend: no subprocesses, fast)
# ----------------------------------------------------------------------
class TestFlakyRecovery:
    def test_worker_drop_recovers_bit_identical(self, serial_reference):
        backend = FlakyBackend(workers=2, drop_worker=1, drop_after=2)
        results = run_sweep(small_spec(), backend=backend, shard_shots=SHARD)
        assert [r.failures for r in results] == serial_reference
        # The drop actually happened, and the dead worker's shards ran
        # somewhere: every planned shard executed exactly once.
        assert 1 not in backend._live()
        assert len(backend.executed) == len(set(backend.executed)) == 10

    def test_immediate_drop_recovers(self, serial_reference):
        # Worker 0 dies before completing anything.
        backend = FlakyBackend(workers=3, drop_worker=0, drop_after=0)
        results = run_sweep(small_spec(), backend=backend, shard_shots=SHARD)
        assert [r.failures for r in results] == serial_reference

    def test_all_workers_dead_raises_not_hangs(self):
        backend = FlakyBackend(workers=2, drop_worker="all", drop_after=1)
        result = run_with_timeout(
            lambda: run_sweep(small_spec(), backend=backend, shard_shots=SHARD),
            seconds=30,
        )
        assert isinstance(result.get("error"), NoLiveWorkersError)

    def test_injected_shard_failure_still_fails_the_sweep(self):
        # A shard *error* (bug, bad input) is not a crash to recover
        # from: it must propagate, not silently rerun forever.
        backend = FlakyBackend(workers=2, fail_seq=3)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_sweep(small_spec(), backend=backend, shard_shots=SHARD)

    def test_adaptive_sweep_survives_worker_drop(self):
        # Adaptive mode cannot promise bit-identity under parallelism,
        # but the target/budget contract must hold through a crash.
        spec = small_spec(shots=128, target_failures=15, max_shots=2048)
        backend = FlakyBackend(workers=2, drop_worker=0, drop_after=3)
        results = run_sweep(spec, backend=backend, shard_shots=SHARD)
        for result in results:
            assert result.shots <= spec.max_shots
            if result.extras["adaptive"]["converged"]:
                assert result.failures >= spec.target_failures


class TestRecoveryProperties:
    """Hypothesis-style seed sweep: random small grids, worker counts
    and kill points — recovery must always match the serial run."""

    @pytest.mark.parametrize("trial", range(6))
    def test_crash_recovery_matches_serial(self, trial):
        rng = random.Random(20260729 + trial)
        spec = small_spec(
            distances=rng.choice([(2,), (2, 3)]),
            shots=rng.choice([384, 640]),
            master_seed=rng.randrange(1000),
        )
        shard = rng.choice([64, 128])
        serial = run_sweep(spec, shard_shots=shard)
        workers = rng.randint(2, 3)
        backend = FlakyBackend(
            workers=workers,
            drop_worker=rng.randrange(workers),
            drop_after=rng.randint(0, 5),
        )
        recovered = run_sweep(spec, backend=backend, shard_shots=shard)
        assert [r.failures for r in recovered] == [
            r.failures for r in serial
        ], f"trial {trial}: recovery diverged from serial"

    @pytest.mark.parametrize("trial", range(4))
    def test_shard_resume_matches_uninterrupted(self, trial, tmp_path):
        # Abort a sweep after a random number of shards; the resumed
        # run must credit the checkpoints and land on the exact serial
        # totals without re-executing any checkpointed shard.
        rng = random.Random(777 + trial)
        spec = small_spec(
            distances=(2, 3),
            shots=rng.choice([512, 640]),
            master_seed=rng.randrange(1000),
        )
        shard = rng.choice([64, 128])
        serial = run_sweep(spec, shard_shots=shard)
        path = str(tmp_path / "resume.jsonl")
        kill_point = rng.randint(1, 6)
        aborting = AbortingSerialBackend(kill_point)
        with pytest.raises(SweepAborted):
            run_sweep(spec, results_path=path, shard_shots=shard,
                      backend=aborting)
        assert count_shard_lines(path) == kill_point
        resumed_backend = CountingSerialBackend()
        resumed = run_sweep(spec, results_path=path, shard_shots=shard,
                            backend=resumed_backend)
        assert [r.failures for r in resumed] == [r.failures for r in serial]
        # No checkpointed shard ran twice, and together the two runs
        # executed every planned shard exactly once.
        assert not set(resumed_backend.executed) & set(aborting.executed)
        total = len(aborting.executed) + len(resumed_backend.executed)
        assert total == len(set(aborting.executed + resumed_backend.executed))
        # The sweep completed, so the store compacted its shard lines.
        assert count_shard_lines(path) == 0
        assert len(ResultStore(path).load()) == len(serial)


# ----------------------------------------------------------------------
# Real socket workers (RemoteBackend chaos)
# ----------------------------------------------------------------------
class PrimeCountingRemote(RemoteBackend):
    """RemoteBackend that audits its worker messages."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.primes: list[tuple[int, str]] = []

    def _send(self, worker, message):
        if message[0] == "prime":
            self.primes.append((worker, message[1]))
        super()._send(worker, message)


class KillingRemote(RemoteBackend):
    """RemoteBackend that SIGKILLs one worker process mid-sweep."""

    def __init__(self, addrs, procs, victim, after_outcomes, **kwargs):
        super().__init__(addrs, **kwargs)
        self._victim_procs = procs
        self._victim = victim
        self._after = after_outcomes
        self._seen = 0
        self.killed = False

    def _handle(self, message):
        outcome = super()._handle(message)
        if outcome is not None:
            self._seen += 1
            if not self.killed and self._seen >= self._after:
                self.killed = True
                proc = self._victim_procs[self._victim]
                proc.kill()
                proc.wait()
        return outcome


class SocketDroppingRemote(RemoteBackend):
    """RemoteBackend that severs one worker's socket mid-sweep.

    ``mode="shutdown"`` simulates a network partition (the fd stays
    valid, reads see EOF); ``mode="close"`` simulates the descriptor
    being torn down under the backend (fd becomes invalid).
    """

    def __init__(self, addrs, victim, after_outcomes, mode="shutdown",
                 **kwargs):
        super().__init__(addrs, **kwargs)
        self._victim = victim
        self._after = after_outcomes
        self._mode = mode
        self._seen = 0
        self.dropped = False

    def _handle(self, message):
        outcome = super()._handle(message)
        if outcome is not None:
            self._seen += 1
            if not self.dropped and self._seen >= self._after:
                self.dropped = True
                sock = self._conns[self._victim].sock
                if self._mode == "close":
                    sock.close()
                else:
                    sock.shutdown(socket.SHUT_RDWR)
        return outcome


class TestRemoteBackend:
    def test_addr_parsing(self):
        assert parse_addr("host:123") == ("host", 123)
        assert parse_addrs("a:1, b:2") == [("a", 1), ("b", 2)]
        with pytest.raises(ValueError):
            parse_addr("no-port")
        with pytest.raises(ValueError):
            parse_addrs("")

    def test_matches_serial_and_primes_once(self, serial_reference):
        procs, addrs = spawn_workers(2)
        try:
            with PrimeCountingRemote(addrs) as backend:
                results = run_sweep(
                    small_spec(), backend=backend, shard_shots=SHARD
                )
            assert [r.failures for r in results] == serial_reference
            # Once per (worker, circuit), never twice.
            assert backend.primes
            assert len(backend.primes) == len(set(backend.primes))
            assert len(backend.primes) <= 2 * 2
        finally:
            reap_workers(procs)

    def test_worker_sigkill_mid_sweep_bit_identical(self, serial_reference):
        # The acceptance scenario: one of two workers is SIGKILLed
        # while the sweep runs; the survivor absorbs the lost shards
        # and the totals match the serial backend bit for bit.
        procs, addrs = spawn_workers(2)
        try:
            with KillingRemote(addrs, procs, victim=0, after_outcomes=2) as backend:
                results = run_sweep(
                    small_spec(), backend=backend, shard_shots=SHARD
                )
            assert backend.killed, "kill never triggered: sweep too small?"
            assert [r.failures for r in results] == serial_reference
        finally:
            reap_workers(procs)

    @pytest.mark.parametrize("mode", ["shutdown", "close"])
    def test_socket_drop_recovers_bit_identical(self, serial_reference, mode):
        procs, addrs = spawn_workers(2)
        try:
            with SocketDroppingRemote(addrs, victim=1, after_outcomes=1,
                                      mode=mode) as backend:
                results = run_sweep(
                    small_spec(), backend=backend, shard_shots=SHARD
                )
            assert backend.dropped
            assert [r.failures for r in results] == serial_reference
        finally:
            reap_workers(procs)

    def test_all_workers_dead_raises_not_hangs(self):
        procs, addrs = spawn_workers(1)
        try:
            def doomed():
                with KillingRemote(addrs, procs, victim=0,
                                   after_outcomes=1) as backend:
                    return run_sweep(
                        small_spec(), backend=backend, shard_shots=SHARD
                    )

            result = run_with_timeout(doomed, seconds=60)
            assert isinstance(result.get("error"), NoLiveWorkersError)
        finally:
            reap_workers(procs)

    def test_unreachable_worker_is_a_clear_error(self):
        backend = RemoteBackend(["127.0.0.1:1"], connect_timeout=2.0)
        with pytest.raises(ConnectionError, match="cannot reach repro-worker"):
            run_sweep(small_spec(distances=(2,)), backend=backend,
                      shard_shots=SHARD)


    def test_corrupt_frame_header_kills_worker_not_sweep(
        self, serial_reference
    ):
        # A worker that says hello and then sends a length header over
        # the frame limit can never be parsed again: the driver must
        # disown it and rerun its shards on the real worker.  Stealing
        # is off so only the disowning can rescue those shards.
        procs, addrs = spawn_workers(1)
        corrupt = (
            _encode_frame(("hello", PROTOCOL_VERSION))
            + _HEADER.pack(_MAX_FRAME + 1)
        )
        try:
            with FakeWorker(corrupt) as fake:
                def sweep():
                    with RemoteBackend([fake.addr, addrs[0]]) as backend:
                        results = run_sweep(
                            small_spec(), backend=backend,
                            shard_shots=SHARD, steal=False,
                        )
                        return results, backend.pool_health()

                outcome = run_with_timeout(sweep, seconds=60)
            assert "error" not in outcome, outcome.get("error")
            results, health = outcome["value"]
            assert [r.failures for r in results] == serial_reference
            assert health["crashes"] == 1
            assert list(health["workers"]) == [addrs[0]]
        finally:
            reap_workers(procs)


# ----------------------------------------------------------------------
# One wire protocol: a worker of another version is refused
# ----------------------------------------------------------------------
OLD_HELLO = _encode_frame(("hello", 4))


class TestProtocolVersion:
    def test_strict_pool_refuses_other_version(self):
        with FakeWorker(OLD_HELLO) as fake:
            backend = RemoteBackend([fake.addr], connect_timeout=5.0)
            result = run_with_timeout(
                lambda: run_sweep(small_spec(distances=(2,)),
                                  backend=backend, shard_shots=SHARD),
                seconds=30,
            )
        error = result.get("error")
        assert isinstance(error, ConnectionError), result
        assert f"speaks protocol 4 but this driver speaks protocol " \
            f"{PROTOCOL_VERSION}" in str(error)

    def test_elastic_pool_skips_other_version(self, serial_reference):
        procs, addrs = spawn_workers(1)
        try:
            with FakeWorker(OLD_HELLO) as fake:
                def sweep():
                    with RemoteBackend(
                        [fake.addr, addrs[0]], elastic=True,
                        rescan_interval=0.2,
                    ) as backend:
                        results = run_sweep(
                            small_spec(), backend=backend, shard_shots=SHARD
                        )
                        return results, backend.pool_health()

                outcome = run_with_timeout(sweep, seconds=60)
                assert fake.sessions >= 1  # dialed, then refused
            assert "error" not in outcome, outcome.get("error")
            results, health = outcome["value"]
            assert [r.failures for r in results] == serial_reference
            assert list(health["workers"]) == [addrs[0]]
            assert health["crashes"] == 0
        finally:
            reap_workers(procs)


# ----------------------------------------------------------------------
# Driver SIGKILL between shards -> mid-job resume from checkpoints
# ----------------------------------------------------------------------
class TestDriverKill:
    def test_sigkilled_adaptive_driver_resumes_mid_job(self, tmp_path):
        # The acceptance scenario: an adaptive job's driver is
        # SIGKILLed between shards; the resumed run credits the
        # checkpointed shards, re-executes none of them, and lands on
        # the same (shots, failures) as an uninterrupted run.
        path = str(tmp_path / "adaptive.jsonl")
        spec = dict(
            distances=(5,), rounds=3, shots=512, master_seed=11,
            target_failures=50, max_shots=30000,
        )
        reference = run_sweep(SweepSpec(**spec), shard_shots=256)
        script = textwrap.dedent(f"""
            from repro.engine import SweepSpec, run_sweep
            print("READY", flush=True)
            spec = SweepSpec(**{spec!r})
            run_sweep(spec, results_path={path!r}, shard_shots=256)
            print("DONE", flush=True)
        """)
        proc = run_sweep_driver(script)
        try:
            # d=5 MWPM shards take tens of milliseconds each, slow
            # enough to observe; kill as soon as a few checkpoints are
            # on disk.
            assert wait_for_shard_lines(path, 2, timeout=120), \
                "driver wrote no shard checkpoints"
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert "DONE" not in (proc.stdout.read() or "")
        checkpointed = {
            index
            for index in ResultStore(path).load_shards(
                SweepSpec(**spec).expand()[0].key
            )
        }
        assert checkpointed  # the kill really landed mid-job
        backend = CountingSerialBackend()
        [resumed] = run_sweep(SweepSpec(**spec), results_path=path,
                              shard_shots=256, backend=backend)
        executed = {index for _key, index in backend.executed}
        assert not executed & checkpointed, (
            "resume re-executed checkpointed shards"
        )
        [ref] = reference
        assert (resumed.shots, resumed.failures) == (ref.shots, ref.failures)
        # Completed job: its checkpoints are compacted away, and a
        # further run resumes wholesale from the final record.
        assert count_shard_lines(path) == 0
        [third] = run_sweep(SweepSpec(**spec), results_path=path,
                            shard_shots=256)
        assert third.resumed

    def test_sigkilled_driver_leaves_no_local_worker(self, tmp_path):
        # A SIGKILLed driver cannot close its local pool, so the
        # workers must notice by themselves: each one's socket peer
        # lives only in the driver, so they see EOF and exit.
        path = str(tmp_path / "orphans.jsonl")
        script = textwrap.dedent(f"""
            from repro.engine import MultiprocessBackend, SweepSpec, run_sweep
            backend = MultiprocessBackend(2)
            backend._ensure_workers()
            print("READY", flush=True)
            print(*(proc.pid for proc in backend._procs), flush=True)
            spec = SweepSpec(distances=(3,), rounds=2, shots=2_000_000)
            run_sweep(spec, backend=backend, results_path={path!r},
                      shard_shots=256)
        """)
        proc = run_sweep_driver(script)
        workers: list[int] = []
        try:
            workers = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(workers) == 2
            assert wait_for_shard_lines(path, 4, timeout=120), \
                "driver wrote no shard checkpoints"
            assert all(process_running(pid) for pid in workers)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while (any(process_running(pid) for pid in workers)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            survivors = [pid for pid in workers if process_running(pid)]
            assert not survivors, (
                f"local worker(s) {survivors} outlived their SIGKILLed driver"
            )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass  # exited (and reaped) as it should

    def test_sigkilled_fixed_shot_driver_resumes_mid_job(self, tmp_path):
        path = str(tmp_path / "fixed.jsonl")
        spec = dict(distances=(5,), rounds=3, shots=4096, master_seed=5)
        script = textwrap.dedent(f"""
            from repro.engine import SweepSpec, run_sweep
            print("READY", flush=True)
            spec = SweepSpec(**{spec!r})
            run_sweep(spec, results_path={path!r}, shard_shots=256)
            print("DONE", flush=True)
        """)
        proc = run_sweep_driver(script)
        try:
            assert wait_for_shard_lines(path, 2, timeout=120)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        job_key = SweepSpec(**spec).expand()[0].key
        checkpointed = set(ResultStore(path).load_shards(job_key))
        assert checkpointed
        backend = CountingSerialBackend()
        [resumed] = run_sweep(SweepSpec(**spec), results_path=path,
                              shard_shots=256, backend=backend)
        executed = {index for _key, index in backend.executed}
        assert not executed & checkpointed
        # All 16 shards accounted for exactly once across both runs.
        assert len(executed | checkpointed) == 16
        assert resumed.shots == 4096
        # Bit-identity with a run that never died.
        [reference] = run_sweep(SweepSpec(**spec), shard_shots=256)
        assert resumed.failures == reference.failures
