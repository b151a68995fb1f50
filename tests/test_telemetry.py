"""Telemetry tests: span attribution, metrics, Chrome-trace export,
and the engine's observability integration.

Covers the invariants the observability layer is built on:

- **exclusive span attribution** — with a fake clock, nested spans
  attribute exactly their own (non-child) time, so phase totals are
  additive and sum to enclosing wall clock;
- **no-op path** — a disabled registry hands out one shared singleton
  span and allocates nothing, so always-on instrumentation points are
  free;
- **histogram edges** — ``le`` bucket semantics with an +Inf overflow
  slot;
- **Chrome trace round-trip** — exported traces are valid JSON with
  monotonic per-lane timestamps and named worker lanes, and the
  validator actually rejects broken traces;
- **engine integration** — pool backends ship per-shard phase dicts
  in their fixed-shape replies (gated on the driver's own telemetry
  switch), pool health aggregates per-worker
  stats, worker death warns through ``logging``, and a telemetry-on
  sweep produces bit-identical failure counts to a telemetry-off one.
"""

import io
import json
import logging
import tracemalloc

import pytest

from repro import telemetry
from repro.engine import CompilationCache, ResultStore, SweepSpec, run_sweep
from repro.engine.progress import (
    ProgressReporter,
    format_phase_share,
    format_pool_health,
)
from repro.engine.results import ShardRecord
from repro.engine.runner import PHASE_ORDER, ordered_phases
from repro.telemetry import (
    DEFAULT_TIME_BUCKETS,
    Histogram,
    Telemetry,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.core import NULL_SPAN

from fault_helpers import StubPoolBackend


class FakeClock:
    """Deterministic injectable clock for span tests."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


@pytest.fixture
def scoped_registry():
    """Restore the process's active registry after a test swaps it."""
    previous = telemetry.get()
    yield
    telemetry.set_active(previous)


def small_spec(**overrides):
    base = dict(distances=(2,), shots=256, rounds=2, master_seed=7)
    base.update(overrides)
    return SweepSpec(**base)


# ----------------------------------------------------------------------
# Spans and phase attribution
# ----------------------------------------------------------------------
class TestSpans:
    def test_exclusive_attribution_nested(self):
        clock = FakeClock()
        tel = Telemetry(enabled=True, clock=clock)
        with tel.span("outer"):
            clock.advance(2.0)
            with tel.span("inner"):
                clock.advance(3.0)
            clock.advance(1.0)
        totals = tel.phase_totals()
        assert totals["inner"] == pytest.approx(3.0)
        assert totals["outer"] == pytest.approx(3.0)  # 6.0 - 3.0 child
        # Additivity: exclusive times reconstruct the wall clock.
        assert sum(totals.values()) == pytest.approx(6.0)

    def test_three_level_nesting_and_counts(self):
        clock = FakeClock()
        tel = Telemetry(enabled=True, clock=clock)
        for _ in range(2):
            with tel.span("a"):
                clock.advance(1.0)
                with tel.span("b"):
                    clock.advance(1.0)
                    with tel.span("c"):
                        clock.advance(1.0)
        assert tel.phase_counts() == {"a": 2, "b": 2, "c": 2}
        assert tel.phase_totals() == pytest.approx(
            {"a": 2.0, "b": 2.0, "c": 2.0}
        )
        assert sum(tel.phase_totals().values()) == pytest.approx(6.0)

    def test_sibling_spans_attribute_to_parent_once(self):
        clock = FakeClock()
        tel = Telemetry(enabled=True, clock=clock)
        with tel.span("parent"):
            for _ in range(3):
                with tel.span("child"):
                    clock.advance(1.0)
            clock.advance(0.5)
        assert tel.phase_totals()["parent"] == pytest.approx(0.5)
        assert tel.phase_totals()["child"] == pytest.approx(3.0)

    def test_phase_delta_is_positive_only(self):
        clock = FakeClock()
        tel = Telemetry(enabled=True, clock=clock)
        with tel.span("a"):
            clock.advance(1.0)
        snapshot = tel.phase_snapshot()
        with tel.span("b"):
            clock.advance(2.0)
        delta = tel.phase_delta(snapshot)
        assert delta == pytest.approx({"b": 2.0})  # unchanged "a" omitted

    def test_disabled_span_is_shared_singleton(self):
        tel = Telemetry(enabled=False)
        assert tel.span("a") is tel.span("b") is NULL_SPAN
        with tel.span("a", attr=1):
            pass
        assert tel.phase_totals() == {}
        assert tel.events() == []

    def test_disabled_span_allocates_nothing(self):
        tel = Telemetry(enabled=False)

        def net_retained(iterations: int) -> int:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(iterations):
                with tel.span("hot"):
                    pass
            return tracemalloc.get_traced_memory()[0] - base

        tracemalloc.start()
        try:
            net_retained(1000)  # warm one-off interpreter caches
            net = net_retained(50_000)
        finally:
            tracemalloc.stop()
        # The measurement harness itself retains O(1) bytes (a boxed
        # int or two); what must not exist is *per-call* retention —
        # even one object per span would show up as megabytes here.
        assert net <= 64, f"disabled span path retained {net} bytes"

    def test_module_level_span_follows_active_registry(self, scoped_registry):
        clock = FakeClock()
        tel = telemetry.set_active(Telemetry(enabled=True, clock=clock))
        with telemetry.span("top"):
            clock.advance(1.0)
        assert tel.phase_totals() == pytest.approx({"top": 1.0})
        telemetry.configure(enabled=False)
        assert telemetry.span("off") is NULL_SPAN

    def test_span_attrs_reach_trace_events(self):
        clock = FakeClock()
        tel = Telemetry(enabled=True, trace=True, clock=clock)
        with tel.span("job", key="d5"):
            clock.advance(1.0)
        [(ts, dur, name, lane, attrs)] = tel.events()
        assert (ts, dur, name, lane) == (0.0, 1.0, "job", "driver")
        assert attrs == {"key": "d5"}

    def test_event_buffer_is_bounded(self):
        clock = FakeClock()
        tel = Telemetry(enabled=True, trace=True, max_events=2, clock=clock)
        for i in range(5):
            tel.add_event("e", float(i), 1.0)
        assert len(tel.events()) == 2
        stream = io.StringIO()
        tel.export_jsonl(stream)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert {"type": "dropped_events", "count": 3} in lines


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_registry_identity(self):
        tel = Telemetry(enabled=True)
        counter = tel.counter("shards")
        counter.inc()
        tel.counter("shards").inc(4)
        assert counter.value == 5
        tel.gauge("inflight").set(3.0)
        assert tel.gauge("inflight").value == 3.0

    def test_histogram_le_edges_and_overflow(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 4.0, 9.0):
            hist.observe(value)
        # le semantics: a value equal to an edge counts into that edge's
        # bucket; 9.0 overflows into the final +Inf slot.
        assert hist.counts == [2, 1, 1, 1]
        assert hist.count == 5 == sum(hist.counts)
        assert hist.mean == pytest.approx(16.0 / 5)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_default_buckets_strictly_increasing(self):
        assert list(DEFAULT_TIME_BUCKETS) == sorted(set(DEFAULT_TIME_BUCKETS))
        Histogram("ok")  # default edges must construct

    def test_metrics_snapshot_and_reset(self):
        clock = FakeClock()
        tel = Telemetry(enabled=True, clock=clock)
        tel.counter("c").inc(2)
        tel.histogram("h", buckets=(1.0,)).observe(0.5)
        with tel.span("p"):
            clock.advance(1.0)
        snapshot = tel.metrics_snapshot()
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["histograms"]["h"]["counts"] == [1, 0]
        assert snapshot["phases"]["p"] == {
            "count": 1, "self_s": pytest.approx(1.0),
        }
        tel.reset()
        assert tel.metrics_snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}, "phases": {},
        }

    def test_export_jsonl_is_self_describing(self, tmp_path):
        clock = FakeClock()
        tel = Telemetry(enabled=True, trace=True, clock=clock)
        tel.counter("shards_done").inc(3)
        tel.gauge("inflight").set(1.0)
        tel.histogram("elapsed").observe(0.1)
        with tel.span("decode"):
            clock.advance(1.0)
        path = tmp_path / "telemetry.jsonl"
        count = tel.export_jsonl(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == count
        assert {line["type"] for line in lines} == {
            "counter", "gauge", "histogram", "phase", "span",
        }
        [phase] = [line for line in lines if line["type"] == "phase"]
        assert phase["name"] == "decode"
        assert phase["self_s"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def _traced_registry() -> Telemetry:
    """A registry with driver spans plus two synthesized worker lanes."""
    clock = FakeClock()
    tel = Telemetry(enabled=True, trace=True, clock=clock)
    with tel.span("compile"):
        clock.advance(1.0)
    # Worker-lane events the driver synthesizes from shipped phases.
    tel.add_event("shard", 1.0, 2.0, lane="127.0.0.1:9001")
    tel.add_event("decode", 1.0, 1.5, lane="127.0.0.1:9001")
    tel.add_event("shard", 0.5, 2.5, lane="mp:0")
    with tel.span("finalize"):
        clock.advance(0.5)
    return tel


class TestChromeTrace:
    def test_round_trip_valid_json_with_worker_lanes(self, tmp_path):
        tel = _traced_registry()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), tel)
        trace = json.loads(path.read_text())  # round-trips as JSON
        assert len(trace["traceEvents"]) == count
        assert validate_chrome_trace(trace) == []
        lanes = {
            event["args"]["name"]: event["tid"]
            for event in trace["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert lanes["driver"] == 0  # coordinating lane tops the view
        assert set(lanes) == {"driver", "127.0.0.1:9001", "mp:0"}

    def test_timestamps_monotonic_within_every_lane(self):
        trace = chrome_trace(_traced_registry())
        last: dict[int, int] = {}
        for event in trace["traceEvents"]:
            if event["ph"] != "X":
                continue
            assert event["ts"] >= last.get(event["tid"], 0)
            last[event["tid"]] = event["ts"]

    def test_exit_order_buffering_still_sorts_monotonic(self):
        # Nested spans buffer at exit (children first); the exporter
        # must still emit parent-before-child within the lane.
        clock = FakeClock()
        tel = Telemetry(enabled=True, trace=True, clock=clock)
        with tel.span("parent"):
            clock.advance(0.5)
            with tel.span("child"):
                clock.advance(1.0)
        assert [e[2] for e in tel.events()] == ["child", "parent"]
        assert validate_chrome_trace(chrome_trace(tel)) == []

    def test_validator_rejects_broken_traces(self):
        trace = chrome_trace(_traced_registry())
        assert validate_chrome_trace({"traceEvents": "nope"})
        missing_lane = json.loads(json.dumps(trace))
        missing_lane["traceEvents"] = [
            e for e in missing_lane["traceEvents"]
            if not (e["ph"] == "M" and e["name"] == "thread_name")
        ]
        assert any(
            "thread_name" in p for p in validate_chrome_trace(missing_lane)
        )
        bad_ts = json.loads(json.dumps(trace))
        for event in bad_ts["traceEvents"]:
            if event["ph"] == "X":
                event["ts"] = -1
                break
        assert any("non-negative" in p for p in validate_chrome_trace(bad_ts))

    def test_cli_validator(self, tmp_path, capsys):
        from repro.telemetry.trace import main

        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), _traced_registry())
        assert main(["--validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out
        path.write_text(json.dumps({"traceEvents": [{"ph": "Z"}]}))
        assert main(["--validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_deterministic_given_same_events(self):
        assert chrome_trace(_traced_registry()) == chrome_trace(
            _traced_registry()
        )


# ----------------------------------------------------------------------
# Engine integration: pool protocol, pool health, warnings, determinism
# ----------------------------------------------------------------------
class TestPoolTelemetryProtocol:
    def test_config_sent_once_per_worker_and_phases_flow(
        self, scoped_registry
    ):
        telemetry.set_active(Telemetry(enabled=True))
        backend = StubPoolBackend(workers=2)
        [result] = run_sweep(small_spec(), backend=backend, shard_shots=64)
        configs = [m for _, m in backend.sent if m[0] == "config"]
        workers_used = {w for w, m in backend.sent if m[0] == "shard"}
        assert configs == [("config", {"telemetry": True})] * len(workers_used)
        # Shard phases came back in the shard replies and were folded
        # into the job record.
        phases = result.extras["phases"]
        assert set(phases) <= set(PHASE_ORDER)
        assert {"sample", "decode", "other"} <= set(phases)
        assert list(phases) == ordered_phases(phases)
        health = backend.pool_health()
        assert set(health["workers"]) == {
            f"stub:{w}" for w in workers_used
        }
        assert sum(
            stats["shards"] for stats in health["workers"].values()
        ) == 4  # 256 shots / 64
        assert health["crashes"] == 0

    def test_no_config_and_no_phases_when_telemetry_off(
        self, scoped_registry, tmp_path
    ):
        telemetry.set_active(Telemetry(enabled=False))
        backend = StubPoolBackend(workers=2)
        store = ResultStore(str(tmp_path / "results.jsonl"))
        [result] = run_sweep(
            small_spec(), backend=backend, shard_shots=64, store=store
        )
        assert not any(m[0] == "config" for _, m in backend.sent)
        assert "phases" not in result.extras
        assert not any(
            '"phases"' in line
            for line in (tmp_path / "results.jsonl").read_text().splitlines()
        )

    def test_telemetry_on_off_failure_counts_bit_identical(
        self, scoped_registry
    ):
        telemetry.set_active(Telemetry(enabled=False))
        [off] = run_sweep(small_spec(), backend=StubPoolBackend(),
                          shard_shots=64)
        telemetry.set_active(Telemetry(enabled=True, trace=True))
        [on] = run_sweep(small_spec(), backend=StubPoolBackend(),
                         shard_shots=64)
        assert (on.shots, on.failures) == (off.shots, off.failures)

    def test_stale_enabled_worker_phases_dropped_when_driver_off(
        self, scoped_registry
    ):
        # A serve-forever worker left telemetry-enabled by an earlier
        # driver may append phases; a telemetry-off driver must drop
        # them rather than leak them into its outcomes.
        telemetry.set_active(Telemetry(enabled=False))
        backend = StubPoolBackend(workers=1)
        backend._dispatch[0] = (0, "job", 64, 0.0)
        backend._load = [1]
        outcome = backend._handle(
            ("ok", 0, 3, 0.5, 0, (1, 2, 3), {"sample": 0.4})
        )
        assert outcome.phases is None
        assert outcome.worker == "stub:0"

    def test_worker_death_logs_structured_warning(self, caplog):
        backend = StubPoolBackend(workers=2)
        backend._dispatch[7] = (0, "job-a", 64, 0.0)
        backend._dispatch[8] = (1, "job-b", 64, 0.0)
        backend._load = [1, 1]
        with caplog.at_level(logging.WARNING, logger="repro.engine.pool"):
            backend._forget_worker(0)
        assert backend.take_lost() == [7]
        [record] = caplog.records
        assert "stub:0" in record.getMessage()
        assert "seqs: [7]" in record.getMessage()
        health = backend.pool_health()
        assert health["crashes"] == 1
        assert health["resubmitted_shards"] == 1

    def test_scheduler_resubmission_logs_warning(self, caplog):
        from fault_helpers import FlakyBackend

        backend = FlakyBackend(workers=2, drop_worker=1, drop_after=1)
        with caplog.at_level(
            logging.WARNING, logger="repro.engine.scheduler"
        ):
            [result] = run_sweep(
                small_spec(), backend=backend, shard_shots=64
            )
        assert result.failures is not None
        assert any(
            "lost to a dead worker" in record.getMessage()
            for record in caplog.records
        )


# ----------------------------------------------------------------------
# Persistence and reporting surfaces
# ----------------------------------------------------------------------
class TestPersistenceAndReporting:
    def test_shard_record_phases_round_trip(self):
        record = ShardRecord(
            job_key="k", shard_index=3, shots=64, failures=2,
            elapsed_s=0.25, run_config={"master_seed": 7},
            phases={"sample": 0.1, "decode": 0.12},
        )
        clone = ShardRecord.from_jsonable(
            json.loads(json.dumps(record.to_jsonable()))
        )
        assert clone == record

    def test_shard_record_without_phases_stays_compact(self):
        record = ShardRecord(
            job_key="k", shard_index=0, shots=64, failures=0,
            elapsed_s=0.1, run_config={},
        )
        body = record.to_jsonable()
        assert "phases" not in json.dumps(body)
        assert ShardRecord.from_jsonable(body).phases is None

    def test_ordered_phases_pipeline_order(self):
        phases = {"decode": 1.0, "sample": 2.0, "zeta": 0.1, "compile": 3.0}
        assert ordered_phases(phases) == [
            "compile", "sample", "decode", "zeta",
        ]

    def test_finish_reports_setup_and_phase_share(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream)
        reporter.start(1)
        reporter.finish(
            setup_s=1.5, phase_s={"decode": 3.0, "sample": 1.0},
        )
        out = stream.getvalue()
        assert "setup: 1.5s" in out
        assert "phases: decode 75% (3.00s), sample 25% (1.00s)" in out

    def test_status_line_with_pool_and_straggler(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream)
        reporter.start(2)
        reporter.status({
            "shards_done": 5,
            "memo": {"hits": 3, "misses": 1, "hit_rate": 0.75},
            "phase_s": {"decode": 1.0},
            "pool": {
                "workers": {
                    "mp:0": {"shards": 4, "busy_s": 2.0, "inflight": 1},
                    "mp:1": {"shards": 1, "busy_s": 0.5},
                },
                "crashes": 1,
                "resubmitted_shards": 2,
            },
        })
        out = stream.getvalue()
        assert "5 shard(s)" in out
        assert "memo hit rate 75.0%" in out
        assert "mp:0 4 shard(s) busy 2.0s +1 inflight" in out
        assert "mp:1 1 shard(s) busy 0.5s [straggler]" in out
        assert "1 crash(es), 2 shard(s) resubmitted" in out

    def test_format_phase_share_empty(self):
        assert format_phase_share({}) == "(no phase data)"
        assert format_pool_health({"workers": {}}) == "(none)"

    def test_serial_sweep_populates_driver_trace(self, scoped_registry):
        tel = telemetry.set_active(Telemetry(enabled=True, trace=True))
        run_sweep(small_spec(), shard_shots=64)
        trace = chrome_trace(tel)
        assert validate_chrome_trace(trace) == []
        names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        # Driver-side compile span plus the in-process shard pipeline.
        assert {"compile", "shard", "sample", "decode"} <= names
        assert tel.counter("shards_done").value == 4
        assert tel.counter("shots_done").value == 256
