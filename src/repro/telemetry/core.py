"""Core telemetry registry: counters, gauges, histograms and spans.

One :class:`Telemetry` instance is a per-process registry.  The module
keeps a global *active* instance (off by default) that the engine's
instrumentation points talk to via :func:`get` / :func:`span`, so
enabling observability is one :func:`configure` call and never requires
threading a handle through every layer.

Span semantics
--------------
``span(name)`` opens a timed region.  Spans nest (one stack tracks
the open chain) and each span aggregates its **exclusive** time
— duration minus the time spent in child spans — into the registry's
per-name phase totals.  Exclusive attribution is the property that
makes phase totals *additive*: the *sum* of all phase totals recorded
inside an enclosing region equals that region's wall-clock time, so a
shard's phase dict answers "where did the time go" without double
counting.  The full (inclusive) extent is still kept for trace export,
where nesting is what the viewer renders.

The disabled path returns a shared no-op singleton — no object, dict or
list is allocated, which is what keeps always-on instrumentation free
on hot paths (asserted by the no-op allocation test and gated by the
overhead microbenchmark).
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left

# Upper bucket edges (seconds) for latency histograms: ~log-spaced from
# 1 ms to 1 min, the range a shot shard or a decode batch can occupy.
# A value equal to an edge counts into that edge's bucket (``le``
# semantics, like Prometheus); values above the last edge overflow into
# a final +Inf bucket.
DEFAULT_TIME_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """A monotonically increasing count (events, bytes, shards...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_jsonable(self) -> dict:
        return {"type": "counter", "name": self.name, "value": self.value}


class Gauge:
    """A point-in-time value (in-flight shards, pool size...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def to_jsonable(self) -> dict:
        return {"type": "gauge", "name": self.name, "value": self.value}


class Histogram:
    """Fixed-bucket histogram with ``le`` (value <= edge) semantics.

    ``buckets`` are strictly increasing upper edges; observations above
    the last edge land in an implicit +Inf overflow bucket, so
    ``sum(counts) == count`` always holds.
    """

    __slots__ = ("name", "buckets", "counts", "total", "count")

    def __init__(self, name: str, buckets=DEFAULT_TIME_BUCKETS):
        edges = tuple(float(b) for b in buckets)
        if not edges or any(b <= a for b, a in zip(edges[1:], edges)):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)  # final slot = +Inf overflow
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_jsonable(self) -> dict:
        return {
            "type": "histogram",
            "name": self.name,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
        }


class _NullSpan:
    """Shared no-op span for disabled telemetry: nothing is recorded
    and nothing is allocated — every disabled ``span()`` call returns
    this one instance."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """One open timed region (enabled path).

    Tracks the time its own children consume so that, on exit, only the
    *exclusive* remainder is aggregated under this span's name — and
    the full inclusive duration is handed to the trace buffer.
    """

    __slots__ = ("_tel", "name", "attrs", "t0", "child_s")

    def __init__(self, tel: "Telemetry", name: str, attrs):
        self._tel = tel
        self.name = name
        self.attrs = attrs
        self.t0 = 0.0
        self.child_s = 0.0

    def __enter__(self):
        self._tel._stack.append(self)
        self.t0 = self._tel.clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        dur = self._tel.clock() - self.t0
        stack = self._tel._stack
        stack.pop()
        if stack:
            stack[-1].child_s += dur
        self._tel._record_span(self, dur)
        return False


class Telemetry:
    """Per-process metrics/tracing registry.

    ``enabled`` gates everything; ``trace`` additionally buffers span
    *events* (inclusive extents with timestamps) for Chrome-trace
    export — aggregates alone are much cheaper and are all the live
    status view needs.  ``clock`` is injectable for deterministic
    tests; it must be monotonic.

    Single-threaded by design: the driver records from one thread and
    every worker process runs one shard at a time, so one span stack
    and one set of phase totals serve the whole process.
    Cross-process aggregation happens at the message layer — workers
    ship per-shard phase *deltas* back to the driver, never raw
    registries.
    """

    def __init__(
        self,
        enabled: bool = False,
        trace: bool = False,
        max_events: int = 1_000_000,
        clock=time.perf_counter,
    ):
        self.enabled = enabled
        self.trace = trace
        self.max_events = max_events
        self.clock = clock
        self.t0 = clock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        # name -> [count, exclusive seconds]
        self._phases: dict[str, list] = {}
        # (ts, dur, name, lane, attrs) — inclusive span extents,
        # seconds relative to t0; bounded by max_events.
        self._events: list[tuple] = []
        self._dropped_events = 0
        self._stack: list[_Span] = []  # the open span chain

    # -- spans ----------------------------------------------------------
    def span(self, name: str, **attrs):
        """A timed region; records on ``__exit__``.  Returns the shared
        no-op singleton when disabled (nothing allocated, nothing
        recorded)."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, attrs or None)

    def _record_span(self, span: _Span, dur: float) -> None:
        exclusive = dur - span.child_s
        entry = self._phases.get(span.name)
        if entry is None:
            self._phases[span.name] = [1, exclusive]
        else:
            entry[0] += 1
            entry[1] += exclusive
        if self.trace:
            self.add_event(
                span.name, span.t0 - self.t0, dur, lane="driver",
                attrs=span.attrs,
            )

    def add_event(self, name, ts, dur, lane="driver", attrs=None) -> None:
        """Record one inclusive span extent for trace export.

        ``ts`` is seconds relative to the registry's epoch (``t0``);
        the driver uses this to *synthesize* worker-lane shard events
        from the phase dicts that pool workers ship back with each
        outcome.  Silently drops past ``max_events`` (counted), so a
        huge sweep cannot grow the buffer without bound.
        """
        if not (self.enabled and self.trace):
            return
        if len(self._events) >= self.max_events:
            self._dropped_events += 1
            return
        self._events.append((float(ts), float(dur), name, lane, attrs))

    def now(self) -> float:
        """Seconds since this registry's epoch (the trace timebase)."""
        return self.clock() - self.t0

    # -- metrics --------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str, buckets=None) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                name, buckets if buckets is not None else DEFAULT_TIME_BUCKETS
            )
        return histogram

    # -- phase aggregates ----------------------------------------------
    def phase_totals(self) -> dict[str, float]:
        """Exclusive seconds per span name (additive across phases)."""
        return {name: entry[1] for name, entry in self._phases.items()}

    def phase_counts(self) -> dict[str, int]:
        return {name: entry[0] for name, entry in self._phases.items()}

    def phase_snapshot(self) -> dict[str, float]:
        """A copy of the phase totals, for delta attribution: snapshot
        before a unit of work, diff after, and the result is that
        unit's own per-phase time — the pattern ``sample_shard`` uses
        to give every shard outcome its phase dict."""
        return self.phase_totals()

    def phase_delta(self, snapshot: dict[str, float]) -> dict[str, float]:
        """Per-phase seconds accrued since ``snapshot`` (positive
        only)."""
        delta = {}
        for name, entry in self._phases.items():
            d = entry[1] - snapshot.get(name, 0.0)
            if d > 0.0:
                delta[name] = d
        return delta

    # -- export ---------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """All aggregates as one JSON-safe dict (no span events)."""
        return {
            "counters": {c.name: c.value for c in self._counters.values()},
            "gauges": {g.name: g.value for g in self._gauges.values()},
            "histograms": {
                h.name: h.to_jsonable() for h in self._histograms.values()
            },
            "phases": {
                name: {"count": entry[0], "self_s": entry[1]}
                for name, entry in self._phases.items()
            },
        }

    def events(self) -> list[tuple]:
        """The buffered span extents ``(ts, dur, name, lane, attrs)``."""
        return list(self._events)

    def export_jsonl(self, path_or_stream) -> int:
        """Write every metric, phase aggregate and span event as JSON
        lines; returns the number of lines written.

        The sink is self-describing (each line carries a ``type``) so
        downstream tooling can filter without a schema: ``counter`` /
        ``gauge`` / ``histogram`` / ``phase`` / ``span``.
        """
        lines = []
        for group in (self._counters, self._gauges, self._histograms):
            for metric in group.values():
                lines.append(metric.to_jsonable())
        for name, entry in sorted(self._phases.items()):
            lines.append({
                "type": "phase", "name": name,
                "count": entry[0], "self_s": entry[1],
            })
        for ts, dur, name, lane, attrs in self._events:
            event = {
                "type": "span", "name": name, "ts_s": ts, "dur_s": dur,
                "lane": lane,
            }
            if attrs:
                event["attrs"] = attrs
            lines.append(event)
        if self._dropped_events:
            lines.append({
                "type": "dropped_events", "count": self._dropped_events,
            })
        if hasattr(path_or_stream, "write"):
            for line in lines:
                path_or_stream.write(json.dumps(line) + "\n")
        else:
            with open(path_or_stream, "w") as fh:
                for line in lines:
                    fh.write(json.dumps(line) + "\n")
        return len(lines)

    def reset(self) -> None:
        """Drop every aggregate and event (the enable flags persist)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._phases.clear()
        self._events.clear()
        self._dropped_events = 0
        self.t0 = self.clock()


# ----------------------------------------------------------------------
# Module-level active registry (off by default)
# ----------------------------------------------------------------------
_active = Telemetry(enabled=False)


def get() -> Telemetry:
    """The process's active registry (disabled unless configured)."""
    return _active


def set_active(telemetry: Telemetry) -> Telemetry:
    """Swap the active registry (tests install scoped instances)."""
    global _active
    _active = telemetry
    return _active


def configure(
    enabled: bool | None = None,
    trace: bool | None = None,
    max_events: int | None = None,
) -> Telemetry:
    """Reconfigure the active registry in place and return it.

    In-place (rather than replacing the instance) so code that grabbed
    the registry earlier — a runner mid-sweep, a worker loop — observes
    the change immediately.
    """
    if enabled is not None:
        _active.enabled = enabled
    if trace is not None:
        _active.trace = trace
    if max_events is not None:
        _active.max_events = max_events
    return _active


def span(name: str, **attrs):
    """``get().span(...)`` shorthand for instrumentation points."""
    if not _active.enabled:
        return NULL_SPAN
    return _Span(_active, name, attrs or None)
