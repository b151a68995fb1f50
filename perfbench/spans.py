"""In-memory span recorder that wraps the program's layer entry points
at run time, from the benchmark's side of the API.

Every span is ``(name, start, end, parent)``: ``parent`` indexes the
span that was open when it started, so a layer's *self* time is its
duration minus the time its direct children cover.  All spans of one
run share the recorder's ``run_id``.  Nothing is written until the run
ends (``to_jsonable``).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []        # [name, start, end, parent]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def _wrapped(self, fn, name: str, count):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = recorder.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(index)
            if count is not None:
                for key, value in count(result).items():
                    recorder.counts[key] += value
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` (module function, method or
        classmethod) with a version that records a ``name`` span and
        adds ``count(result)`` to the counters."""
        original = vars(owner).get(attr) or getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrapped(original.__func__, name, count))
        else:
            replacement = self._wrapped(original, name, count)
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds per span name, excluding time covered by child spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - covered[i]
        return dict(totals)

    def to_jsonable(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent,
                 "run_id": self.run_id}
                for name, start, end, parent in self.spans
            ],
            "counts": dict(self.counts),
        }


def instrument(recorder: Recorder) -> None:
    """Wrap each layer's public entry points that a serial sweep calls."""
    from repro.core import compiler as core_compiler
    from repro.core.routing_base import ROUTERS
    from repro.decoders.batch import BatchDecoderMixin
    from repro.decoders.graph import DetectorGraph
    from repro.engine import cache as engine_cache
    from repro.engine import runner as engine_runner
    from repro.sim.dem_sampler import DemSampler

    recorder.wrap(core_compiler.QccdCompiler, "compile", "core.compile")
    recorder.wrap(core_compiler, "build_gate_dag", "core.translate")
    recorder.wrap(core_compiler, "place", "core.place")
    for router in set(ROUTERS.values()):
        if "run" in vars(router):  # an inherited run is wrapped on its owner
            recorder.wrap(router, "run", "core.route",
                          count=lambda ops: {"core.ops": len(ops)})
    recorder.wrap(core_compiler, "schedule", "core.schedule")
    recorder.wrap(engine_runner, "program_to_circuit", "core.export")
    recorder.wrap(engine_cache, "circuit_to_dems", "sim.dem",
                  count=lambda dems: {"sim.dem_errors": dems[0].num_errors})
    recorder.wrap(DetectorGraph, "from_dem", "decoders.graph")
    recorder.wrap(DetectorGraph, "shortest_paths", "decoders.dijkstra")
    recorder.wrap(DemSampler, "sample_packed", "sim.sample")
    recorder.wrap(BatchDecoderMixin, "logical_failures_packed", "decoders.decode")
