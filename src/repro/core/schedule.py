"""Scheduling pass (Sec. 4.4).

The router's happens-before edges already encode every per-component
exclusivity (gates serialise within a trap, one ion per segment or
junction), so under the standard wiring an ASAP schedule along the
dependency DAG is optimal for the given operation order.

The WISE wiring adds a *global* constraint: the shared switch network
can drive only one kind of primitive at a time, so operations of
different types must not overlap anywhere on the device.  For that
case we run resource-constrained list scheduling with time-weighted
critical-path priority (the classic Graham/Hu policy the paper cites).
"""

from __future__ import annotations

import heapq

from ..arch.wiring import WiringMethod
from .ir import QccdOp


def critical_path_lengths(ops: list[QccdOp]) -> list[float]:
    """Longest path (in time) from each op to the end of the program."""
    cp = [0.0] * len(ops)
    dependents: list[list[int]] = [[] for _ in ops]
    for op in ops:
        for dep in op.deps:
            dependents[dep].append(op.id)
    for op in reversed(ops):
        tail = max((cp[d] for d in dependents[op.id]), default=0.0)
        cp[op.id] = op.duration + tail
    return cp


def schedule_asap(ops: list[QccdOp]) -> list[float]:
    """Start times from pure dependency-driven ASAP scheduling."""
    start = [0.0] * len(ops)
    end = [0.0] * len(ops)
    for op in ops:  # ops are emitted in topological order
        ready = 0.0
        for dep in op.deps:
            ready = max(ready, end[dep])
        start[op.id] = ready
        end[op.id] = ready + op.duration
    return start


def schedule_type_exclusive(ops: list[QccdOp]) -> list[float]:
    """List scheduling under WISE's one-primitive-type-at-a-time rule."""
    n = len(ops)
    cp = critical_path_lengths(ops)
    indegree = [len(op.deps) for op in ops]
    dependents: list[list[int]] = [[] for _ in ops]
    for op in ops:
        for dep in op.deps:
            dependents[dep].append(op.id)

    earliest = [0.0] * n        # dependency-imposed earliest start
    start = [0.0] * n
    ready: list[tuple[float, int]] = []  # (-critical path, id)
    for op in ops:
        if indegree[op.id] == 0:
            heapq.heappush(ready, (-cp[op.id], op.id))

    running: list[tuple[float, int]] = []  # (end time, id)
    running_kinds: dict[str, int] = {}
    now = 0.0
    done = 0
    deferred: list[tuple[float, int]] = []
    while done < n:
        # Start every ready op compatible with the current mode.
        while ready:
            neg_cp, oid = heapq.heappop(ready)
            op = ops[oid]
            if earliest[oid] > now or (
                running_kinds and op.kind not in running_kinds
            ):
                deferred.append((neg_cp, oid))
                continue
            start[oid] = now
            heapq.heappush(running, (now + op.duration, oid))
            running_kinds[op.kind] = running_kinds.get(op.kind, 0) + 1
        for item in deferred:
            heapq.heappush(ready, item)
        deferred = []

        if not running:
            # Nothing running: jump to the next dependency release.
            pending_times = [earliest[oid] for _, oid in ready]
            if not pending_times:
                raise RuntimeError("scheduler starved with pending operations")
            now = min(t for t in pending_times if t > now - 1e-12)
            continue

        end_time, oid = heapq.heappop(running)
        now = max(now, end_time)
        finished = [oid]
        while running and running[0][0] <= now + 1e-12:
            finished.append(heapq.heappop(running)[1])
        for fid in finished:
            op = ops[fid]
            running_kinds[op.kind] -= 1
            if running_kinds[op.kind] == 0:
                del running_kinds[op.kind]
            done += 1
            for dep_id in dependents[fid]:
                indegree[dep_id] -= 1
                earliest[dep_id] = max(earliest[dep_id], now)
                if indegree[dep_id] == 0:
                    heapq.heappush(ready, (-cp[dep_id], dep_id))
    return start


def schedule(ops: list[QccdOp], wiring: WiringMethod) -> list[float]:
    if wiring.type_exclusive:
        return schedule_type_exclusive(ops)
    return schedule_asap(ops)


def makespan(ops: list[QccdOp], start: list[float]) -> float:
    return max(
        (start[op.id] + op.duration for op in ops), default=0.0
    )
