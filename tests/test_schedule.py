"""Scheduler tests: ASAP, critical path, WISE type exclusivity."""

import pytest

from repro.arch import STANDARD_WIRING, WISE_WIRING
from repro.codes import RepetitionCode, RotatedSurfaceCode
from repro.core import (
    build_gate_dag,
    compile_memory_experiment,
    critical_path_lengths,
    makespan,
    place,
    schedule,
    schedule_asap,
    schedule_type_exclusive,
)
from repro.core.ir import QccdOp


def _op(i, kind, dur, deps=()):
    return QccdOp(
        id=i, kind=kind, ions=(0,), components=(0,), duration=dur, deps=tuple(deps)
    )


class TestAsap:
    def test_chain(self):
        ops = [_op(0, "R", 10), _op(1, "CX", 20, [0]), _op(2, "M", 30, [1])]
        start = schedule_asap(ops)
        assert start == [0, 10, 30]
        assert makespan(ops, start) == 60

    def test_parallel_branches(self):
        ops = [
            _op(0, "R", 10),
            _op(1, "CX", 5, [0]),
            _op(2, "CX", 50, [0]),
            _op(3, "M", 10, [1, 2]),
        ]
        start = schedule_asap(ops)
        assert start[1] == start[2] == 10
        assert start[3] == 60

    def test_empty_program(self):
        assert makespan([], []) == 0


class TestCriticalPath:
    def test_longest_path(self):
        ops = [
            _op(0, "R", 10),
            _op(1, "CX", 5, [0]),
            _op(2, "CX", 50, [0]),
            _op(3, "M", 10, [1, 2]),
        ]
        cp = critical_path_lengths(ops)
        assert cp[3] == 10
        assert cp[2] == 60
        assert cp[1] == 15
        assert cp[0] == 70


class TestTypeExclusive:
    def test_different_kinds_serialise(self):
        # Two independent ops of different kinds may not overlap.
        ops = [_op(0, "SPLIT", 80), _op(1, "SHUTTLE", 5)]
        start = schedule_type_exclusive(ops)
        spans = sorted((start[i], start[i] + ops[i].duration) for i in range(2))
        assert spans[0][1] <= spans[1][0] + 1e-9

    def test_same_kind_overlaps(self):
        ops = [_op(0, "SPLIT", 80), _op(1, "SPLIT", 80)]
        start = schedule_type_exclusive(ops)
        assert start == [0, 0]

    def test_dependencies_respected(self):
        ops = [_op(0, "SPLIT", 80), _op(1, "MERGE", 80, [0])]
        start = schedule_type_exclusive(ops)
        assert start[1] >= 80

    def test_wise_never_faster_than_standard(self):
        code = RepetitionCode(3)
        gates = build_gate_dag(code, 2)
        placement = place(code, 2, "linear")
        from repro.arch import DEFAULT_TIMES
        from repro.core import GreedyRouter

        ops = GreedyRouter(code, placement, gates, DEFAULT_TIMES).run()
        asap = makespan(ops, schedule_asap(ops))
        wise = makespan(ops, schedule_type_exclusive(ops))
        assert wise >= asap

    def test_dispatch_by_wiring(self):
        ops = [_op(0, "SPLIT", 80), _op(1, "SHUTTLE", 5)]
        std = schedule(ops, STANDARD_WIRING)
        wise = schedule(ops, WISE_WIRING)
        assert std == [0, 0]
        assert wise != [0, 0]


class TestWiseSlowdown:
    def test_wise_slows_surface_code_rounds(self):
        """WISE's shared switch network costs integer-factor slowdowns."""
        code = RotatedSurfaceCode(2)
        std = compile_memory_experiment(
            code, trap_capacity=2, topology="grid", wiring=STANDARD_WIRING, rounds=2
        )
        wise = compile_memory_experiment(
            code, trap_capacity=2, topology="grid", wiring=WISE_WIRING, rounds=2
        )
        assert wise.stats.makespan_us > 2 * std.stats.makespan_us

    def test_wise_schedule_is_exclusive(self):
        """No two different op kinds overlap anywhere in the schedule."""
        code = RepetitionCode(3)
        program = compile_memory_experiment(
            code, trap_capacity=2, topology="linear", wiring=WISE_WIRING, rounds=1
        )
        events = []
        for op in program.ops:
            start = program.start[op.id]
            events.append((start, start + op.duration, op.kind))
        for i, (s1, e1, k1) in enumerate(events):
            for s2, e2, k2 in events[i + 1:]:
                overlap = min(e1, e2) - max(s1, s2)
                if overlap > 1e-9:
                    assert k1 == k2, (k1, k2, overlap)
