"""Text rendering of compiled schedules.

Debugging a QCCD schedule means answering "what was trap 7 doing at
t = 1200 us?" — these helpers render a compiled program as a per-ion
event log and as a component-occupancy timeline, entirely in plain
text so they work in any terminal or test log.
"""

from __future__ import annotations

from .ir import CompiledProgram, QccdOp


def _strategy_tag(program: CompiledProgram) -> str:
    """Header suffix naming the routing strategy that produced a program.

    Routing traces from different strategies are otherwise
    indistinguishable once rendered — the tag makes side-by-side
    comparisons self-describing.
    """
    return f" [router={program.router}]"


def format_ion_timeline(
    program: CompiledProgram, ion: int, limit: int = 50
) -> str:
    """Chronological event log of one ion (code qubit)."""
    events = [
        op for op in program.ops_in_time_order() if ion in op.ions
    ]
    lines = [f"ion {ion}: {len(events)} operations{_strategy_tag(program)}"]
    for op in events[:limit]:
        start = program.start[op.id]
        comps = ",".join(str(c) for c in op.components)
        partners = [q for q in op.ions if q != ion]
        partner = f" with {partners[0]}" if partners else ""
        lines.append(
            f"  t={start:9.1f}us  {op.kind:<15} @[{comps}]{partner}"
        )
    if len(events) > limit:
        lines.append(f"  ... {len(events) - limit} more")
    return "\n".join(lines)


def format_component_timeline(
    program: CompiledProgram, component: int, limit: int = 50
) -> str:
    """Chronological usage log of one hardware component."""
    events = [
        op
        for op in program.ops_in_time_order()
        if component in op.components
    ]
    lines = [
        f"component {component}: {len(events)} operations"
        f"{_strategy_tag(program)}"
    ]
    for op in events[:limit]:
        start = program.start[op.id]
        ions = ",".join(str(q) for q in op.ions)
        lines.append(f"  t={start:9.1f}us  {op.kind:<15} ions[{ions}]")
    if len(events) > limit:
        lines.append(f"  ... {len(events) - limit} more")
    return "\n".join(lines)


def utilisation_summary(program: CompiledProgram) -> dict[str, float]:
    """Aggregate where wall-clock time goes in a schedule.

    Returns the fraction of total op-time spent in gates, transport and
    gate swaps, plus the schedule's parallelism (total op-time over
    makespan).
    """
    gate_time = 0.0
    move_time = 0.0
    swap_time = 0.0
    for op in program.ops:
        if op.is_movement:
            move_time += op.duration
        elif op.kind == "SWAP":
            swap_time += op.duration
        else:
            gate_time += op.duration
    total = gate_time + move_time + swap_time
    makespan = program.stats.makespan_us
    return {
        "gate_fraction": gate_time / total if total else 0.0,
        "movement_fraction": move_time / total if total else 0.0,
        "swap_fraction": swap_time / total if total else 0.0,
        "parallelism": total / makespan if makespan else 0.0,
    }


def busiest_components(
    program: CompiledProgram, top: int = 5
) -> list[tuple[int, float]]:
    """Components ranked by total busy time (the congestion hotspots)."""
    busy: dict[int, float] = {}
    for op in program.ops:
        for comp in op.components:
            busy[comp] = busy.get(comp, 0.0) + op.duration
    ranked = sorted(busy.items(), key=lambda kv: -kv[1])
    return ranked[:top]


def schedule_gantt(
    program: CompiledProgram,
    components: list[int],
    t0: float = 0.0,
    t1: float | None = None,
    width: int = 78,
) -> str:
    """ASCII Gantt chart of selected components over [t0, t1).

    Each row is a component; each column a time bucket; the cell shows
    the first letter of the op kind occupying the component (``.`` for
    idle).
    """
    if t1 is None:
        t1 = program.stats.makespan_us
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    bucket = (t1 - t0) / width
    lines = [
        f"time {t0:.0f}..{t1:.0f}us, one column = {bucket:.1f}us"
        f"{_strategy_tag(program)}"
    ]
    for comp in components:
        row = ["."] * width
        for op in program.ops:
            if comp not in op.components:
                continue
            start = program.start[op.id]
            end = start + op.duration
            if end <= t0 or start >= t1:
                continue
            lo = max(int((start - t0) / bucket), 0)
            hi = min(int((end - t0) / bucket) + 1, width)
            for i in range(lo, hi):
                row[i] = op.kind[0]
        lines.append(f"{comp:>5} |{''.join(row)}|")
    return "\n".join(lines)
