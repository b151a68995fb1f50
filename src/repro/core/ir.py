"""Compiler intermediate representation.

Three levels (Figure 5):

1. :class:`LogicalGate` — the parity-check circuit as a *commutation-
   aware dependency DAG* over code qubits.  Edges exist only between
   gates that share a qubit and do not commute, so the router is free
   to reorder commuting checks (this freedom is a large part of the
   compiler's advantage over gate-list baselines).
2. :class:`QccdOp` — gates bound to traps plus movement primitives,
   with happens-before edges over ions and hardware components.
3. The scheduled program — :class:`QccdOp` plus start times, produced
   by the scheduler and wrapped in :class:`CompiledProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch.device import QCCDDevice

GATE_KINDS = ("CX", "H", "M", "R", "SWAP")
MOVEMENT_KINDS = ("SPLIT", "MERGE", "SHUTTLE", "JUNCTION_ENTRY", "JUNCTION_EXIT")


@dataclass
class LogicalGate:
    """One gate of the translated parity-check circuit."""

    id: int
    kind: str                 # 'CX' | 'H' | 'M' | 'R'
    qubits: tuple[int, ...]   # code-qubit ids; CX is (control, target)
    round: int                # -1 = state prep, rounds = final readout
    layer: int                # position within the round (priority)
    deps: list[int] = field(default_factory=list)

    @property
    def priority(self) -> tuple[int, int, int]:
        """Smaller sorts earlier: round, then layer, then id."""
        return (self.round, self.layer, self.id)


@dataclass
class QccdOp:
    """One scheduled hardware operation."""

    id: int
    kind: str                     # GATE_KINDS or MOVEMENT_KINDS entry
    ions: tuple[int, ...]         # code qubits riding the involved ions
    components: tuple[int, ...]   # device components occupied
    duration: float               # microseconds
    deps: tuple[int, ...]
    gate_id: int | None = None    # back-reference for gates
    round: int = 0

    @property
    def is_movement(self) -> bool:
        return self.kind in MOVEMENT_KINDS


@dataclass
class ProgramStats:
    """Metrics of a compiled program (Sec. 6.3)."""

    makespan_us: float
    rounds: int
    movement_ops: int          # t7-t11 primitives plus gate swaps
    movement_time_us: float    # sum of movement-op durations
    gate_swaps: int
    num_gates: int
    ops_by_kind: dict[str, int]

    @property
    def round_time_us(self) -> float:
        return self.makespan_us / max(self.rounds, 1)


@dataclass
class CompiledProgram:
    """The compiler's output: a timed QCCD instruction stream."""

    ops: list[QccdOp]
    start: list[float]
    rounds: int
    qubit_to_trap: dict[int, int]    # initial placement
    device: QCCDDevice               # the device the ops run on
    stats: ProgramStats
    router: str = "greedy"           # routing strategy that produced ops

    def end(self, op_id: int) -> float:
        return self.start[op_id] + self.ops[op_id].duration

    def ops_in_time_order(self) -> list[QccdOp]:
        return sorted(self.ops, key=lambda op: (self.start[op.id], op.id))
