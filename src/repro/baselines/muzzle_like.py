"""Muzzle-the-Shuttle-style baseline compiler (Saki et al., DATE 2022).

Reimplementation of the published strategy: a shuttle-count-minimising
compiler for **linear multi-trap** devices.

- placement follows the qubit line order (geometry-aware for linear
  chains, which is why it beats QCCDSim-like on repetition codes);
- gates are processed as a sequential list (no QEC structure);
- when a gate spans traps, the operand with the *smaller lookahead
  weight* (fewer remaining two-qubit gates) is shuttled — the paper's
  shuttle-direction heuristic;
- junction-rich topologies were outside the original tool's scope; on
  grids the greedy strategy frequently deadlocks, which we surface as
  :class:`BaselineFailure` — the NaN entries of Table 3.
"""

from __future__ import annotations

from ..arch.timing import DEFAULT_TIMES, OperationTimes
from ..codes.base import StabilizerCode
from ..core.compiler import compute_stats
from ..core.ir import CompiledProgram, LogicalGate
from ..core.place import Placement, build_device_for, layout_positions
from ..core.schedule import schedule_asap
from ..core.translate import build_gate_dag
from .qccdsim_like import BaselineFailure, _GreedyRouter, _sequentialise


class _MuzzleRouter(_GreedyRouter):
    """Greedy router with Muzzle's lookahead mover selection."""

    def _mover_and_destination(self, gate: LogicalGate):
        a, b = gate.qubits
        if self._lookahead_weight(a) <= self._lookahead_weight(b):
            return a, self.location[b]
        return b, self.location[a]

    def _lookahead_weight(self, qubit: int) -> int:
        pending = 0
        for gid in self._qubit_gates[qubit]:
            if gid not in self._sequenced and self.gates[gid].kind == "CX":
                pending += 1
        return pending


def _line_order_placement(
    code: StabilizerCode, capacity: int, topology: str
) -> Placement:
    device, clusters = build_device_for(code, capacity, topology)
    del clusters
    pos = layout_positions(code)
    ordered = sorted(
        (q.index for q in code.qubits), key=lambda q: (pos[q][1], pos[q][0])
    )
    traps = device.traps
    per_trap = capacity - 1
    qubit_to_trap: dict[int, int] = {}
    trap_chains: dict[int, list[int]] = {t.id: [] for t in traps}
    trap_idx = 0
    for qubit in ordered:
        while len(trap_chains[traps[trap_idx].id]) >= per_trap:
            trap_idx += 1
            if trap_idx >= len(traps):
                raise BaselineFailure("device too small for line-order fill")
        trap_id = traps[trap_idx].id
        trap_chains[trap_id].append(qubit)
        qubit_to_trap[qubit] = trap_id
    return Placement(device, qubit_to_trap, trap_chains)


def compile_muzzle_like(
    code: StabilizerCode,
    trap_capacity: int = 2,
    topology: str = "linear",
    rounds: int = 5,
    basis: str = "Z",
    times: OperationTimes = DEFAULT_TIMES,
) -> CompiledProgram:
    """Compile with the Muzzle-like strategy; raises BaselineFailure."""
    gates = _sequentialise(build_gate_dag(code, rounds, basis))
    placement = _line_order_placement(code, trap_capacity, topology)
    router = _MuzzleRouter(code, placement, gates, times)
    ops = router.run()
    start = schedule_asap(ops)
    stats = compute_stats(ops, start, rounds)
    return CompiledProgram(
        ops=ops,
        start=start,
        rounds=rounds,
        qubit_to_trap=dict(placement.qubit_to_trap),
        device=placement.device,
        stats=stats,
    )
