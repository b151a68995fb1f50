"""QCCDSim-style baseline compiler (Murali et al., ASPLOS 2020).

Reimplementation of the *strategy* of the NISQ-era QCCDSim toolflow the
paper benchmarks against (Table 3):

- gates are kept as a **sequential list** (no commutation analysis — a
  general-purpose NISQ compiler cannot assume parity-check structure);
- initial placement is a round-robin fill of traps in qubit-index
  order, ignoring the code geometry;
- routing is **on demand**: when the next gate in program order spans
  two traps, the ancilla-side ion is shuttled along the statically
  shortest path, moving other ions out of the way only by displacing
  one resident when the destination trap is full;
- no capacity reservation or look-ahead, so compilation fails
  (``BaselineFailure``) when the greedy displacement cannot free the
  destination — exactly the NaN rows of Table 3.
"""

from __future__ import annotations

from ..arch.timing import DEFAULT_TIMES, OperationTimes
from ..codes.base import StabilizerCode
from ..core.compiler import compute_stats
from ..core.ir import CompiledProgram, LogicalGate
from ..core.place import Placement
from ..core.route import GreedyRouter
from ..core.schedule import schedule_asap
from ..core.translate import build_gate_dag


class BaselineFailure(RuntimeError):
    """The baseline compiler could not produce a legal schedule."""


def _sequentialise(gates: list[LogicalGate]) -> list[LogicalGate]:
    """Replace the commutation DAG with strict program order."""
    for i, gate in enumerate(gates):
        gate.deps = [i - 1] if i > 0 else []
    return gates


class _GreedyRouter(GreedyRouter):
    """The greedy router stripped of the paper compiler's optimisations."""

    DETOUR_TOLERANCE = float("inf")  # never waits; always takes a path

    def _restoration_path(self, ion, alloc):
        # No prefetching: surplus ions go to the nearest free slot.
        src = self.location[ion]
        return self._find_path_to_any(
            src,
            alloc,
            lambda t: alloc[t] < self.device.trap_capacity - 1 and t != src,
        )

    def _force_unblock(self):
        # The NISQ-era tools have no deadlock-recovery pass: a stuck
        # greedy route is a compilation failure (the NaN rows).
        return False

    def run(self):
        try:
            return super().run()
        except Exception as exc:  # deadlocks surface as failures (NaN)
            raise BaselineFailure(str(exc)) from exc


def _round_robin_placement(
    code: StabilizerCode, capacity: int, topology: str
) -> Placement:
    from ..core.place import build_device_for

    device, clusters = build_device_for(code, capacity, topology)
    del clusters  # geometry-aware clustering is exactly what we drop
    traps = device.traps
    per_trap = capacity - 1
    qubit_to_trap: dict[int, int] = {}
    trap_chains: dict[int, list[int]] = {t.id: [] for t in traps}
    trap_idx = 0
    for qubit in code.qubits:
        while len(trap_chains[traps[trap_idx].id]) >= per_trap:
            trap_idx += 1
            if trap_idx >= len(traps):
                raise BaselineFailure("device too small for round-robin fill")
        trap_id = traps[trap_idx].id
        trap_chains[trap_id].append(qubit.index)
        qubit_to_trap[qubit.index] = trap_id
    return Placement(device, qubit_to_trap, trap_chains)


def compile_qccdsim_like(
    code: StabilizerCode,
    trap_capacity: int = 2,
    topology: str = "linear",
    rounds: int = 5,
    basis: str = "Z",
    times: OperationTimes = DEFAULT_TIMES,
) -> CompiledProgram:
    """Compile with the QCCDSim-like strategy; raises BaselineFailure."""
    gates = _sequentialise(build_gate_dag(code, rounds, basis))
    placement = _round_robin_placement(code, trap_capacity, topology)
    router = _GreedyRouter(code, placement, gates, times)
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
