"""The ``greedy`` routing strategy (Sec. 4.3, Figure 7).

The paper's router, re-expressed on the shared substrate
(:class:`repro.core.routing_base.RoutingStrategy`).  It works in
passes; each pass:

1. sequences every ready gate whose qubits already share a trap;
2. plans shortest admissible paths for the ancillas of blocked gates,
   in gate-priority order, reserving occupancy along each path so the
   trap-capacity / junction-exclusivity / segment-exclusivity
   constraints hold no matter how the scheduler overlaps the pass;
3. emits the movement primitives (split / shuttle / junction entry and
   exit / merge, with in-trap gate swaps when the leaving ion is not at
   a chain end);
4. sequences the gates the movements enabled;
5. restores the fill invariant — every trap ends the pass at most
   ``capacity - 1`` full — by re-routing surplus ions *towards their
   next gate*, which doubles as prefetching and is where most of the
   compiler's movement savings come from.

Happens-before edges are tracked per ion and per hardware component,
so the schedule derived later can overlap everything that is physically
independent.

Only the pass structure and the priority-order movement policy live
here; pathfinding, emission and invariant restoration are substrate
machinery shared with every other strategy.
"""

from __future__ import annotations

from .ir import QccdOp
from .routing_base import RoutingError, RoutingStrategy, register_router

__all__ = ["GreedyRouter", "RoutingError"]


@register_router("greedy")
class GreedyRouter(RoutingStrategy):
    """Multi-pass greedy router: priority-ordered movement with
    conservative per-path occupancy reservation."""

    def _movement_phase(self) -> int:
        """Plan and emit one batch of ancilla movements (steps 2-7)."""
        alloc = self._occupancy()
        moved: set[int] = set()
        plans: list[tuple[int, list[int]]] = []
        for gate in self._blocked_gates():
            mover, dest = self._mover_and_destination(gate)
            if mover in moved:
                continue
            path = self._find_path(self.location[mover], dest, alloc)
            if path is None:
                continue
            alloc[self.location[mover]] -= 1
            for comp in path[1:]:
                alloc[comp] += 1
            plans.append((mover, path))
            moved.add(mover)
        for mover, path in plans:
            self._emit_hop(mover, path)
        return len(plans)

    def run(self) -> list[QccdOp]:
        stall_guard = 0
        while len(self._sequenced) < len(self.gates):
            progressed = 0
            progressed += self._sequence_local_gates()
            progressed += self._movement_phase()
            progressed += self._sequence_local_gates()
            progressed += self._restore_invariants()
            if progressed == 0:
                stall_guard += 1
                if stall_guard > 25 or not self._force_unblock():
                    # Last resort: drain full traps however far their
                    # escape; only a drain that moves nothing deadlocks.
                    if self._drain_overfull() == 0:
                        raise self._deadlock_error()
                    stall_guard = 0
            else:
                stall_guard = 0
        # Final cleanup restores the fill invariant unconditionally so
        # the program ends in a legal steady state.
        self._final_restore()
        return self.ops
