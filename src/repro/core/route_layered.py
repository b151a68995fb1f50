"""The ``layered`` routing strategy: DAG-layer priority-queue routing.

Surface_Code_Routing-style: the commutation-aware gate DAG is bucketed
into *dependency layers* (a gate's layer is its longest dependency-path
depth), and the router resolves one layer at a time.  Within a layer
every gate is ready by construction, so the router drains a priority
queue of the layer's gates: local gates are sequenced immediately,
blocked gates get their movers batch-routed, and the fill invariant is
restored once per layer rather than once per pass — movement is
batched at layer granularity, which trades the greedy router's eager
prefetching for strictly layer-synchronous phases (the shape a
fixed-cadence control system schedules naturally).

All pathfinding, emission, invariant restoration and deadlock escapes
come from the shared substrate
(:class:`repro.core.routing_base.RoutingStrategy`).
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from .ir import QccdOp
from .routing_base import RoutingStrategy, register_router

__all__ = ["LayeredRouter"]


@register_router("layered")
class LayeredRouter(RoutingStrategy):
    """Layer-synchronous router over the gate DAG's depth buckets."""

    # A layer whose gates make no progress for this many consecutive
    # iterations is deadlocked even after forced unblocking.
    STALL_LIMIT = 25

    def _dag_layers(self) -> list[list[int]]:
        """Gate ids bucketed by longest dependency-path depth.

        Dependencies always reference earlier gate ids, so one forward
        sweep computes every depth; within a bucket gates keep priority
        order via the queue below.
        """
        depth: dict[int, int] = {}
        for gate in self.gates:
            depth[gate.id] = 1 + max(
                (depth[d] for d in gate.deps), default=-1
            )
        buckets: dict[int, list[int]] = defaultdict(list)
        for gate in self.gates:
            buckets[depth[gate.id]].append(gate.id)
        return [buckets[k] for k in sorted(buckets)]

    def _layer_movement(self, pending: set[int]) -> int:
        """Batch-route movers for this layer's blocked gates.

        Gates are drained from a priority queue (round, layer, id) and
        their movers routed with conservative occupancy reservation, so
        one batch never oversubscribes a trap, junction or segment.
        """
        queue: list[tuple[tuple[int, int, int], int]] = []
        location = self.location
        first, last = self._gate_first, self._gate_last
        for gid in pending:
            if gid not in self._ready:
                continue
            if location[first[gid]] != location[last[gid]]:
                heapq.heappush(queue, (self.gates[gid].priority, gid))
        alloc = self._occupancy()
        moved: set[int] = set()
        plans: list[tuple[int, list[int]]] = []
        while queue:
            _, gid = heapq.heappop(queue)
            gate = self.gates[gid]
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
        for layer in self._dag_layers():
            pending = set(layer)
            stall_guard = 0
            while not pending.issubset(self._sequenced):
                progressed = self._sequence_local_gates()
                progressed += self._layer_movement(pending)
                progressed += self._sequence_local_gates()
                # Restoring the fill invariant every pass (not just at
                # the layer barrier) drains congestion as it forms —
                # full traps along a corridor otherwise wall off the
                # layer's remaining movers on sparse topologies.
                progressed += self._restore_invariants()
                if progressed == 0:
                    # Escalation ladder: first drain full traps however
                    # far their escape (layer-batched movement can wall
                    # off a corridor with full traps whose every escape
                    # exceeds the routine restoration bound), then
                    # force-unblock the oldest blocked gate.
                    progressed += self._drain_overfull()
                if progressed == 0:
                    stall_guard += 1
                    if stall_guard > self.STALL_LIMIT or not self._force_unblock():
                        raise self._deadlock_error()
                else:
                    stall_guard = 0
            # Layer barrier: movement stays batched at layer
            # granularity, so the next layer starts from a legal
            # steady state.
            self._restore_invariants()
        self._final_restore()
        return self.ops
