"""Routing substrate and the routing-strategy registry.

The router monolith is split into a shared substrate and pluggable
strategies.  :class:`RoutingStrategy` owns everything every router
needs regardless of *policy*:

- occupancy / allocation tracking (trap chains, ion locations, per-
  component capacity admissibility);
- congestion-aware Dijkstra path search with static-distance detour
  bounds, run over flat per-component tables built once per router
  from :meth:`~repro.arch.device.QCCDDevice.adjacency` (see
  :meth:`RoutingStrategy._build_tables`).  A search for one
  destination trap stops as soon as its answer is fixed, and returns
  exactly what the exhaustive search would: a full destination can
  never be entered, so it fails at once; a step's cost depends only on
  the component entered and nodes pop in non-decreasing cost, so the
  first relaxation of the destination is final; and the detour test
  bounds a path's :meth:`~RoutingStrategy._path_cost`, whose terms are
  each at least the search's own, so once a popped cost plus the
  destination's step passes that bound, no path can pass the test;
- movement emission (split / shuttle / junction entry and exit / merge,
  with in-trap swaps to reach a chain end) under happens-before
  tracking per ion and per hardware component;
- gate-DAG bookkeeping (ready set, sequencing, per-qubit gate cursors
  for prefetch routing);
- the fill-invariant restoration pass and the deadlock-escape ladder.

A concrete strategy supplies only the *policy*: how movement is
batched and ordered each pass.  Today's strategies:

- ``greedy`` (:class:`repro.core.route.GreedyRouter`) — the paper's
  multi-pass priority-order router, unchanged;
- ``layered`` (:class:`repro.core.route_layered.LayeredRouter`) —
  gates bucketed into dependency layers, movement batched per layer
  through a priority queue (Surface_Code_Routing-style).

The registry is swept as a grid axis by the engine
(:class:`repro.engine.SweepSpec` ``routers``).  Placement has one
scheme, the paper's projection (:func:`repro.core.place.place`).
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from ..arch.components import ComponentKind
from ..arch.device import QCCDDevice
from ..arch.timing import OperationTimes
from ..codes.base import Role, StabilizerCode
from .ir import LogicalGate, QccdOp
from .place import Placement


_INF = float("inf")


def _trace(prev: dict[int, int], src: int, node: int) -> list[int]:
    """The search path from ``src`` to ``node``, read back through ``prev``."""
    path = [node]
    while node != src:
        node = prev[node]
        path.append(node)
    path.reverse()
    return path


class RoutingError(RuntimeError):
    """Raised when the router cannot make progress (deadlock)."""


# ----------------------------------------------------------------------
# Strategy registries
# ----------------------------------------------------------------------
ROUTERS: dict[str, type["RoutingStrategy"]] = {}


def register_router(name: str):
    """Class decorator adding a routing strategy to the registry."""

    def decorator(cls: type["RoutingStrategy"]) -> type["RoutingStrategy"]:
        cls.name = name
        ROUTERS[name] = cls
        return cls

    return decorator


def router_by_name(name: str) -> type["RoutingStrategy"]:
    try:
        return ROUTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown router {name!r}; expected one of {available_routers()}"
        ) from None


def available_routers() -> tuple[str, ...]:
    return tuple(sorted(ROUTERS))


class RoutingStrategy:
    """Shared substrate every routing strategy builds on.

    Subclasses implement :meth:`run` — the pass structure and movement
    policy — on top of the sequencing, pathfinding, emission and
    invariant-restoration machinery here.
    """

    name = "base"

    def __init__(
        self,
        code: StabilizerCode,
        placement: Placement,
        gates: list[LogicalGate],
        times: OperationTimes,
    ):
        self.code = code
        self.device: QCCDDevice = placement.device
        self.times = times
        self.gates = gates
        self.chains: dict[int, list[int]] = {
            t: list(c) for t, c in placement.trap_chains.items()
        }
        for trap in self.device.traps:
            self.chains.setdefault(trap.id, [])
        self.location: dict[int, int] = dict(placement.qubit_to_trap)
        self.home: dict[int, int] = dict(placement.qubit_to_trap)
        self._role = {q.index: q.role for q in code.qubits}

        self._build_tables()
        # src -> uncongested travel cost to every component, by id.
        self._static_dist_cache: dict[int, list[float]] = {}

        self.ops: list[QccdOp] = []
        self._last_ion: dict[int, int] = {}
        # Per-component op history, indexed by component id; an op
        # depends on the op ``self._window[comp]`` places back.
        self._comp_history: list[list[int]] = [[] for _ in self._window]

        # Gate DAG state.
        self._remaining = {g.id: len(g.deps) for g in gates}
        self._dependents: dict[int, list[int]] = defaultdict(list)
        for g in gates:
            for dep in g.deps:
                self._dependents[dep].append(g.id)
        self._ready: set[int] = {g.id for g in gates if not g.deps}
        # A gate's two endpoint qubits, by gate id (the same qubit twice
        # for a single-qubit gate): it is local when both sit in one trap.
        self._gate_first = [g.qubits[0] for g in gates]
        self._gate_last = [g.qubits[-1] for g in gates]
        self._sequenced: set[int] = set()
        # Per-qubit pending gates in priority order (for prefetch
        # routing), and each gate's rank in that order, by gate id:
        # priorities are unique, so sorting by rank sorts by priority.
        self._qubit_gates: dict[int, list[int]] = defaultdict(list)
        self._rank = [0] * len(gates)
        for rank, g in enumerate(sorted(gates, key=lambda g: g.priority)):
            self._rank[g.id] = rank
            for q in g.qubits:
                self._qubit_gates[q].append(g.id)
        self._qubit_cursor: dict[int, int] = defaultdict(int)

    def _build_tables(self) -> None:
        """Flatten the device into per-component lists, indexed by id.

        The search loops read only these, never the
        :class:`Component` objects.  Neighbours keep
        ``device.adjacency()`` order (edge-insertion order) and every
        cost is the same float expression the search always summed, so
        paths, and so programs, are byte-identical to a search over the
        device.
        """
        device = self.device
        times = self.times
        adjacency = device.adjacency()
        junction_cost = times.junction_entry + times.junction_exit
        self._neighbors: list[tuple[int, ...]] = []
        self._kind: list[ComponentKind] = []
        self._capacity: list[int] = []
        self._is_trap: list[bool] = []
        # Step cost of entering a component: ``_step`` as a search
        # destination (a trap costs a merge), ``_static_step`` passing
        # through (a trap costs a merge and a split out again).
        self._step: list[float] = []
        self._static_step: list[float] = []
        # Op-concurrency: 1 for traps (one laser interaction zone) and
        # segments, the junction capacity for junctions (the switch hub
        # is a non-blocking crossbar).
        self._window: list[int] = []
        for comp in device.components:
            self._neighbors.append(adjacency[comp.id])
            self._kind.append(comp.kind)
            self._capacity.append(comp.capacity)
            self._is_trap.append(comp.is_trap)
            if comp.is_segment:
                step = static = times.shuttle
            elif comp.is_junction:
                step = static = junction_cost
            else:
                step = times.merge
                static = times.merge + times.split
            self._step.append(step)
            self._static_step.append(static)
            self._window.append(max(1, comp.capacity) if comp.is_junction else 1)

    # ------------------------------------------------------------------
    # Strategy interface
    # ------------------------------------------------------------------
    def run(self) -> list[QccdOp]:
        """Sequence every gate; return the emitted op stream."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Emission with happens-before tracking
    # ------------------------------------------------------------------
    def _emit(
        self,
        kind: str,
        ions: tuple[int, ...],
        components: tuple[int, ...],
        duration: float,
        gate_id: int | None = None,
        round_idx: int = 0,
    ) -> int:
        last_ion = self._last_ion
        comp_history = self._comp_history
        deps = [last_ion[ion] for ion in ions if ion in last_ion]
        for comp in components:
            history = comp_history[comp]
            window = self._window[comp]
            if len(history) >= window:
                deps.append(history[-window])
        op_id = len(self.ops)
        self.ops.append(
            QccdOp(
                op_id,
                kind,
                ions,
                components,
                duration,
                tuple(sorted(set(deps))) if len(deps) > 1 else tuple(deps),
                gate_id,
                round_idx,
            )
        )
        for ion in ions:
            last_ion[ion] = op_id
        for comp in components:
            comp_history[comp].append(op_id)
        return op_id

    # ------------------------------------------------------------------
    # Gate DAG bookkeeping
    # ------------------------------------------------------------------
    def _mark_sequenced(self, gate_id: int) -> None:
        self._ready.discard(gate_id)
        self._sequenced.add(gate_id)
        for dep_id in self._dependents.get(gate_id, ()):
            self._remaining[dep_id] -= 1
            if self._remaining[dep_id] == 0:
                self._ready.add(dep_id)

    def _next_gate_of(self, qubit: int) -> LogicalGate | None:
        """The qubit's earliest pending gate (for prefetch routing)."""
        gates = self._qubit_gates[qubit]
        cursor = self._qubit_cursor[qubit]
        while cursor < len(gates) and gates[cursor] in self._sequenced:
            cursor += 1
        self._qubit_cursor[qubit] = cursor
        if cursor < len(gates):
            return self.gates[gates[cursor]]
        return None

    def _gate_partner_trap(self, qubit: int) -> int | None:
        """Trap of the partner of the qubit's next two-qubit gate."""
        gate = self._next_gate_of(qubit)
        if gate is None or gate.kind != "CX":
            return None
        partner = gate.qubits[0] if gate.qubits[1] == qubit else gate.qubits[1]
        return self.location[partner]

    # ------------------------------------------------------------------
    # Pass phases shared by every strategy
    # ------------------------------------------------------------------
    def _sequence_local_gates(self) -> int:
        """Emit all ready gates whose qubits share a trap (fixpoint)."""
        emitted = 0
        location = self.location
        first, last = self._gate_first, self._gate_last
        while True:
            runnable = [
                gid
                for gid in self._ready
                if location[first[gid]] == location[last[gid]]
            ]
            if not runnable:
                return emitted
            for gid in sorted(runnable, key=self._rank.__getitem__):
                gate = self.gates[gid]
                trap = self.location[gate.qubits[0]]
                self._emit(
                    gate.kind,
                    gate.qubits,
                    (trap,),
                    self.times.gate_duration(gate.kind),
                    gate_id=gid,
                    round_idx=gate.round,
                )
                self._mark_sequenced(gid)
                emitted += 1

    def _blocked_gates(self) -> list[LogicalGate]:
        location = self.location
        first, last = self._gate_first, self._gate_last
        blocked = [
            gid
            for gid in self._ready
            if location[first[gid]] != location[last[gid]]
        ]
        blocked.sort(key=self._rank.__getitem__)
        return [self.gates[gid] for gid in blocked]

    def _mover_and_destination(self, gate: LogicalGate) -> tuple[int, int]:
        """The ancilla moves to the data qubit's trap (Sec. 4.3)."""
        a, b = gate.qubits
        if self._role[a] is Role.ANCILLA:
            return a, self.location[b]
        if self._role[b] is Role.ANCILLA:
            return b, self.location[a]
        # Data-data gates do not occur in parity-check circuits, but route
        # the second operand for completeness.
        return b, self.location[a]

    def _restore_invariants(self) -> int:
        """Drain every trap back to at most capacity - 1 ions.

        Surplus ions are sent towards their next gate when possible
        (prefetching), otherwise to the nearest trap with a free
        resident slot.
        """
        emitted = 0
        alloc = self._occupancy()
        capacity = self.device.trap_capacity
        for trap_id in sorted(self.chains):
            # alloc tracks transit reservations conservatively; actual
            # occupancy is the chain itself (pass-through reservations
            # must not count as residents).
            while len(self.chains[trap_id]) > capacity - 1:
                ion = self._pick_surplus_ion(trap_id)
                path = self._restoration_path(ion, alloc)
                if path is None:
                    break  # let the outer loop detect true deadlocks
                alloc[trap_id] -= 1
                for comp in path[1:]:
                    alloc[comp] += 1
                self._emit_hop(ion, path)
                emitted += 1
        return emitted

    def _pick_surplus_ion(self, trap_id: int) -> int:
        """Prefer ancillas heading elsewhere, then visitors; keep data home.

        Data qubits are gate *hosts* (ancillas come to them), so evicting
        a resident data ion is always the worst choice; an ancilla with a
        pending remote CX is the best, since its eviction doubles as
        prefetch routing.
        """
        chain = self.chains[trap_id]

        def score(q: int):
            gate = self._next_gate_of(q)
            remote_cx = (
                gate is not None
                and gate.kind == "CX"
                and self._gate_partner_trap(q) != trap_id
            )
            is_ancilla = self._role[q] is Role.ANCILLA
            visitor = self.home[q] != trap_id
            # Tie-break towards chain ends to minimise swap insertion.
            end_distance = min(chain.index(q), len(chain) - 1 - chain.index(q))
            return (
                is_ancilla and remote_cx,
                visitor,
                is_ancilla,
                -end_distance,
            )

        return max(chain, key=score)

    def _restoration_path(self, ion: int, alloc: list[int]) -> list[int] | None:
        src = self.location[ion]
        capacity = self.device.trap_capacity
        # Best: prefetch towards the next gate's partner trap.
        preferred = self._gate_partner_trap(ion)
        if preferred is not None and preferred != src:
            path = self._find_path(src, preferred, alloc)
            if path is not None:
                return path
        # Second best: go home (usually empty and nearby).
        home = self.home[ion]
        if home != src and alloc[home] < capacity - 1:
            path = self._find_path(src, home, alloc)
            if path is not None:
                return path
        # Fallback: nearest trap with a free resident slot — but only if
        # it is genuinely nearby.  Long evictions scatter ions across the
        # device and couple distant regions; an over-full trap can simply
        # wait a pass instead (arrivals are blocked by its occupancy).
        path = self._find_path_to_any(
            src,
            alloc,
            lambda t: alloc[t] < capacity - 1 and t != src,
        )
        if (
            not self._strict_restore
            and path is not None
            and self._path_cost(path) > 2.2 * self._hop_cost()
        ):
            return None
        return path

    _strict_restore = False

    def _drain_overfull(self) -> int:
        """Fill-invariant restoration with the nearby-only bound lifted.

        Stall escalation, for every strategy: restricted per-pass
        movement (layered batches it per layer; greedy can stall once
        forced unblocking runs out) can let full traps accumulate until
        every escape exceeds the routine restoration bound, walling off
        a corridor.  Paying for distant evictions beats deadlocking.
        """
        self._strict_restore = True
        try:
            return self._restore_invariants()
        finally:
            self._strict_restore = False

    def _final_restore(self) -> None:
        """Unconditionally restore the fill invariant (end of program).

        Run with the nearby-only eviction bound lifted so the program
        ends in a legal steady state whatever the strategy left behind.
        """
        self._drain_overfull()

    def _hop_cost(self) -> float:
        """Cost of one nominal inter-trap hop on this device."""
        times = self.times
        if ComponentKind.JUNCTION in self._kind:
            return (
                times.split
                + 2 * times.shuttle
                + times.junction_entry
                + times.junction_exit
                + times.merge
            )
        return times.split + times.shuttle + times.merge

    # ------------------------------------------------------------------
    # Pathfinding
    # ------------------------------------------------------------------
    def _occupancy(self) -> list[int]:
        """Ions held by each component, indexed by component id."""
        alloc = [0] * len(self._step)
        for trap_id, chain in self.chains.items():
            alloc[trap_id] = len(chain)
        return alloc

    def _node_cost(self, comp_id: int, is_destination: bool) -> float:
        if is_destination or not self._is_trap[comp_id]:
            return self._step[comp_id]
        # Pass-through trap: merge + split, plus swaps past any residents.
        occupants = len(self.chains[comp_id])
        return self._static_step[comp_id] + occupants * self.times.swap

    def _find_path(
        self, src: int, dst: int, alloc: list[int]
    ) -> list[int] | None:
        """Shortest admissible path, unless waiting a pass is cheaper.

        When contention forces a detour much longer than the uncongested
        route, deferring to a later pass beats convoying through distant
        junctions — the key to distance-independent cycle times on the
        grid (Sec. 7.3).
        """
        if src == dst:
            return None
        bound = self.DETOUR_TOLERANCE * self._static_distance(src, dst) + 1e-9
        path = self._dijkstra(src, alloc, dst=dst, bound=bound)
        if path is None or self._path_cost(path) > bound:
            return None
        return path

    DETOUR_TOLERANCE = 1.35

    def _path_cost(self, path: list[int]) -> float:
        cost = self.times.split
        for node in path[1:-1]:
            cost += self._node_cost(node, False)
        return cost + self._step[path[-1]]

    def _static_distance(self, src: int, dst: int) -> float:
        """Uncongested travel cost on the empty device (cached)."""
        dist = self._static_dist_cache.get(src)
        if dist is None:
            neighbors = self._neighbors
            static_step = self._static_step
            dist = [_INF] * len(static_step)
            seen = [False] * len(static_step)
            dist[src] = self.times.split
            heap = [(self.times.split, src)]
            while heap:
                d, node = heapq.heappop(heap)
                if seen[node]:
                    continue
                seen[node] = True
                for nxt in neighbors[node]:
                    if seen[nxt]:
                        continue
                    nd = d + static_step[nxt]
                    if nd < dist[nxt]:
                        dist[nxt] = nd
                        heapq.heappush(heap, (nd, nxt))
            self._static_dist_cache[src] = dist
        # Destination traps cost a merge only; undo the split added by
        # the pass-through accounting above.
        value = dist[dst]
        if value != _INF and self._is_trap[dst]:
            value -= self.times.split
        return value

    def _find_path_to_any(self, src, alloc, accept) -> list[int] | None:
        return self._dijkstra(src, alloc, accept)

    def _dijkstra(
        self,
        src: int,
        alloc: list[int],
        accept=None,
        *,
        dst: int | None = None,
        bound: float = _INF,
    ) -> list[int] | None:
        """Cheapest admissible path from ``src`` to a trap that ``accept``
        takes, or, given ``dst``, to that one trap.

        A component is admissible while ``alloc`` holds fewer ions than
        its capacity.  The heap key ``(cost, node)``, the neighbour
        order and the summation order decide ties, and so the path.

        With ``accept``, a trap is taken when it is popped: an equal-cost
        trap with a lower id can still come off the heap first.  With
        ``dst``, the search stops as soon as its answer is fixed, and
        returns exactly what the exhaustive search would:

        - a full ``dst`` is never entered, so the answer is ``None``
          before any search;
        - the cost of a step depends only on the component entered and
          nodes pop in non-decreasing cost, so the first relaxation of
          ``dst`` is final (a later one is no cheaper, and updates need
          a strict ``<``); the path returns there, not at its pop;
        - ``bound`` is a cap on the path's :meth:`_path_cost`, which sums
          left to right the same terms as this search, each one at
          least as large; once a popped cost ``d`` has
          ``d + step[dst] > bound``, every path still to come breaks the
          cap, and the answer is ``None``.
        """
        neighbors = self._neighbors
        capacity = self._capacity
        is_trap = self._is_trap
        step = self._step
        heappop = heapq.heappop
        heappush = heapq.heappush
        if dst is None:
            dst, dst_step = -1, 0.0
        elif dst == src or not is_trap[dst] or alloc[dst] >= capacity[dst]:
            return None
        else:
            dst_step = step[dst]
        dist = [_INF] * len(step)
        prev: dict[int, int] = {}
        dist[src] = self.times.split
        heap = [(self.times.split, src)]
        while heap:
            d, node = heappop(heap)
            if d > dist[node]:
                continue  # stale: the node was popped at dist[node]
            if d + dst_step > bound:
                return None
            if (
                accept is not None
                and node != src
                and is_trap[node]
                and accept(node)
            ):
                return _trace(prev, src, node)
            for nxt in neighbors[node]:
                if alloc[nxt] >= capacity[nxt]:
                    continue
                nd = d + step[nxt]
                if nd < dist[nxt]:
                    dist[nxt] = nd
                    prev[nxt] = node
                    if nxt == dst:
                        return _trace(prev, src, dst)
                    heappush(heap, (nd, nxt))
        return None

    # ------------------------------------------------------------------
    # Movement emission
    # ------------------------------------------------------------------
    def _emit_swaps_to_end(self, trap_id: int, ion: int, end: int) -> None:
        chain = self.chains[trap_id]
        idx = chain.index(ion)
        target = 0 if end == 0 else len(chain) - 1
        step = -1 if target < idx else 1
        while idx != target:
            other = chain[idx + step]
            self._emit("SWAP", (ion, other), (trap_id,), self.times.swap)
            chain[idx], chain[idx + step] = chain[idx + step], chain[idx]
            idx += step

    def _emit_hop(self, ion: int, path: list[int]) -> None:
        """Emit the primitive sequence moving ``ion`` along ``path``.

        ``path`` alternates trap / segment / (junction / segment)* /
        trap and may pass through intermediate traps (linear devices),
        which costs a merge, possible swaps, and a split.
        """
        device = self.device
        times = self.times
        kind = self._kind
        src = path[0]
        self._emit_swaps_to_end(src, ion, device.port_end(src, path[1]))
        self.chains[src].remove(ion)
        self._emit("SPLIT", (ion,), (src, path[1]), times.split)

        i = 1
        while i < len(path):
            node = path[i]
            if kind[node] is ComponentKind.SEGMENT:
                self._emit("SHUTTLE", (ion,), (node,), times.shuttle)
                nxt = path[i + 1]
                if kind[nxt] is ComponentKind.JUNCTION:
                    self._emit(
                        "JUNCTION_ENTRY", (ion,), (node, nxt), times.junction_entry
                    )
                else:
                    self._emit("MERGE", (ion,), (node, nxt), times.merge)
                    end = device.port_end(nxt, node)
                    if end == 0:
                        self.chains[nxt].insert(0, ion)
                    else:
                        self.chains[nxt].append(ion)
                    self.location[ion] = nxt
            elif kind[node] is ComponentKind.JUNCTION:
                nxt = path[i + 1]
                self._emit("JUNCTION_EXIT", (ion,), (node, nxt), times.junction_exit)
            else:
                # Intermediate trap: we just merged in; split out again.
                if i + 1 < len(path):
                    out_seg = path[i + 1]
                    self._emit_swaps_to_end(node, ion, device.port_end(node, out_seg))
                    self.chains[node].remove(ion)
                    self._emit("SPLIT", (ion,), (node, out_seg), times.split)
            i += 1

    # ------------------------------------------------------------------
    # Deadlock handling
    # ------------------------------------------------------------------
    def _deadlock_error(self) -> RoutingError:
        """A :class:`RoutingError` carrying the stuck state.

        Names the blocked gates (id, kind, operands) and the current
        trap occupancy so a deadlock report is diagnosable without
        re-running under a debugger.
        """
        pending = len(self.gates) - len(self._sequenced)
        blocked = self._blocked_gates()
        shown = ", ".join(f"#{g.id} {g.kind}{g.qubits}" for g in blocked[:8])
        if len(blocked) > 8:
            shown += f", ... {len(blocked) - 8} more"
        if not blocked:
            shown = "none (dependency stall)"
        occupancy = {
            trap: len(chain)
            for trap, chain in sorted(self.chains.items())
            if chain
        }
        return RoutingError(
            f"{self.name} router deadlocked with {pending} gate(s) pending "
            f"on {self.device.topology} device; blocked gates: [{shown}]; "
            f"trap occupancy (capacity {self.device.trap_capacity}): "
            f"{occupancy}"
        )

    def _force_unblock(self) -> bool:
        """Deadlock breaker for the oldest blocked gate.

        Tries, in order: routing the mover with the detour tolerance
        lifted; evicting an uninvolved ion from the destination trap;
        evicting a bystander from the mover's own trap.  All escapes
        ignore the tolerance — correctness over optimality.
        """
        blocked = self._blocked_gates()
        if not blocked:
            return False
        capacity = self.device.trap_capacity
        for gate in blocked:
            mover, dest = self._mover_and_destination(gate)
            alloc = self._occupancy()
            # (1) Route the mover directly, however congested the path.
            path = self._dijkstra(self.location[mover], alloc, dst=dest)
            if path is not None:
                self._emit_hop(mover, path)
                return True
            # (2) Make room at the destination.
            if self._evict_one(dest, keep=set(gate.qubits), alloc=alloc):
                return True
            # (3) Clear the first over-full trap along the uncongested
            # route (linear devices: a full trap in the corridor blocks
            # every path; evicting from the destination cannot help).
            corridor = self._dijkstra(
                self.location[mover], [0] * len(self._step), dst=dest
            )
            if corridor is not None:
                for node in corridor[1:-1]:
                    if self._is_trap[node] and alloc[node] >= capacity:
                        if self._evict_one(node, keep=set(), alloc=alloc):
                            return True
        return False

    def _evict_one(self, trap_id: int, keep: set[int], alloc: list[int]) -> bool:
        """Move one bystander ion out of ``trap_id`` to any free slot."""
        capacity = self.device.trap_capacity
        for victim in list(self.chains[trap_id]):
            if victim in keep:
                continue
            path = self._find_path_to_any(
                trap_id,
                alloc,
                lambda t: alloc[t] < capacity - 1 and t != trap_id,
            )
            if path is not None:
                self._emit_hop(victim, path)
                return True
            return False
        return False
