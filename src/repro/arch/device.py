"""The QCCD device graph and its occupancy/connectivity queries."""

from __future__ import annotations

from dataclasses import dataclass, field

from .components import Component, ComponentKind


@dataclass
class QCCDDevice:
    """A QCCD device: components plus their wiring into a graph.

    The graph alternates trap/junction nodes with segment nodes —
    every edge joins a segment to a trap or junction, so a route
    between traps is a sequence  trap, seg, (junction, seg,)* trap.
    """

    topology: str
    trap_capacity: int
    components: list[Component] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        if self.trap_capacity < 2:
            raise ValueError("trap capacity must be at least 2")
        self._adjacency: list[tuple[int, ...]] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def traps(self) -> list[Component]:
        return [c for c in self.components if c.is_trap]

    @property
    def junctions(self) -> list[Component]:
        return [c for c in self.components if c.is_junction]

    @property
    def segments(self) -> list[Component]:
        return [c for c in self.components if c.is_segment]

    @property
    def num_traps(self) -> int:
        return len(self.traps)

    @property
    def num_junctions(self) -> int:
        return len(self.junctions)

    def component(self, cid: int) -> Component:
        return self.components[cid]

    def adjacency(self) -> list[tuple[int, ...]]:
        """Neighbours of each component, indexed by id (cached).

        Each tuple lists neighbours in the order their edges first
        appear in ``edges``; a repeated edge adds nothing.
        """
        if self._adjacency is None:
            adj: list[dict[int, None]] = [{} for _ in self.components]
            for a, b in self.edges:
                adj[a][b] = None
                adj[b][a] = None
            self._adjacency = [tuple(nbrs) for nbrs in adj]
        return self._adjacency

    def neighbors(self, cid: int) -> list[int]:
        return list(self.adjacency()[cid])

    def neighbor_traps(self, trap_id: int) -> list[int]:
        """Traps reachable from ``trap_id`` through one segment/junction run."""
        found: list[int] = []
        for seg in self.neighbors(trap_id):
            for nxt in self.neighbors(seg):
                if nxt == trap_id:
                    continue
                comp = self.component(nxt)
                if comp.is_trap:
                    found.append(nxt)
                elif comp.is_junction:
                    for seg2 in self.neighbors(nxt):
                        if seg2 == seg:
                            continue
                        for t in self.neighbors(seg2):
                            if t != nxt and self.component(t).is_trap:
                                found.append(t)
        return sorted(set(found))

    # ------------------------------------------------------------------
    # Geometry helpers used by the router (chain ends)
    # ------------------------------------------------------------------
    def port_end(self, trap_id: int, segment_id: int) -> int:
        """Which end (0 or 1) of the trap's linear chain a segment joins.

        Segments approaching from smaller x (or, on a tie, smaller y)
        attach to end 0; the rest to end 1.  This fixes where merging
        ions enter the chain and which chain position may split out.
        """
        trap = self.component(trap_id)
        seg = self.component(segment_id)
        if (seg.pos[0], seg.pos[1]) < (trap.pos[0], trap.pos[1]):
            return 0
        return 1

    def validate(self) -> None:
        """Structural invariants used by tests and builders."""
        ids = [c.id for c in self.components]
        if ids != list(range(len(ids))):
            raise ValueError("component ids must be 0..n-1")
        for a, b in self.edges:
            ka = self.component(a).kind
            kb = self.component(b).kind
            segment_count = (ka is ComponentKind.SEGMENT) + (kb is ComponentKind.SEGMENT)
            if segment_count != 1:
                raise ValueError(
                    f"edge ({a},{b}) must join a segment to a trap/junction"
                )
        for seg in self.segments:
            degree = len(self.neighbors(seg.id))
            if degree != 2:
                raise ValueError(f"segment {seg.id} must join exactly two nodes")
        if self.num_traps > 1 and not self._connected():
            raise ValueError("device graph must be connected")

    def _connected(self) -> bool:
        """Whether every component is reachable from component 0."""
        adj = self.adjacency()
        seen = {0}
        frontier = [0]
        while frontier:
            for nxt in adj[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == len(adj)
