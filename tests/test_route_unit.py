"""Focused unit tests for router internals (pathfinding, swaps, hops)."""

import heapq
import math
import random
from collections import Counter

import networkx as nx
import pytest

from repro.arch import DEFAULT_TIMES, grid_device, linear_device
from repro.codes import RepetitionCode, RotatedSurfaceCode
from repro.core import build_gate_dag, place
from repro.core.route import GreedyRouter, RoutingError


def _router(code, cap, topo, rounds=1):
    gates = build_gate_dag(code, rounds)
    placement = place(code, cap, topo)
    return GreedyRouter(code, placement, gates, DEFAULT_TIMES)


class TestPathfinding:
    def test_dijkstra_prefers_short_paths(self):
        router = _router(RepetitionCode(4), 2, "linear")
        traps = [t.id for t in router.device.traps]
        alloc = {c.id: 0 for c in router.device.components}
        path = router._find_path(traps[0], traps[1], alloc)
        assert path is not None
        assert path[0] == traps[0] and path[-1] == traps[1]
        assert len(path) == 3  # trap, segment, trap

    def test_dijkstra_blocked_by_full_component(self):
        router = _router(RepetitionCode(3), 2, "linear")
        traps = [t.id for t in router.device.traps]
        alloc = {c.id: 0 for c in router.device.components}
        # Saturate the only segment between trap 0 and trap 1.
        seg = router.device.neighbors(traps[0])[0]
        alloc[seg] = 1
        assert router._find_path(traps[0], traps[1], alloc) is None

    def test_same_trap_returns_none(self):
        router = _router(RepetitionCode(3), 2, "linear")
        trap = router.device.traps[0].id
        alloc = {c.id: 0 for c in router.device.components}
        assert router._find_path(trap, trap, alloc) is None

    def test_static_distance_caches_and_matches(self):
        router = _router(RotatedSurfaceCode(2), 2, "grid")
        traps = [t.id for t in router.device.traps]
        d1 = router._static_distance(traps[0], traps[1])
        d2 = router._static_distance(traps[0], traps[1])
        assert d1 == d2
        # One diagonal grid hop: split+shuttle+entry+exit+shuttle+merge.
        expected = 80 + 5 + 100 + 100 + 5 + 80
        neighbours = router.device.neighbor_traps(traps[0])
        dist = router._static_distance(traps[0], neighbours[0])
        assert dist == pytest.approx(expected)

    def test_hop_cost_by_topology(self):
        grid_router = _router(RotatedSurfaceCode(2), 2, "grid")
        line_router = _router(RepetitionCode(3), 2, "linear")
        assert grid_router._hop_cost() == pytest.approx(370)
        assert line_router._hop_cost() == pytest.approx(165)


class TestSwapEmission:
    def test_no_swaps_when_ion_at_end(self):
        router = _router(RepetitionCode(4), 4, "linear")
        trap = next(
            t for t, chain in router.chains.items() if len(chain) >= 2
        )
        chain = router.chains[trap]
        ion = chain[0]
        before = len(router.ops)
        router._emit_swaps_to_end(trap, ion, 0)
        assert len(router.ops) == before  # already at that end

    def test_swaps_move_ion_to_far_end(self):
        router = _router(RepetitionCode(4), 4, "linear")
        trap = next(
            t for t, chain in router.chains.items() if len(chain) >= 3
        )
        chain = router.chains[trap]
        ion = chain[0]
        router._emit_swaps_to_end(trap, ion, 1)
        assert router.chains[trap][-1] == ion
        swaps = [op for op in router.ops if op.kind == "SWAP"]
        assert len(swaps) == len(chain) - 1
        for op in swaps:
            assert op.duration == DEFAULT_TIMES.swap


class TestHopEmission:
    def test_hop_updates_location_and_chains(self):
        router = _router(RepetitionCode(3), 2, "linear")
        traps = [t.id for t in router.device.traps]
        src = traps[0]
        dst = traps[1]
        ion = router.chains[src][0]
        alloc = router._occupancy()
        path = router._find_path(src, dst, alloc)
        router._emit_hop(ion, path)
        assert router.location[ion] == dst
        assert ion in router.chains[dst]
        assert ion not in router.chains[src]

    def test_hop_emits_expected_primitive_sequence(self):
        router = _router(RepetitionCode(3), 2, "linear")
        traps = [t.id for t in router.device.traps]
        ion = router.chains[traps[0]][0]
        alloc = router._occupancy()
        path = router._find_path(traps[0], traps[1], alloc)
        router._emit_hop(ion, path)
        kinds = [op.kind for op in router.ops]
        assert kinds == ["SPLIT", "SHUTTLE", "MERGE"]

    def test_two_hop_passes_through_intermediate_trap(self):
        router = _router(RepetitionCode(3), 2, "linear")
        traps = [t.id for t in router.device.traps]
        ion = router.chains[traps[0]][0]
        # Empty the intermediate trap so no swaps are needed.
        middle_chain = router.chains[traps[1]]
        displaced = list(middle_chain)
        for q in displaced:
            middle_chain.remove(q)
            router.chains[traps[2]].append(q)
            router.location[q] = traps[2]
        alloc = router._occupancy()
        alloc[traps[2]] = 0  # admit the path in spite of our shuffling
        path = router._dijkstra(traps[0], alloc, lambda n: n == traps[2])
        router._emit_hop(ion, path)
        kinds = [op.kind for op in router.ops]
        assert kinds == [
            "SPLIT", "SHUTTLE", "MERGE",  # into the intermediate trap
            "SPLIT", "SHUTTLE", "MERGE",  # out the other side
        ]


class TestOccupancy:
    def test_occupancy_counts_chains(self):
        router = _router(RotatedSurfaceCode(2), 2, "grid")
        alloc = router._occupancy()
        for trap_id, chain in router.chains.items():
            assert alloc[trap_id] == len(chain)
        for seg in router.device.segments:
            assert alloc[seg.id] == 0

    def test_op_concurrency_windows(self):
        router = _router(RotatedSurfaceCode(2), 2, "switch")
        hub = router.device.junctions[0]
        assert router._window[hub.id] == hub.capacity
        trap = router.device.traps[0]
        assert router._window[trap.id] == 1


def _nx_graph(device):
    """The device as networkx builds it from the components and edges,
    independent of ``device.adjacency()``."""
    graph = nx.Graph()
    graph.add_nodes_from(c.id for c in device.components)
    graph.add_edges_from(device.edges)
    return graph


def _graph_dijkstra(router, src, alloc, accept):
    """Reference search over a networkx graph and the Component objects."""
    device, times = router.device, router.times
    graph = _nx_graph(device)

    def step(cid):
        comp = device.component(cid)
        if comp.is_segment:
            return times.shuttle
        if comp.is_junction:
            return times.junction_entry + times.junction_exit
        return times.merge

    dist = {src: times.split}
    prev = {}
    heap = [(times.split, src)]
    visited = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node != src and device.component(node).is_trap and accept(node):
            path = [node]
            while node != src:
                node = prev[node]
                path.append(node)
            return path[::-1]
        for nxt in graph.neighbors(node):
            if nxt in visited or alloc[nxt] >= device.component(nxt).capacity:
                continue
            nd = d + step(nxt)
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                prev[nxt] = node
                heapq.heappush(heap, (nd, nxt))
    return None


def _search_cost(router, path):
    """A path's cost as the search sums it: split, then each step entered."""
    cost = router.times.split
    for node in path[1:]:
        cost += router._step[node]
    return cost


class TestDeviceTables:
    @pytest.mark.parametrize("topology", ["grid", "switch", "linear"])
    @pytest.mark.parametrize("capacity", [2, 5])
    def test_table_search_matches_graph_search(self, topology, capacity):
        """Same path, tie for tie, as the search over the device graph,
        under random congestion."""
        router = _router(RotatedSurfaceCode(3), capacity, topology)
        rng = random.Random(f"{topology}-{capacity}")
        comps = router.device.components
        traps = [t.id for t in router.device.traps]
        found = 0
        for _ in range(200):
            alloc = {
                c.id: c.capacity if rng.random() < 0.15
                else rng.randrange(min(c.capacity, 3))
                for c in comps
            }
            src = rng.choice(traps)
            targets = set(rng.sample(traps, rng.randint(1, 3)))
            expected = _graph_dijkstra(router, src, alloc, targets.__contains__)
            assert router._dijkstra(src, alloc, targets.__contains__) == expected
            found += expected is not None
        assert 0 < found < 200  # both outcomes exercised

    @pytest.mark.parametrize("topology", ["grid", "switch", "linear"])
    @pytest.mark.parametrize("capacity", [2, 5])
    def test_single_destination_search_matches_exhaustive_search(
        self, topology, capacity
    ):
        """Stopped early, the single-destination search still returns the
        exhaustive search's path, full destinations included; under the
        detour bound it drops only paths the detour test rejects."""
        router = _router(RotatedSurfaceCode(3), capacity, topology)
        rng = random.Random(f"dst-{topology}-{capacity}")
        comps = router.device.components
        traps = [t.id for t in router.device.traps]
        outcomes = Counter()
        for _ in range(300):
            alloc = {
                c.id: c.capacity if rng.random() < 0.15
                else rng.randrange(min(c.capacity, 3))
                for c in comps
            }
            src, dst = rng.sample(traps, 2)
            if rng.random() < 0.2:
                alloc[dst] = router._capacity[dst]
            expected = _graph_dijkstra(router, src, alloc, {dst}.__contains__)
            assert router._dijkstra(src, alloc, dst=dst) == expected
            if expected is not None:
                # The cutoff is tight: a bound equal to the path's search
                # cost keeps it, one ulp below drops it.
                cost = _search_cost(router, expected)
                assert router._dijkstra(src, alloc, dst=dst, bound=cost) == expected
                below = math.nextafter(cost, 0.0)
                assert router._dijkstra(src, alloc, dst=dst, bound=below) is None
            free = router._static_distance(src, dst)
            bound = router.DETOUR_TOLERANCE * free + 1e-9
            bounded = router._dijkstra(src, alloc, dst=dst, bound=bound)
            if expected is None:
                outcome = "full" if alloc[dst] >= capacity else "no path"
                assert bounded is None
            elif router._path_cost(expected) > bound:
                outcome = "detour" if bounded is None else "detour, searched"
                assert bounded in (None, expected)
            else:
                outcome = "ok"
                assert bounded == expected
            assert router._find_path(src, dst, alloc) == (
                expected if outcome == "ok" else None
            )
            outcomes[outcome] += 1
        # Only the grid has detours whose search cost alone breaks the
        # bound; switch and linear devices have one route per pair, and
        # its search cost never exceeds the static distance.
        cut = {"detour"} if topology == "grid" else set()
        assert {"ok", "full", "no path"} | cut <= set(outcomes)

    @pytest.mark.parametrize("topology", ["grid", "switch", "linear"])
    def test_tables_match_device(self, topology):
        """The search tables are the device graph, flattened: networkx
        neighbour order, and the step costs the graph search summed."""
        router = _router(RotatedSurfaceCode(2), 3, topology)
        device, times = router.device, router.times
        graph = _nx_graph(device)
        for comp in device.components:
            cid = comp.id
            assert router._neighbors[cid] == tuple(graph.neighbors(cid))
            assert router._capacity[cid] == comp.capacity
            assert router._is_trap[cid] == comp.is_trap
            assert router._kind[cid] is comp.kind
            if comp.is_segment:
                step = static = times.shuttle
            elif comp.is_junction:
                step = static = times.junction_entry + times.junction_exit
            else:
                step, static = times.merge, times.merge + times.split
            assert router._step[cid] == step
            assert router._static_step[cid] == static
            assert router._node_cost(cid, True) == step
            if not comp.is_trap:
                assert router._node_cost(cid, False) == step
            else:
                occupants = len(router.chains[cid])
                assert router._node_cost(cid, False) == (
                    times.merge + times.split + occupants * times.swap
                )


class TestDeadlockReporting:
    def test_error_type(self):
        assert issubclass(RoutingError, RuntimeError)

    def test_deadlock_error_names_blocked_gates_and_occupancy(self):
        """A routing deadlock must be diagnosable from the message alone:
        the blocked gate ids/operands and the trap occupancy appear."""
        router = _router(RotatedSurfaceCode(2), 2, "grid")
        # Make every path search fail: all movement, restoration and
        # forced-unblock attempts come up empty, so the run loop's
        # stall guard trips.
        router._dijkstra = lambda *a, **k: None
        with pytest.raises(RoutingError) as excinfo:
            router.run()
        message = str(excinfo.value)
        blocked = router._blocked_gates()
        assert blocked, "the stalled router should still report blocked gates"
        for gate in blocked[:8]:
            assert f"#{gate.id} {gate.kind}" in message
        assert "trap occupancy" in message
        assert f"capacity {router.device.trap_capacity}" in message
        # The occupancy map itself (trap -> residents) is in the text.
        occupied = [t for t, c in sorted(router.chains.items()) if c]
        assert f"{occupied[0]}: {len(router.chains[occupied[0]])}" in message
        assert router.name in message
