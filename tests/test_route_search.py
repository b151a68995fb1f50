"""The router's single-destination search answers exactly as a full search.

``RoutingStrategy._dijkstra(src, alloc, dst=...)`` answers most queries
from the search tree on the empty device (the static path) or from the
endpoints' neighbours alone (a sealed endpoint).  Every answer must be
the one the search itself would give: :func:`_reference_search` below is
the search run to its answer every time, and the router must agree with
it on every trap pair, under random occupancy, for every bound.
"""

import heapq
import math
import random
from collections import Counter

import pytest

from repro.arch import DEFAULT_TIMES, OperationTimes, grid_device
from repro.codes import RotatedSurfaceCode
from repro.core import build_gate_dag, place
from repro.core.route import GreedyRouter

_INF = float("inf")

# A code per capacity that gives each device a handful to a few dozen
# traps: enough pairs to hit every shortcut, few enough to check all.
CODES = {2: RotatedSurfaceCode(3), 5: RotatedSurfaceCode(5), 12: RotatedSurfaceCode(7)}
# Movement times whose sums round: a cost summed in another order than
# the search's differs in the last bit.
FRACTIONAL_TIMES = OperationTimes(
    shuttle=0.1, split=0.3, merge=0.7, junction_entry=0.1, junction_exit=0.2
)
# Chance that a component is full, one per occupancy vector: from the
# empty device (every answer a static path) to a jammed one.
FULL_RATES = (0.0, 0.05, 0.15, 0.3, 0.5, 0.8)


def _reference_search(router, src, alloc, dst, bound=_INF):
    """The single-destination search, always run to its answer.

    The router's search body without its shortcuts: the same tables,
    heap key, neighbour order, strict ``<`` and early exits.
    """
    neighbors = router._neighbors
    capacity = router._capacity
    is_trap = router._is_trap
    step = router._step
    if dst == src or not is_trap[dst] or alloc[dst] >= capacity[dst]:
        return None
    dst_step = step[dst]
    dist = [_INF] * len(step)
    prev = {}
    dist[src] = router.times.split
    heap = [(router.times.split, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        if d + dst_step > bound:
            return None
        for nxt in neighbors[node]:
            if alloc[nxt] >= capacity[nxt]:
                continue
            nd = d + step[nxt]
            if nd < dist[nxt]:
                dist[nxt] = nd
                prev[nxt] = node
                if nxt == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(prev[path[-1]])
                    return path[::-1]
                heapq.heappush(heap, (nd, nxt))
    return None


def _search_cost(router, path):
    cost = router.times.split
    for node in path[1:]:
        cost += router._step[node]
    return cost


def _router(capacity, family, times=DEFAULT_TIMES):
    code = CODES[capacity]
    if family == "grid-1xn":
        # One spare trap, so the row is not just the placed clusters.
        traps = len(place(code, capacity, "linear").device.traps) + 1
        placement = place(code, capacity, "grid", grid_device(1, traps, capacity))
    else:
        placement = place(code, capacity, family)
    return GreedyRouter(code, placement, build_gate_dag(code, 1), times)


def _occupancies(router, seed):
    """Seeded occupancy vectors, one per rate in ``FULL_RATES``."""
    rng = random.Random(seed)
    capacity = router._capacity
    for rate in FULL_RATES:
        yield [
            cap if rng.random() < rate else rng.randrange(cap)
            for cap in capacity
        ]


@pytest.mark.parametrize("capacity", [2, 5, 12])
@pytest.mark.parametrize(
    "family,times",
    [
        ("grid", DEFAULT_TIMES),
        ("switch", DEFAULT_TIMES),
        ("linear", DEFAULT_TIMES),
        ("grid-1xn", DEFAULT_TIMES),
        ("grid", FRACTIONAL_TIMES),
    ],
    ids=["grid", "switch", "linear", "grid-1xn", "grid-fractional-times"],
)
def test_single_destination_answers_match_full_search(family, times, capacity):
    router = _router(capacity, family, times)
    traps = [t.id for t in router.device.traps]
    empty = [0] * len(router._step)
    outcomes = Counter()
    full_kinds = set()
    for alloc in _occupancies(router, f"{family}-{capacity}"):
        full_kinds |= {
            router._kind[c].name
            for c, cap in enumerate(router._capacity)
            if alloc[c] >= cap
        }
        for src in traps:
            for dst in traps:
                static = _reference_search(router, src, empty, dst)
                detour = (
                    router.DETOUR_TOLERANCE * router._static_distance(src, dst)
                    + 1e-9
                )
                bounds = [_INF, detour]
                if static is not None:
                    cost = _search_cost(router, static)
                    bounds += [cost, math.nextafter(cost, 0.0)]
                for bound in bounds:
                    expected = _reference_search(router, src, alloc, dst, bound)
                    got = router._dijkstra(src, alloc, dst=dst, bound=bound)
                    assert got == expected, (src, dst, bound, alloc)
                    if expected is None:
                        outcomes["none"] += 1
                    elif expected == static:
                        outcomes["static"] += 1
                    else:
                        outcomes["detour"] += 1
                expected = _reference_search(router, src, alloc, dst, detour)
                if expected is not None and router._path_cost(expected) > detour:
                    expected = None
                assert router._find_path(src, dst, alloc) == expected
    # Every occupancy kind was full somewhere, and both answers came up;
    # only a 2-D grid has a second route when the static one is blocked.
    assert full_kinds >= {"TRAP", "SEGMENT"}
    if router.device.junctions:
        assert "JUNCTION" in full_kinds
    assert outcomes["none"] and outcomes["static"]
    if family == "grid" and len(traps) > 4:
        assert outcomes["detour"]


def test_tables_hold_predecessors_and_pairs_only():
    """The shortcut tables keep one predecessor list per searched
    source and one entry per searched pair, nothing per occupancy."""
    router = _router(2, "grid")
    traps = [t.id for t in router.device.traps]
    alloc = router._occupancy()
    for dst in traps[1:]:
        router._find_path(traps[0], dst, alloc)
    assert set(router._static_prev) == {traps[0]}
    prev = router._static_prev[traps[0]]
    assert len(prev) == len(router._step)
    assert all(type(p) is int for p in prev)
    assert set(router._static_route) == {(traps[0], dst) for dst in traps[1:]}
    assert set(router._detour_bound) == set(router._static_route)
