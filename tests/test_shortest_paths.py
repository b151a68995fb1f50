"""The detector graph's all-pairs search against a brute-force reference.

``DetectorGraph.shortest_paths`` picks each node's predecessor in the
tree rooted at a source by one rule: among the tight arcs ``p -> v``
(``dist[p] + w == dist[v]``), the smallest ``dist[p]``, then the
largest ``p``; an arc that adds nothing (``dist[p] == dist[v]``)
counts only when ``p`` is reached over fewer edges.  Integer weights
make exact ties common, so random small graphs with integer weights pin
the rule against a plain-Python reference that applies it literally.
(scipy stays the oracle for distances and masks on real detector
graphs in ``test_decoders.py``; its own tie order follows its heap and
is not a rule to pin here.)
"""

import math
import random

import numpy as np
import pytest

from repro.decoders import DetectorGraph
from repro.decoders.graph import DetectorEdge


def _graph(num_detectors, edges):
    """A graph with the given ``(u, v, weight, observables)`` edges."""
    return DetectorGraph(num_detectors, 2, [
        DetectorEdge(u, v, float(w), 0.1, obs) for u, v, w, obs in edges
    ])


def _reference(graph):
    """``(dist, obs)`` by the tie rule, one source at a time in Python."""
    n = graph.num_nodes
    arcs = []
    for e in graph.edges:
        arcs += [(e.u, e.v, e.weight, e.observables),
                 (e.v, e.u, e.weight, e.observables)]
    dist = [[math.inf] * n for _ in range(n)]
    obs = [[0] * n for _ in range(n)]
    for s in range(n):
        d, hops = dist[s], [math.inf] * n
        d[s], hops[s] = 0.0, 0
        changed = True
        while changed:  # Bellman-Ford: sums run from the source outward
            changed = False
            for p, v, w, _ in arcs:
                if d[p] + w < d[v]:
                    d[v], changed = d[p] + w, True
        tight = [(p, v, m) for p, v, w, m in arcs
                 if d[p] < math.inf and d[p] + w == d[v]]
        changed = True
        while changed:  # fewest edges over shortest paths
            changed = False
            for p, v, _ in tight:
                if hops[p] + 1 < hops[v]:
                    hops[v], changed = hops[p] + 1, True
        pred = {}
        for v in range(n):
            cands = [(d[p], -p, m) for p, t, m in tight if t == v
                     and (d[p] < d[v] or hops[p] < hops[v])]
            if v != s and cands:
                _, neg_p, m = min(cands)
                pred[v] = (-neg_p, m)
        for v in range(n):
            node, mask = v, 0
            while node in pred:
                node, m = pred[node]
                mask ^= m
            obs[s][v] = mask
    # A pair reads the tree rooted at its smaller node.
    return np.array(dist), np.array([[obs[min(u, v)][max(u, v)]
                                      for v in range(n)] for u in range(n)])


def _random_graph(rng, weights):
    num_detectors = rng.randint(1, 12)
    nodes = range(num_detectors + 1)  # boundary last
    pairs = [(u, v) for u in nodes for v in nodes if u < v]
    density = rng.uniform(0.15, 0.6)
    edges = [(u, v, rng.choice(weights), rng.randrange(4))
             for u, v in pairs if rng.random() < density]
    return _graph(num_detectors, edges)


def _assert_matches_reference(graph):
    dist, obs = graph.shortest_paths()
    ref_dist, ref_obs = _reference(graph)
    assert np.array_equal(dist, ref_dist)
    assert np.array_equal(obs, ref_obs)


@pytest.mark.parametrize("weights, seed", [
    ((1, 2, 3), 11),
    ((1, 1, 2), 12),
    ((0, 1, 2, 3), 13),  # zero weights: arcs that add nothing
    ((0.5, 1.5, 2.25), 14),
    ((1e16, 2e16, 1.0, 0.5), 15),  # 1e16 + 1 == 1e16: weights that vanish
])
def test_tie_rule_matches_the_reference(weights, seed):
    rng = random.Random(seed)
    for _ in range(120):
        _assert_matches_reference(_random_graph(rng, weights))


def test_zero_weight_plateau_has_no_loops():
    # 0 - 1 at weight 1, then 1 - 2 - 3 - 1 all at weight 0: every
    # arc inside the plateau is tight both ways, and each tree must
    # still reach 0.  The boundary (4) has no edge.
    graph = _graph(4, [(0, 1, 1, 1), (1, 2, 0, 2), (2, 3, 0, 1),
                       (1, 3, 0, 0)])
    _assert_matches_reference(graph)
    dist, obs = graph.shortest_paths()
    assert dist[0].tolist() == [0, 1, 1, 1, math.inf]
    assert obs[0, 3] == 1  # 0-1-3, one edge fewer than 0-1-2-3


def test_hub_tie_takes_the_largest_id():
    # The boundary (11) has far more edges than any detector, as in a
    # real detector graph.  From detector 10 it is two steps away
    # through 0 or through 1, the two smallest of its neighbours.
    edges = [(10, 0, 1, 0), (10, 1, 1, 0), (0, 11, 1, 1), (1, 11, 1, 2)]
    edges += [(d, 11, 1, 0) for d in range(2, 10)]
    graph = _graph(11, edges)
    _assert_matches_reference(graph)
    assert graph.shortest_paths()[1][10, 11] == 2  # through 1


def test_no_edges():
    graph = DetectorGraph(3, 1)
    dist, obs = graph.shortest_paths()
    expected = np.full((4, 4), np.inf)
    np.fill_diagonal(expected, 0.0)
    assert np.array_equal(dist, expected)
    assert not obs.any()
    assert not graph.has_edge().any()
    assert not graph.detector_mask().any()


def test_boundary_without_edges():
    graph = _graph(3, [(0, 1, 2, 1), (1, 2, 3, 2)])
    dist, obs = graph.shortest_paths()
    b = graph.boundary
    assert np.isinf(dist[b, :b]).all() and np.isinf(dist[:b, b]).all()
    assert dist[b, b] == 0
    assert not obs[b].any() and not obs[:, b].any()
    assert dist[0, 2] == 5 and obs[0, 2] == 3
    _assert_matches_reference(graph)


def test_disconnected_components():
    # {0, 1, boundary} and {2, 3}, with detector 4 isolated.
    graph = _graph(5, [(0, 1, 1, 1), (1, 5, 2, 2), (2, 3, 1, 3)])
    dist, obs = graph.shortest_paths()
    assert np.isinf(dist[0, 2]) and np.isinf(dist[3, 5])
    assert obs[0, 2] == obs[3, 5] == 0
    assert np.isinf(dist[4, :4]).all() and dist[4, 4] == 0
    assert dist[0, 5] == 3 and obs[0, 5] == 3
    assert graph.has_edge().tolist() == [True] * 4 + [False, True]
    _assert_matches_reference(graph)


def test_negative_weight_is_refused():
    graph = _graph(2, [(0, 1, -1, 0)])
    with pytest.raises(ValueError, match="non-negative"):
        graph.shortest_paths()


def test_detector_mask_is_the_touched_detectors():
    graph = _graph(70, [(3, 70, 1, 0), (5, 64, 1, 0)])
    bits = np.unpackbits(graph.detector_mask().view(np.uint8),
                         bitorder="little")
    assert np.flatnonzero(bits).tolist() == [3, 5, 64]
