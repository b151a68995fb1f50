"""Detector graph shared by the matching decoders.

Graphlike errors from a :class:`DetectorErrorModel` become weighted
edges: an error flipping two detectors joins them, an error flipping one
detector joins it to the virtual *boundary* node.  Edge weights are
log-likelihood ratios ``log((1-p)/p)`` so that minimum-weight matching
corresponds to maximum-likelihood (independent-errors) decoding.

The all-pairs search behind :meth:`DetectorGraph.shortest_paths` is
in-repo numpy: a min-plus Bellman–Ford from every source at once over
the nodes some edge touches (:meth:`DetectorGraph.has_edge`), relaxing
only the sources whose distances changed in the last sweep.  It adds
weights in the order a Dijkstra does, one edge at a time from the
source, so its distances are those of any Dijkstra (scipy's included)
bit for bit.  Where two shortest paths tie, each node's predecessor in
the tree rooted at a source follows one rule: among the *tight* arcs
``p -> v`` (``dist[p] + w == dist[v]`` in floating point), take the
smallest ``dist[p]``, then the largest ``p``.  An arc that adds nothing
to the distance (a zero or absorbed weight, so ``dist[p] == dist[v]``)
is tight only when ``p`` is reached over fewer edges, which keeps the
trees free of loops.  The path masks, and so every correction, follow
from those trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..sim.dem import DetectorErrorModel
from ..sim.dem_sampler import pack_bool_rows
from ..telemetry import span

_MIN_P = 1e-14


def llr_weight(p: float) -> float:
    """Log-likelihood weight of an error with probability ``p``."""
    p = min(max(p, _MIN_P), 1 - _MIN_P)
    return math.log((1 - p) / p)


@dataclass
class DetectorEdge:
    """One edge of the detector graph."""

    u: int
    v: int  # may equal the boundary index
    weight: float
    probability: float
    observables: int  # bitmask over logical observables


@dataclass
class DetectorGraph:
    """Weighted detector graph with a single virtual boundary node.

    Node ids 0..num_detectors-1 are detectors; node ``boundary`` is the
    virtual boundary.  ``floor_errors`` holds mechanisms with no
    detector symptoms at all — undecodable logical noise that lower
    bounds the achievable logical error rate.  ``conflicting_edges``
    counts the detector pairs whose errors disagree on the observables
    they flip: one edge per pair keeps the more probable error's mask,
    so each such pair is a place where matching can pick the wrong
    correction.
    """

    num_detectors: int
    num_observables: int
    edges: list[DetectorEdge] = field(default_factory=list)
    floor_errors: list[tuple[int, float]] = field(default_factory=list)
    conflicting_edges: int = 0

    _dist: np.ndarray | None = None
    _obs: np.ndarray | None = None

    @property
    def boundary(self) -> int:
        return self.num_detectors

    @property
    def num_nodes(self) -> int:
        return self.num_detectors + 1

    # ------------------------------------------------------------------
    @classmethod
    def from_dem(cls, dem: DetectorErrorModel) -> "DetectorGraph":
        graph = cls(dem.num_detectors, dem.num_observables)
        merged: dict[tuple[int, int], tuple[float, int]] = {}
        conflicts: set[tuple[int, int]] = set()
        for err in dem.errors:
            obs_mask = 0
            for o in err.observables:
                obs_mask |= 1 << o
            if len(err.detectors) == 0:
                if obs_mask:
                    graph.floor_errors.append((obs_mask, err.probability))
                continue
            if len(err.detectors) == 1:
                key = (err.detectors[0], graph.boundary)
            elif len(err.detectors) == 2:
                key = (min(err.detectors), max(err.detectors))
            else:
                raise ValueError(
                    "DetectorGraph requires a graphlike DEM; decompose first"
                )
            if key in merged:
                p_old, obs_old = merged[key]
                if obs_old != obs_mask:
                    conflicts.add(key)
                # Keep the observable mask of the more probable branch and
                # fold probabilities as independent sources.
                p_new = p_old + err.probability - 2 * p_old * err.probability
                obs_new = obs_old if p_old >= err.probability else obs_mask
                merged[key] = (p_new, obs_new)
            else:
                merged[key] = (err.probability, obs_mask)
        for (u, v), (p, obs_mask) in sorted(merged.items()):
            graph.edges.append(DetectorEdge(u, v, llr_weight(p), p, obs_mask))
        graph.conflicting_edges = len(conflicts)
        return graph

    def has_edge(self) -> np.ndarray:
        """Boolean row over the nodes, boundary last: which nodes some
        edge touches.  Every other node is isolated."""
        touched = np.zeros(self.num_nodes, dtype=bool)
        touched[[e.u for e in self.edges]] = True
        touched[[e.v for e in self.edges]] = True
        return touched

    def detector_mask(self) -> np.ndarray:
        """The detectors some edge touches (:meth:`has_edge`), as one
        packed row of uint64 words (the
        :func:`~repro.sim.dem_sampler.pack_bool_rows` layout).

        A defect on any other detector has nothing to match to, so the
        decoders abstain on it; masking syndromes with this row before
        deduplication drops it earlier, and the syndrome memo never
        tells apart syndromes that differ only there.  For a
        memory-experiment model these are the detectors of the
        observable's basis.
        """
        return pack_bool_rows(self.has_edge()[None, : self.num_detectors])[0]

    # ------------------------------------------------------------------
    def shortest_paths(self) -> tuple[np.ndarray, np.ndarray]:
        """The all-pairs ``(dist, obs)`` matrices, computed once per graph.

        ``dist`` is the shortest-path distance between every node pair
        (``inf`` when unreachable), bit-equal to a Dijkstra's from the
        row's node.  ``obs[u, v]`` is the observable mask of the
        shortest u-v path in the tree rooted at ``min(u, v)``, and 0
        for unreachable pairs: the correction a matching decoder
        applies for that pair, gathered rather than walked.

        The search (:func:`_search`) runs over the nodes some edge
        touches, indexed through a node map; isolated nodes are
        unreachable from every other node.  Each tree's predecessors
        follow the module's tie rule: among the tight arcs into a
        node, the smallest predecessor distance, then the largest
        predecessor id.  The masks come from the predecessors by
        pointer doubling: each pass XORs a node's partial path mask
        with its pointer's and jumps the pointer to the pointer's
        pointer, so every node reaches its root in ``log2(depth)``
        vectorised passes.
        """
        if self._dist is None:
            with span("dijkstra"):
                self._dist, self._obs = self._all_pairs()
        return self._dist, self._obs

    def _all_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.num_nodes
        weight = np.array([e.weight for e in self.edges], dtype=float)
        if (weight < 0).any():
            raise ValueError(
                "shortest paths need non-negative edge weights "
                "(error probabilities of at most 1/2)"
            )
        nodes = np.flatnonzero(self.has_edge())
        m = nodes.size
        index = np.full(n, -1, dtype=np.intp)
        index[nodes] = np.arange(m)
        u = index[[e.u for e in self.edges]]
        v = index[[e.v for e in self.edges]]
        dist_c, pred = _search(m, u, v, weight)
        edge_obs = np.zeros((m, m), dtype=np.int64)
        edge_obs[u, v] = edge_obs[v, u] = [e.observables for e in self.edges]
        # Row r is the tree rooted at r.  ptr holds flat indices into
        # the (m, m) plane; roots and unreachable nodes point at
        # themselves, with mask 0.
        node = np.arange(m)
        ptr = np.where(pred < 0, node, pred)
        obs = edge_obs[ptr, node].ravel()
        del edge_obs, pred
        ptr = (ptr + (node * m)[:, None]).ravel()
        while True:
            nxt = ptr[ptr]
            if np.array_equal(nxt, ptr):
                break
            obs ^= obs[ptr]
            ptr = nxt
        # A pair reads the tree rooted at its smaller node; the node map
        # keeps the order of node ids.
        obs = obs.reshape(m, m)
        obs = np.where(np.tri(m, k=-1, dtype=bool), obs.T, obs)
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        full_obs = np.zeros((n, n), dtype=np.int64)
        compact = np.ix_(nodes, nodes)
        dist[compact] = dist_c
        full_obs[compact] = obs
        return dist, full_obs

    def distance(self, u: int, v: int) -> float:
        return float(self.shortest_paths()[0][u, v])

    def floor_probability(self) -> float:
        """Probability that undetectable mechanisms flip observable 0."""
        p = 0.0
        for obs_mask, prob in self.floor_errors:
            if obs_mask & 1:
                p = p + prob - 2 * p * prob
        return p


# ----------------------------------------------------------------------
# The all-pairs search.  Distances are held one block of sources at a
# time as a (node rank, source) array, so that a sweep is a few numpy
# operations per *slot*: slot k holds the k-th arc into every node whose
# degree exceeds k.  Ranks order nodes by degree, highest first, so
# slot k's targets are ranks 0..count-1, a prefix of the rows.  The
# arcs into one node come in decreasing source id, so taking the first
# of equal candidates takes the largest id.

# Distance entries per block of sources: 2**16 float64s (512 KB) keep a
# block's rows cache-resident through its sweeps.  Graphs up to compiled
# d=7 fit in one block; at d=9 and d=11 one block for all sources took
# 1.3-1.6x as long (README, "Shortest paths").
_BLOCK_ENTRIES = 1 << 16


def _arc_slots(m: int, u: np.ndarray, v: np.ndarray, weight: np.ndarray):
    """Slots of the arcs ``u -> v`` and ``v -> u`` over nodes 0..m-1.

    Returns ``(slots, tail, rank)``: ``slots[k] = (count, rows, ids,
    w)`` gives the k-th arc into ranks 0..count-1 (source rank, source
    id, weight column).  ``tail = (rows, ids, w)`` holds the arcs into
    rank 0 beyond the second-highest degree, so a single hub such as
    the boundary costs one reduction instead of a slot per arc (a slot
    per hub arc made the search 1.2-1.5x as slow on compiled d=5
    to d=11 graphs).
    """
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    w = np.concatenate([weight, weight])
    degree = np.bincount(dst, minlength=m)
    by_degree = np.argsort(-degree, kind="stable")
    rank = np.empty(m, dtype=np.intp)
    rank[by_degree] = np.arange(m)
    arc = np.lexsort((-src, rank[dst]))
    src, w = src[arc], w[arc]
    counts = degree[by_degree]
    slot = np.arange(arc.size) - np.repeat(np.cumsum(counts) - counts, counts)
    top = counts[1] if m > 1 else 0
    slots = []
    for k in range(top):
        a = np.flatnonzero(slot == k)
        slots.append((a.size, rank[src[a]], src[a], w[a, None]))
    a = np.flatnonzero(slot >= top)
    return slots, (rank[src[a]], src[a], w[a, None]), rank


def _search(m: int, u: np.ndarray, v: np.ndarray, weight: np.ndarray):
    """All-pairs ``(dist, pred)`` over nodes 0..m-1 joined by edges
    ``(u, v, weight)``; ``pred`` is -1 at roots and unreachable nodes.

    A min-plus Bellman–Ford from every source of a block at once: each
    sweep lowers ``dist[s, v]`` to ``min(dist[s, p] + w)`` over the arcs
    ``p -> v``, reading the last sweep's values, and a source leaves the
    block once a sweep changes none of its distances.  Every value is a
    path's weight summed from the source one edge at a time, so the
    fixpoint is exactly a Dijkstra's.  After sweep k an entry holds the
    shortest path of at most k edges, so the sweep that last lowers it
    (``hops``) counts the fewest edges of its shortest paths, which the
    tie rule needs for arcs that add nothing.
    """
    dist = np.empty((m, m))
    pred = np.empty((m, m), dtype=np.intp)
    if m == 0:
        return dist, pred
    slots, tail, rank = _arc_slots(m, u, v, weight)
    width = max(1, _BLOCK_ENTRIES // m)
    for first in range(0, m, width):
        cols = np.arange(first, min(first + width, m))
        block = np.full((m, cols.size), np.inf)
        block[rank[cols], np.arange(cols.size)] = 0.0
        block_hops = np.zeros(block.shape, dtype=np.intp)
        # d and hops hold the block's sources still being lowered.
        live, d, hops = np.arange(cols.size), block.copy(), block_hops.copy()
        sweep = 0
        while live.size:
            sweep += 1
            last = d.copy()
            _relax(d, last, slots, tail)
            lowered = d < last
            np.copyto(hops, sweep, where=lowered)
            settled = ~lowered.any(axis=0)
            if settled.any():
                done, keep = live[settled], ~settled
                block[:, done] = d[:, settled]
                block_hops[:, done] = hops[:, settled]
                live, d, hops = live[keep], d[:, keep], hops[:, keep]
        dist[cols] = block[rank].T
        pred[cols] = _predecessors(block, block_hops, slots, tail)[rank].T
    return dist, pred


def _relax(d: np.ndarray, last: np.ndarray, slots, tail) -> None:
    """One sweep: lower ``d`` in place by every arc, reading ``last``."""
    for count, rows, _, w in slots:
        via = last[rows]
        via += w
        np.minimum(d[:count], via, out=d[:count])
    rows, _, w = tail
    if rows.size:
        via = last[rows]
        via += w
        np.minimum(d[0], via.min(axis=0), out=d[0])


def _predecessors(d: np.ndarray, hops: np.ndarray, slots, tail) -> np.ndarray:
    """Each node's predecessor id by the tie rule, rows by rank.

    A tight arc ``p -> v`` has ``d[p] + w == d[v]``; when it adds
    nothing (``d[p] == d[v]``) it counts only if ``p`` is reached over
    fewer edges (``hops``).  Among the tight arcs the smallest ``d[p]``
    wins, then the largest ``p``: the slots come in decreasing source
    id, so a later arc replaces the best only when strictly closer.
    """
    best = np.full(d.shape, np.inf)
    pred = np.full(d.shape, -1, dtype=np.intp)
    for count, rows, ids, w in slots:
        via = d[rows]
        tight = via + w == d[:count]
        tight &= (via < d[:count]) | (hops[rows] < hops[:count])
        tight &= via < best[:count]
        np.copyto(best[:count], via, where=tight)
        np.copyto(pred[:count], ids[:, None], where=tight)
    rows, ids, w = tail
    if rows.size:
        via = d[rows]
        tight = via + w == d[0]
        tight &= (via < d[0]) | (hops[rows] < hops[0])
        via = np.where(tight, via, np.inf)
        first = via.argmin(axis=0)
        closer = via[first, np.arange(d.shape[1])] < best[0]
        pred[0] = np.where(closer, ids[first], pred[0])
    return pred
