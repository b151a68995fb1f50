"""Detector graph shared by the matching decoders.

Graphlike errors from a :class:`DetectorErrorModel` become weighted
edges: an error flipping two detectors joins them, an error flipping one
detector joins it to the virtual *boundary* node.  Edge weights are
log-likelihood ratios ``log((1-p)/p)`` so that minimum-weight matching
corresponds to maximum-likelihood (independent-errors) decoding.

The all-pairs search behind :meth:`DetectorGraph.shortest_paths` is
scipy's sparse Dijkstra, and :func:`load_dijkstra` is the one place
that imports it.  Importing ``scipy.sparse`` costs about a quarter of
a second and 24 MB, which a compile-only process never needs, so the
import is deferred until a process is about to decode.  Processes that
will sample call :func:`load_dijkstra` up front instead (a sampling
:class:`~repro.engine.Runner` at construction, ``sample_circuit`` on
entry, each worker before its first shard), so the import lands in
their set-up and never inside a sweep or a shard's elapsed time.
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


def load_dijkstra():
    """Import scipy's sparse all-pairs search; returns ``(coo_matrix,
    dijkstra)``.

    The only scipy import in the package.  Repeat calls are a module
    cache lookup, so callers that will decode call it early to move the
    import out of every timed interval (see the module docstring).
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    return coo_matrix, dijkstra


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

    def detector_mask(self) -> np.ndarray:
        """The detectors some edge touches, as one packed row of uint64
        words (the :func:`~repro.sim.dem_sampler.pack_bool_rows` layout).

        A defect on any other detector has nothing to match to, so the
        decoders abstain on it; masking syndromes with this row before
        deduplication drops it earlier, and the syndrome memo never
        tells apart syndromes that differ only there.  For a
        memory-experiment model these are the detectors of the
        observable's basis.
        """
        touched = np.zeros((1, self.num_detectors), dtype=bool)
        for edge in self.edges:
            touched[0, edge.u] = True
            if edge.v != self.boundary:
                touched[0, edge.v] = True
        return pack_bool_rows(touched)[0]

    # ------------------------------------------------------------------
    def shortest_paths(self) -> tuple[np.ndarray, np.ndarray]:
        """The all-pairs ``(dist, obs)`` matrices, computed once per graph.

        ``dist`` is the Dijkstra distance between every node pair
        (``inf`` when unreachable).  ``obs[u, v]`` is the observable
        mask of the shortest u-v path in the tree rooted at
        ``min(u, v)``, and 0 for unreachable pairs: the correction a
        matching decoder applies for that pair, gathered rather than
        walked.  The masks come from scipy's predecessor matrix by
        pointer doubling: each pass XORs a node's partial path mask
        with its pointer's and jumps the pointer to the pointer's
        pointer, so every node reaches its root in ``log2(depth)``
        vectorised passes.

        scipy is imported here on first use (:func:`load_dijkstra`)
        unless the process loaded it earlier, as sampling runs do at
        construction so that the import is never timed as ``dijkstra``.
        """
        if self._dist is None:
            with span("dijkstra"):
                self._dist, self._obs = self._all_pairs()
        return self._dist, self._obs

    def _all_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        coo_matrix, dijkstra = load_dijkstra()
        n = self.num_nodes
        u = np.array([e.u for e in self.edges], dtype=np.intp)
        v = np.array([e.v for e in self.edges], dtype=np.intp)
        weight = [e.weight for e in self.edges]
        mat = coo_matrix((weight, (u, v)), shape=(n, n))
        dist, pred = dijkstra(mat, directed=False, return_predecessors=True)
        edge_obs = np.zeros((n, n), dtype=np.int64)
        edge_obs[u, v] = edge_obs[v, u] = [e.observables for e in self.edges]
        # Row r is the tree rooted at r.  ptr holds flat indices into
        # the (n, n) plane; roots and unreachable nodes point at
        # themselves, with mask 0.
        node = np.arange(n)
        ptr = np.where(pred < 0, node, pred)
        obs = edge_obs[ptr, node].ravel()
        del edge_obs, pred
        ptr = (ptr + (node * n)[:, None]).ravel()
        while True:
            nxt = ptr[ptr]
            if np.array_equal(nxt, ptr):
                break
            obs ^= obs[ptr]
            ptr = nxt
        # A pair reads the tree rooted at its smaller node.
        obs = obs.reshape(n, n)
        return dist, np.where(np.tri(n, k=-1, dtype=bool), obs.T, obs)

    def distance(self, u: int, v: int) -> float:
        return float(self.shortest_paths()[0][u, v])

    def floor_probability(self) -> float:
        """Probability that undetectable mechanisms flip observable 0."""
        p = 0.0
        for obs_mask, prob in self.floor_errors:
            if obs_mask & 1:
                p = p + prob - 2 * p * prob
        return p
