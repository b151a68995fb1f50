"""Detector graph shared by the matching decoders.

Graphlike errors from a :class:`DetectorErrorModel` become weighted
edges: an error flipping two detectors joins them, an error flipping one
detector joins it to the virtual *boundary* node.  Edge weights are
log-likelihood ratios ``log((1-p)/p)`` so that minimum-weight matching
corresponds to maximum-likelihood (independent-errors) decoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from ..sim.dem import DetectorErrorModel
from ..sim.dem_sampler import pack_bool_rows

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
    _pred: np.ndarray | None = None
    _adj: dict[int, list[int]] | None = None
    _pair_obs: dict[tuple[int, int], int] | None = None

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
    def edge_between(self, u: int, v: int) -> DetectorEdge | None:
        key = (min(u, v), max(u, v))
        for edge in self.edges:
            if (min(edge.u, edge.v), max(edge.u, edge.v)) == key:
                return edge
        return None

    def neighbors(self) -> dict[int, list[int]]:
        """Adjacency lists (cached) in terms of edge indices."""
        if self._adj is None:
            adj: dict[int, list[int]] = {i: [] for i in range(self.num_nodes)}
            for idx, edge in enumerate(self.edges):
                adj[edge.u].append(idx)
                adj[edge.v].append(idx)
            self._adj = adj
        return self._adj

    # ------------------------------------------------------------------
    def _ensure_shortest_paths(self) -> None:
        if self._dist is not None:
            return
        n = self.num_nodes
        rows = [e.u for e in self.edges]
        cols = [e.v for e in self.edges]
        data = [e.weight for e in self.edges]
        mat = coo_matrix((data, (rows, cols)), shape=(n, n))
        dist, pred = dijkstra(
            mat, directed=False, return_predecessors=True
        )
        self._dist = dist
        self._pred = pred

    def shortest_paths(self) -> tuple[np.ndarray, np.ndarray]:
        """The all-pairs ``(dist, pred)`` matrices, computing on demand.

        These are the expensive per-circuit decoder artefact (Dijkstra
        over every node); the engine's :class:`CompilationCache` stores
        them on disk and ships them to workers so each is computed at
        most once per circuit fleet-wide.
        """
        self._ensure_shortest_paths()
        return self._dist, self._pred

    def set_shortest_paths(self, dist: np.ndarray, pred: np.ndarray) -> None:
        """Inject precomputed ``(dist, pred)`` matrices (cache restore)."""
        dist = np.asarray(dist, dtype=np.float64)
        pred = np.asarray(pred)
        n = self.num_nodes
        if dist.shape != (n, n) or pred.shape != (n, n):
            raise ValueError(
                f"distance matrices must be {(n, n)}, got "
                f"{dist.shape} / {pred.shape}"
            )
        self._dist = dist
        self._pred = pred

    def distance(self, u: int, v: int) -> float:
        self._ensure_shortest_paths()
        return float(self._dist[u, v])

    def path_observable_mask(self, u: int, v: int) -> int:
        """XOR of edge observable masks along the shortest u-v path.

        Memoised per node pair: matching decoders re-derive the same
        pair corrections for every syndrome that matches them.
        """
        if u > v:
            u, v = v, u
        if self._pair_obs is None:
            self._pair_obs = {}
        cached = self._pair_obs.get((u, v))
        if cached is not None:
            return cached
        self._ensure_shortest_paths()
        edge_obs = self._edge_obs_lookup()
        mask = 0
        node = v
        while node != u:
            prev = int(self._pred[u, node])
            if prev < 0:
                raise ValueError(f"nodes {u} and {v} are disconnected")
            mask ^= edge_obs[(min(prev, node), max(prev, node))]
            node = prev
        self._pair_obs[(u, v)] = mask
        return mask

    def path_nodes(self, u: int, v: int) -> list[int]:
        self._ensure_shortest_paths()
        path = [v]
        node = v
        while node != u:
            node = int(self._pred[u, node])
            if node < 0:
                raise ValueError(f"nodes {u} and {v} are disconnected")
            path.append(node)
        path.reverse()
        return path

    def _edge_obs_lookup(self) -> dict[tuple[int, int], int]:
        lookup = getattr(self, "_edge_obs_memo", None)
        if lookup is not None:
            return lookup
        lookup = {}
        for edge in self.edges:
            key = (min(edge.u, edge.v), max(edge.u, edge.v))
            existing = lookup.get(key)
            if existing is None:
                lookup[key] = edge.observables
        object.__setattr__(self, "_edge_obs_memo", lookup)
        return lookup

    def floor_probability(self) -> float:
        """Probability that undetectable mechanisms flip observable 0."""
        p = 0.0
        for obs_mask, prob in self.floor_errors:
            if obs_mask & 1:
                p = p + prob - 2 * p * prob
        return p
