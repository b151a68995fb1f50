"""Union-find decoder (Delfosse-Nickerson style), batched + vectorised.

Almost-linear-time alternative to blossom matching: clusters grow
outward from flagged detectors in weighted steps; clusters with even
syndrome parity (or touching the boundary) freeze; merged clusters pool
their parity.  A spanning-forest peeling pass then extracts a correction
inside the grown region.  Decoding accuracy is slightly below MWPM but
thresholds match to within a few tenths of a percent, which is why the
paper-scale sweeps use it for the largest distances.

Two implementations share the semantics exactly:

- ``decode`` — the per-shot scalar reference (kept verbatim as the
  equivalence oracle for the batched kernel);
- ``decode_many`` / ``decode_unique_words`` — the **batched vectorised
  kernel** the packed pipeline calls.  Each growth round is computed
  with numpy over *all edges of all still-active syndromes at once*:
  an array-based DSU (per-row ``parent``/``rank`` with path-halving
  finds and pointer-doubling batch root resolution), frontier sides
  and the weighted growth step as masked reductions over the
  ``(batch, edges)`` plane, and per-root parity / boundary-contact
  tracked in ``(batch, nodes)`` arrays.  Only the rare merge events
  (a handful of completed edges per round) run scalar code, in the
  same edge-index order as the reference, so the grown-edge sets —
  and therefore the peeled corrections — are bit-identical.  Peeling
  runs over the precomputed edge arrays (endpoints + observable
  masks) instead of per-edge object traversal.

Near threshold, where nearly every syndrome is distinct and dedupe
stops helping, this removes the Python-loop-per-shot overhead that
made decoding the end-to-end bottleneck.
"""

from __future__ import annotations

import numpy as np

from ..sim.dem_sampler import unpack_bool_rows
from .batch import BatchDecoderMixin
from .graph import DetectorGraph

# Rows decoded per vectorised growth pass: bounds the (rows, edges) and
# (rows, nodes) work arrays to a few tens of MB on the largest sweep
# circuits without affecting results (rows are independent).
_BATCH_ROWS = 1024


class _DisjointSet:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return ra


def _batch_roots(parent: np.ndarray) -> np.ndarray:
    """Resolve every node's DSU root for a ``(rows, nodes)`` parent
    array by pointer doubling (chains are short: the per-row finds use
    path halving)."""
    roots = parent
    while True:
        nxt = np.take_along_axis(roots, roots, axis=1)
        if np.array_equal(nxt, roots):
            return roots
        roots = nxt


def _find_row(parent_row: np.ndarray, a: int) -> int:
    """Path-halving find on one row of the batch DSU."""
    while parent_row[a] != a:
        parent_row[a] = parent_row[parent_row[a]]
        a = int(parent_row[a])
    return int(a)


class UnionFindDecoder(BatchDecoderMixin):
    """Weighted-growth union-find decoding over a detector graph."""

    def __init__(self, graph: DetectorGraph):
        self.graph = graph
        self.num_detectors = graph.num_detectors
        self.detector_mask = graph.detector_mask()
        # Precomputed edge arrays: the batched kernel's CSR-style view
        # of the graph (endpoints, weights, observable masks), shared
        # with the peeling pass.
        edges = graph.edges
        self._edge_u = np.array([e.u for e in edges], dtype=np.int64)
        self._edge_v = np.array([e.v for e in edges], dtype=np.int64)
        self._edge_w = np.array([e.weight for e in edges], dtype=np.float64)
        self._edge_obs = np.array([e.observables for e in edges], dtype=np.int64)

    # ------------------------------------------------------------------
    # Batched vectorised path (what the packed pipeline calls)
    # ------------------------------------------------------------------
    def decode_unique_words(self, det_words: np.ndarray) -> np.ndarray:
        """Batched kernel entry point for the packed decode protocol."""
        return self.decode_many(unpack_bool_rows(det_words, self.num_detectors))

    def decode_many(self, detector_samples: np.ndarray) -> np.ndarray:
        """Decode a ``(rows, detectors)`` boolean batch in vectorised
        growth rounds; bit-identical to per-row ``decode``."""
        samples = np.atleast_2d(np.asarray(detector_samples, dtype=bool))
        out = np.zeros(samples.shape[0], dtype=np.int64)
        nonempty = np.flatnonzero(samples.any(axis=1))
        for start in range(0, len(nonempty), _BATCH_ROWS):
            chunk = nonempty[start:start + _BATCH_ROWS]
            bits = samples[chunk]
            grown = self._grow_batch(bits)
            for slot, row in enumerate(chunk.tolist()):
                flagged = set(np.flatnonzero(bits[slot]).tolist())
                out[row] = self._peel(flagged, grown[slot])
        return out

    def _grow_batch(self, bits: np.ndarray) -> list[list[int]]:
        """Run the growth rounds for a batch of non-empty syndromes;
        returns each row's fully-grown edge list in completion order
        (identical to the scalar reference's ``grown_edges``)."""
        graph = self.graph
        nrows, nd = bits.shape
        n = graph.num_nodes
        ne = len(graph.edges)
        grown: list[list[int]] = [[] for _ in range(nrows)]
        if ne == 0:
            return grown
        eu, ev, ew = self._edge_u, self._edge_v, self._edge_w
        boundary = graph.boundary

        parent = np.broadcast_to(np.arange(n, dtype=np.int64), (nrows, n)).copy()
        rank = np.zeros((nrows, n), dtype=np.int8)
        # parity / touches are valid at root indices only; in_cluster
        # never includes the boundary (mirroring the scalar reference).
        parity = np.zeros((nrows, n), dtype=np.int64)
        parity[:, :nd] = bits
        touches = np.zeros((nrows, n), dtype=bool)
        in_cluster = np.zeros((nrows, n), dtype=bool)
        in_cluster[:, :nd] = bits
        growth = np.zeros((nrows, ne), dtype=np.float64)
        fully = np.zeros((nrows, ne), dtype=bool)

        alive = np.arange(nrows)
        max_rounds = 4 * ne + 8
        for _ in range(max_rounds):
            # Frontier sides over the whole (alive rows, edges) plane:
            # an edge grows once from each endpoint that sits in an
            # active (odd-parity, boundary-free) cluster.
            roots = _batch_roots(parent[alive])
            active_root = ((parity[alive] & 1) != 0) & ~touches[alive]
            node_active = in_cluster[alive] & np.take_along_axis(
                active_root, roots, axis=1
            )
            sides = node_active[:, eu].astype(np.int8)
            sides += node_active[:, ev].astype(np.int8)
            sides[fully[alive]] = 0
            cont = sides.any(axis=1)
            alive = alive[cont]
            if len(alive) == 0:
                break
            sides = sides[cont]
            # Per-row step: the smallest amount that completes at least
            # one frontier edge (two-sided edges fill twice as fast).
            sub_growth = growth[alive]
            with np.errstate(divide="ignore", invalid="ignore"):
                need = np.where(
                    sides > 0, (ew[None, :] - sub_growth) / sides, np.inf
                )
            step = np.maximum(need.min(axis=1), 0.0)
            was_full = fully[alive]
            sub_growth += step[:, None] * sides
            growth[alive] = sub_growth
            newly = (sides > 0) & ~was_full & (sub_growth >= ew[None, :] - 1e-12)
            fully[alive] |= newly
            # Merge events are rare (typically one edge per round per
            # row); process them scalar, in the reference's edge-index
            # order, so cluster bookkeeping stays bit-identical.
            hit_rows, hit_edges = np.nonzero(newly)
            for r, e in zip(hit_rows.tolist(), hit_edges.tolist()):
                b = int(alive[r])
                grown[b].append(e)
                u, v = int(eu[e]), int(ev[e])
                prow = parent[b]
                if u != boundary:
                    in_cluster[b, u] = True
                if v != boundary:
                    in_cluster[b, v] = True
                if u == boundary or v == boundary:
                    inner = v if u == boundary else u
                    touches[b, _find_row(prow, inner)] = True
                    continue
                ru, rv = _find_row(prow, u), _find_row(prow, v)
                if ru == rv:
                    continue
                if rank[b, ru] < rank[b, rv]:
                    ru, rv = rv, ru
                prow[rv] = ru
                if rank[b, ru] == rank[b, rv]:
                    rank[b, ru] += 1
                parity[b, ru] += parity[b, rv]
                parity[b, rv] = 0
                if touches[b, rv]:
                    touches[b, ru] = True
                    touches[b, rv] = False
        return grown

    # ------------------------------------------------------------------
    # Scalar reference path
    # ------------------------------------------------------------------
    def decode(self, detector_sample: np.ndarray) -> int:
        graph = self.graph
        flagged = set(int(d) for d in np.flatnonzero(detector_sample))
        if not flagged:
            return 0
        boundary = graph.boundary
        n = graph.num_nodes
        edges = graph.edges

        dsu = _DisjointSet(n)
        # Cluster bookkeeping keyed by dsu root.
        parity = {d: 1 for d in flagged}
        touches_boundary: set[int] = set()
        growth = np.zeros(len(edges))          # how much of each edge is filled
        in_cluster = np.zeros(n, dtype=bool)
        for d in flagged:
            in_cluster[d] = True
        grown_edges: list[int] = []
        fully_grown = np.zeros(len(edges), dtype=bool)

        def cluster_active(root: int) -> bool:
            return parity.get(root, 0) % 2 == 1 and root not in touches_boundary

        active = {dsu.find(d) for d in flagged if cluster_active(dsu.find(d))}
        max_rounds = 4 * len(edges) + 8
        rounds = 0
        while active and rounds < max_rounds:
            rounds += 1
            # Each edge on an active cluster's boundary grows from every
            # active side (two-sided half-edge growth); the step is the
            # smallest amount that completes at least one edge, so merges
            # and freezes are processed before any over-growth.
            frontier: list[tuple[int, int]] = []  # (edge idx, active sides)
            for idx, edge in enumerate(edges):
                if fully_grown[idx]:
                    continue
                sides = 0
                for node in (edge.u, edge.v):
                    if node == boundary or not in_cluster[node]:
                        continue
                    if dsu.find(node) in active:
                        sides += 1
                if sides:
                    frontier.append((idx, sides))
            if not frontier:
                break
            step = min(
                (edges[idx].weight - growth[idx]) / sides
                for idx, sides in frontier
            )
            step = max(step, 0.0)
            newly_full: list[int] = []
            for idx, sides in frontier:
                growth[idx] += step * sides
                if growth[idx] >= edges[idx].weight - 1e-12:
                    fully_grown[idx] = True
                    newly_full.append(idx)
            for idx in newly_full:
                edge = edges[idx]
                grown_edges.append(idx)
                for node in (edge.u, edge.v):
                    if node == boundary:
                        continue
                    if not in_cluster[node]:
                        in_cluster[node] = True
                        parity.setdefault(dsu.find(node), 0)
                u_is_b = edge.u == boundary
                v_is_b = edge.v == boundary
                if u_is_b or v_is_b:
                    inner = edge.v if u_is_b else edge.u
                    root = dsu.find(inner)
                    touches_boundary.add(root)
                else:
                    ru, rv = dsu.find(edge.u), dsu.find(edge.v)
                    if ru != rv:
                        pu = parity.pop(ru, 0)
                        pv = parity.pop(rv, 0)
                        tb = (ru in touches_boundary) or (rv in touches_boundary)
                        touches_boundary.discard(ru)
                        touches_boundary.discard(rv)
                        r = dsu.union(ru, rv)
                        parity[r] = pu + pv
                        if tb:
                            touches_boundary.add(r)
            active = set()
            for node in np.flatnonzero(in_cluster):
                root = dsu.find(int(node))
                if cluster_active(root):
                    active.add(root)
        return self._peel(flagged, grown_edges)

    def _peel(self, flagged: set[int], grown_edges: list[int]) -> int:
        """Spanning-forest peeling inside the grown region (shared by
        the scalar and batched paths; operates on the precomputed edge
        arrays)."""
        boundary = self.graph.boundary
        eu, ev, eobs = self._edge_u, self._edge_v, self._edge_obs
        # Build the grown subgraph.
        adj: dict[int, list[int]] = {}
        for idx in grown_edges:
            adj.setdefault(int(eu[idx]), []).append(idx)
            adj.setdefault(int(ev[idx]), []).append(idx)

        # Spanning forest via BFS, rooting trees at the boundary if present.
        visited: set[int] = set()
        tree_edges: list[tuple[int, int, int]] = []  # (parent, child, edge idx)
        order: list[int] = []
        roots = [boundary] if boundary in adj else []
        roots += [n for n in adj if n != boundary]
        for root in roots:
            if root in visited:
                continue
            visited.add(root)
            queue = [root]
            while queue:
                node = queue.pop()
                order.append(node)
                for idx in adj.get(node, ()):
                    u = int(eu[idx])
                    other = int(ev[idx]) if u == node else u
                    if other in visited:
                        continue
                    visited.add(other)
                    tree_edges.append((node, other, idx))
                    queue.append(other)

        # Peel leaves upward: a child with odd residual parity consumes its
        # tree edge (adding the edge's observable mask to the correction).
        residual = {node: (1 if node in flagged else 0) for node in visited}
        residual[boundary] = 0
        mask = 0
        for parent, child, idx in reversed(tree_edges):
            if residual.get(child, 0) % 2 == 1:
                mask ^= int(eobs[idx])
                residual[child] = 0
                if parent != boundary:
                    residual[parent] = residual.get(parent, 0) + 1
        return mask
