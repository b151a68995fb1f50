"""Minimum-weight perfect matching decoder (PyMatching substitute).

The decoder pairs up flagged detectors (or matches them to the virtual
boundary) so that the total log-likelihood weight of the implied error
chains is minimised, then reports which logical observables those chains
flip.  Distances and path observable masks come from the detector
graph's one all-pairs search (:meth:`DetectorGraph.shortest_paths`),
so every correction is a gather from two dense matrices.

Per-decode matching never builds a graph object per shot.  Three
exact reductions run first:

1. **boundary-dominated pruning** — a pair edge with
   ``d(a, b) >= d(a, B) + d(b, B)`` can always be replaced by two
   boundary matches at no extra cost, so only *useful* edges (strictly
   cheaper than going through the boundary) need be considered;
2. **cluster decomposition** — connected components of the useful-edge
   graph are independent matching subproblems (no optimal matching
   pairs across them);
3. **exact subset DP** per small cluster — minimum-weight matching
   with a boundary option in O(2^m * m), which at the error rates
   worth sweeping covers nearly every syndrome.

Clusters too large for the DP fall back to blossom matching
(:mod:`.blossom`, an in-repo port of networkx's ``max_weight_matching``
that returns the same matchings) on a *halved* construction: a dense
matrix over ``k`` nodes with pair weights ``min(d(a,b), d(a,B)+d(b,B))``
plus one virtual boundary node when ``k`` is odd — equivalent to, and
much smaller than, the classic 2k-node boundary-copy clique.
"""

from __future__ import annotations

import numpy as np

from ..sim.dem_sampler import unpack_bool_rows
from .batch import BatchDecoderMixin
from .blossom import max_weight_matching
from .graph import DetectorGraph

# Largest cluster solved by the exact subset DP.  Against the in-repo
# blossom on random complete clusters (2-vCPU host, per cluster) the
# scalar DP wins through m=9 (0.24 vs 0.33 ms) and the two cross at
# m=10 (DP 0.61, batched DP 0.47, blossom 0.36 ms).  The cap stays at
# 10: moving it changes which of several equal-weight matchings a
# cluster gets, and with it the failure counts.
_DP_MAX_CLUSTER = 10


# Cluster-mask memo bound (entries): clusters are local structures and
# recur across distinct syndromes far more often than whole syndromes
# repeat, so this is the decoder's highest-leverage cache.
_CLUSTER_MEMO_LIMIT = 1 << 18


class MwpmDecoder(BatchDecoderMixin):
    """Decode detector samples by minimum-weight perfect matching."""

    def __init__(self, graph: DetectorGraph):
        self.graph = graph
        self.num_detectors = graph.num_detectors
        self.detector_mask = graph.detector_mask()
        # obs[u, v]: observable mask of the shortest u-v path, 0 where
        # unreachable — so an unmatchable detector's boundary match
        # abstains with no guard.
        self._dist, self._obs = graph.shortest_paths()
        # cluster node tuple -> correction mask of its optimal matching
        self._cluster_masks: dict[tuple[int, ...], int] = {}

    # ------------------------------------------------------------------
    def decode_unique_words(self, det_words: np.ndarray) -> np.ndarray:
        """Vectorised batched decode of ``(k, words)`` distinct packed
        syndromes — bit-identical to mapping scalar :meth:`decode`.

        The scalar path spends its time in per-row python overhead:
        useful-edge pruning, component labelling and mask lookups for
        one syndrome at a time.  This kernel runs the whole pipeline
        over every distinct row at once:

        1. extract all defects with one ``np.nonzero``, gather every
           boundary distance in one fancy index;
        2. enumerate intra-row defect pairs grouped by defect count
           (one ``triu_indices`` expansion per distinct count) and test
           usefulness — ``d(a,b) < d(a,B) + d(b,B)`` — for all pairs in
           one comparison;
        3. label connected components of the useful-edge graph with a
           union-find over the global defect array (edges never cross
           rows, so all rows share one pass);
        4. resolve **singleton** components with a boundary-mask gather
           and **2-node** components with a pair-mask gather (a useful
           edge always pairs), XOR-scattered into their rows;
        5. solve the rare **3+-node** components through the same
           memoised cluster machinery (:meth:`_solve_cluster`) the
           scalar path uses — node tuples are ascending, matching the
           canonical ``_components`` order, so both paths share the
           cluster-mask memo and break weight ties identically.
        """
        words = np.atleast_2d(np.ascontiguousarray(det_words, dtype=np.uint64))
        rows = unpack_bool_rows(words, self.num_detectors)
        out = np.zeros(words.shape[0], dtype=np.int64)
        ridx, cols = np.nonzero(rows)
        if cols.size == 0:
            return out
        counts = np.bincount(ridx, minlength=words.shape[0])
        dist = self._dist
        boundary = self.graph.boundary
        db = dist[cols, boundary]
        # Intra-row defect pairs, built per distinct defect count so the
        # local (i, j) triangle expands to global indices in one shot.
        offsets = np.concatenate(([0], np.cumsum(counts)))
        pa_parts: list[np.ndarray] = []
        pb_parts: list[np.ndarray] = []
        for k in np.unique(counts):
            if k < 2:
                continue
            base = offsets[np.flatnonzero(counts == k)][:, None]
            iu, ju = np.triu_indices(int(k), 1)
            pa_parts.append((base + iu[None, :]).ravel())
            pb_parts.append((base + ju[None, :]).ravel())
        edges_a = edges_b = None
        if pa_parts:
            pa = np.concatenate(pa_parts)
            pb = np.concatenate(pb_parts)
            useful = dist[cols[pa], cols[pb]] < db[pa] + db[pb] - 1e-12
            edges_a, edges_b = pa[useful], pb[useful]
        # Union-find over defects; union-by-min keeps each root the
        # smallest member, so stable sorts below recover components in
        # ascending defect order — the canonical cluster order.
        parent = list(range(cols.size))
        if edges_a is not None and edges_a.size:
            for a, b in zip(edges_a.tolist(), edges_b.tolist()):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                while parent[b] != b:
                    parent[b] = parent[parent[b]]
                    b = parent[b]
                if a != b:
                    if a < b:
                        parent[b] = a
                    else:
                        parent[a] = b
        roots = np.asarray(parent, dtype=np.intp)
        while True:
            nxt = roots[roots]
            if np.array_equal(nxt, roots):
                break
            roots = nxt
        _, comp_of, comp_sizes = np.unique(
            roots, return_inverse=True, return_counts=True
        )
        size_at = comp_sizes[comp_of]
        singles = np.flatnonzero(size_at == 1)
        if singles.size:
            np.bitwise_xor.at(
                out, ridx[singles], self._obs[cols[singles], boundary]
            )
        duos = np.flatnonzero(size_at == 2)
        if duos.size:
            duos = duos[np.argsort(roots[duos], kind="stable")]
            a = duos[0::2]  # members adjacent per component, ascending
            b = duos[1::2]
            np.bitwise_xor.at(out, ridx[a], self._obs[cols[a], cols[b]])
        big = np.flatnonzero(size_at >= 3)
        if big.size:
            self._solve_clusters_batch(big, roots, ridx, cols, db, out)
        return out

    def _solve_clusters_batch(
        self,
        big: np.ndarray,
        roots: np.ndarray,
        ridx: np.ndarray,
        cols: np.ndarray,
        db: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Resolve all 3+-node components of a batch, vectorised.

        Components are deduplicated against the cluster-mask memo *and*
        against each other (the same local cluster often appears in
        many rows of one batch), then the remaining misses are grouped
        by size and solved en masse: one :func:`_match3_batch` /
        :func:`_dp_match_batch` call per size runs the exact matcher
        for every cluster of that size at once, and the resulting pair
        lists turn into correction masks with two gathers.  Clusters
        past the DP cap (or groups too small to amortise the batched
        table) take the scalar :meth:`_solve_cluster` road.
        """
        dist = self._dist
        memo = self._cluster_masks
        big = big[np.argsort(roots[big], kind="stable")]
        cuts = np.flatnonzero(np.diff(roots[big])) + 1
        pending: dict[tuple[int, ...], tuple[np.ndarray, list[int]]] = {}
        for members in np.split(big, cuts):
            nodes = cols[members]
            key = tuple(nodes.tolist())
            row = int(ridx[members[0]])
            cached = memo.get(key)
            if cached is not None:
                out[row] ^= cached
                continue
            entry = pending.get(key)
            if entry is not None:
                entry[1].append(row)
            else:
                pending[key] = (members, [row])
        groups: dict[int, list[tuple[tuple[int, ...], np.ndarray, list[int]]]]
        groups = {}
        for key, (members, rows_hit) in pending.items():
            m = members.size
            if 3 <= m <= _DP_MAX_CLUSTER:
                groups.setdefault(m, []).append((key, members, rows_hit))
            else:
                nodes = cols[members]
                val = self._solve_cluster(
                    key, db[members], dist[np.ix_(nodes, nodes)]
                )
                for row in rows_hit:
                    out[row] ^= val
        for m, entries in groups.items():
            if len(entries) < _vec_min_clusters(m):
                for key, members, rows_hit in entries:
                    nodes = cols[members]
                    val = self._solve_cluster(
                        key, db[members], dist[np.ix_(nodes, nodes)]
                    )
                    for row in rows_hit:
                        out[row] ^= val
                continue
            members_mat = np.stack([members for _, members, _ in entries])
            nodes_mat = cols[members_mat]
            db_mat = db[members_mat]
            dd_mat = dist[nodes_mat[:, :, None], nodes_mat[:, None, :]]
            if m == 3:
                pairs = _match3_batch(db_mat, dd_mat)
            else:
                pairs = _dp_match_batch(db_mat, dd_mat)
            masks = self._masks_from_pairs(nodes_mat, pairs)
            for t, (key, _, rows_hit) in enumerate(entries):
                val = int(masks[t])
                if len(memo) < _CLUSTER_MEMO_LIMIT:
                    memo[key] = val
                for row in rows_hit:
                    out[row] ^= val

    def _masks_from_pairs(
        self, nodes_mat: np.ndarray, pairs: np.ndarray
    ) -> np.ndarray:
        """Correction masks for a size-grouped batch of solved clusters.

        ``pairs`` is the ``(clusters, slots, 2)`` output of a batched
        matcher: local index pairs with ``j = -1`` meaning the boundary
        and ``-2`` padding unused slots.  Boundary matches gather the
        graph's boundary masks (0 for unmatchable detectors, which
        abstain as in the scalar path); pair matches gather its pair
        masks.  One XOR-scatter folds every contribution into its
        cluster's mask.
        """
        masks = np.zeros(nodes_mat.shape[0], dtype=np.int64)
        cidx, sidx = np.nonzero(pairs[:, :, 0] != -2)
        ii = pairs[cidx, sidx, 0].astype(np.intp)
        jj = pairs[cidx, sidx, 1].astype(np.intp)
        u = nodes_mat[cidx, ii]
        v = np.where(
            jj < 0, self.graph.boundary, nodes_mat[cidx, np.maximum(jj, 0)]
        )
        np.bitwise_xor.at(masks, cidx, self._obs[u, v])
        return masks

    # ------------------------------------------------------------------
    def decode(self, detector_sample: np.ndarray) -> int:
        """Observable bitmask correction for one shot's detector bits."""
        flagged = np.flatnonzero(detector_sample)
        k = len(flagged)
        if k == 0:
            return 0
        boundary = self.graph.boundary
        dist = self._dist
        obs = self._obs
        # Scalar fast paths: at the error rates worth sweeping most
        # non-empty syndromes flag one or two detectors, where the full
        # cluster machinery is pure overhead.
        if k == 1:
            return int(obs[flagged[0], boundary])
        if k == 2:
            a, b = flagged
            if dist[a, b] < dist[a, boundary] + dist[b, boundary] - 1e-12:
                return int(obs[a, b])
            return int(obs[a, boundary] ^ obs[b, boundary])
        db = dist[flagged, boundary]
        dd = dist[np.ix_(flagged, flagged)]

        # Useful-edge adjacency: pairing a-b only ever beats matching
        # both to the boundary when it is strictly cheaper.
        useful = dd < (db[:, None] + db[None, :] - 1e-12)
        np.fill_diagonal(useful, False)

        mask = 0
        for cluster in _components(useful):
            if len(cluster) == 1:
                mask ^= int(obs[flagged[cluster[0]], boundary])
                continue
            nodes = tuple(int(flagged[i]) for i in cluster)
            mask ^= self._solve_cluster(
                nodes, db[cluster], dd[np.ix_(cluster, cluster)]
            )
        return mask

    def _solve_cluster(
        self, nodes: tuple[int, ...], db: np.ndarray, dd: np.ndarray
    ) -> int:
        """Optimal correction mask for one 2+-node cluster.

        Shared by the scalar and batched paths: a cluster's optimal
        correction depends only on its node set, and local clusters
        recur across distinct syndromes, so the mask is memoised (by
        the ascending node tuple) and only unseen clusters are solved.
        """
        cached = self._cluster_masks.get(nodes)
        if cached is not None:
            return cached
        m = len(nodes)
        if m == 2:
            # A useful edge is strictly cheaper than two boundary
            # chains by definition, so a 2-cluster always pairs.
            pairs: tuple[tuple[int, int], ...] | list[tuple[int, int]]
            pairs = ((0, 1),)
        elif m == 3:
            pairs = _match3(db, dd)
        elif m <= _DP_MAX_CLUSTER:
            pairs = _dp_match(db, dd)
        else:
            pairs = _blossom_match(db, dd)
        boundary = self.graph.boundary
        cluster_mask = 0
        for i, j in pairs:
            v = boundary if j < 0 else nodes[j]
            cluster_mask ^= int(self._obs[nodes[i], v])
        if len(self._cluster_masks) < _CLUSTER_MEMO_LIMIT:
            self._cluster_masks[nodes] = cluster_mask
        return cluster_mask


# ----------------------------------------------------------------------
# Matching internals (module-level: shared, and independently testable)
# ----------------------------------------------------------------------
def _components(useful: np.ndarray) -> list[list[int]]:
    """Connected components of the boolean useful-edge adjacency.

    Members come back in ascending order — the canonical cluster order
    shared with the batched union-find labelling, so scalar and batched
    decodes key the cluster-mask memo identically and feed the subset
    DP nodes in the same order (same weight-tie breaking).
    """
    k = useful.shape[0]
    rows, cols = np.nonzero(useful)
    adj: list[list[int]] = [[] for _ in range(k)]
    for a, b in zip(rows.tolist(), cols.tolist()):
        adj[a].append(b)
    comp = [-1] * k
    clusters: list[list[int]] = []
    for start in range(k):
        if comp[start] >= 0:
            continue
        label = len(clusters)
        members = [start]
        comp[start] = label
        stack = [start]
        while stack:
            for b in adj[stack.pop()]:
                if comp[b] < 0:
                    comp[b] = label
                    members.append(b)
                    stack.append(b)
        members.sort()
        clusters.append(members)
    return clusters


def _match3(db: np.ndarray, dd: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Exact matching-with-boundary for a 3-node cluster: one of the
    three pair-plus-boundary splits, or all three to the boundary."""
    best = db[0] + db[1] + db[2]
    pairs = ((0, -1), (1, -1), (2, -1))
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        cost = dd[i, j] + db[k]
        if cost < best:
            best = cost
            pairs = ((i, j), (k, -1))
    return pairs


# bits-of-subset lookup shared by every _dp_match call: _BITS[s] lists
# the set bit positions of s, for all subsets up to the DP size cap.
_BITS: list[tuple[int, ...]] = [
    tuple(b for b in range(_DP_MAX_CLUSTER) if s >> b & 1)
    for s in range(1 << _DP_MAX_CLUSTER)
]

# lowest-set-bit index per subset, for the vectorised DP backtrack.
_LOWBIT = np.zeros(1 << _DP_MAX_CLUSTER, dtype=np.int64)
for _s in range(1, 1 << _DP_MAX_CLUSTER):
    _LOWBIT[_s] = (_s & -_s).bit_length() - 1

# Fewer clusters of one size than this and the batched DP's table
# bookkeeping costs more than just looping the scalar matcher.  The
# batched table pays ~2^m vector operations regardless of how many
# clusters share them, so the break-even count grows with the size.
def _vec_min_clusters(m: int) -> int:
    return max(6, (1 << m) >> 4)


def _match3_batch(db: np.ndarray, dd: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_match3` over ``(C, 3)`` boundary distances
    and ``(C, 3, 3)`` pair distances: evaluate all four candidate
    matchings for every cluster at once.  ``argmin`` keeps the first
    minimal candidate, matching the scalar strict-``<`` scan order, so
    weight ties break identically."""
    costs = np.empty((4, db.shape[0]))
    costs[0] = db[:, 0] + db[:, 1] + db[:, 2]
    costs[1] = dd[:, 0, 1] + db[:, 2]
    costs[2] = dd[:, 0, 2] + db[:, 1]
    costs[3] = dd[:, 1, 2] + db[:, 0]
    templates = np.array(
        [
            [[0, -1], [1, -1], [2, -1]],
            [[0, 1], [2, -1], [-2, -2]],
            [[0, 2], [1, -1], [-2, -2]],
            [[1, 2], [0, -1], [-2, -2]],
        ],
        dtype=np.int8,
    )
    return templates[np.argmin(costs, axis=0)]


def _dp_match_batch(db: np.ndarray, dd: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_dp_match` over a batch of same-size clusters.

    The subset recurrence is identical — lowest unmatched node goes to
    the boundary or pairs with a later node, ascending-``j`` scan,
    strict-``<`` improvement — but each step updates all ``C`` clusters
    with one numpy operation, so the python loop cost (``2^m`` subsets
    times ``m/2`` partners) is paid once per *size group* instead of
    once per cluster.  Identical float comparisons in identical order
    mean identical tie-breaking, hence bit-identical matchings.

    Returns ``(C, m, 2)`` local index pairs, ``j = -1`` for boundary
    matches and ``-2`` padding unused slots.
    """
    count, m = db.shape
    size = 1 << m
    bits = _BITS
    cost = np.full((size, count), np.inf)
    choice = np.full((size, count), -1, dtype=np.int8)
    cost[0] = 0.0
    for subset in range(1, size):
        i = bits[subset][0]
        rest = subset ^ (1 << i)
        best = cost[rest] + db[:, i]
        pick = np.full(count, -1, dtype=np.int8)
        for j in bits[rest]:
            cand = cost[rest ^ (1 << j)] + dd[:, i, j]
            better = cand < best
            if better.any():
                best[better] = cand[better]
                pick[better] = j
        cost[subset] = best
        choice[subset] = pick
    pairs = np.full((count, m, 2), -2, dtype=np.int8)
    lanes = np.arange(count)
    subset = np.full(count, size - 1, dtype=np.int64)
    slot = 0
    while True:
        alive = subset > 0
        if not alive.any():
            break
        i = _LOWBIT[subset]
        j = choice[subset, lanes].astype(np.int64)
        pairs[alive, slot, 0] = i[alive]
        pairs[alive, slot, 1] = j[alive]
        cleared = (np.int64(1) << i) | np.where(
            j >= 0, np.int64(1) << np.maximum(j, 0), 0
        )
        subset = np.where(alive, subset ^ cleared, subset)
        slot += 1
    return pairs


def _dp_match(db: np.ndarray, dd: np.ndarray) -> list[tuple[int, int]]:
    """Exact minimum-weight matching-with-boundary over one cluster.

    Subset DP on the cluster's nodes: the lowest unmatched node either
    goes to the boundary (``db``) or pairs with another unmatched node
    (``dd``).  Returns ``(i, j)`` index pairs with ``j = -1`` meaning
    the boundary.
    """
    m = len(db)
    dbl = db.tolist()
    ddl = dd.tolist()
    size = 1 << m
    inf = float("inf")
    cost = [inf] * size
    choice = [-1] * size
    cost[0] = 0.0
    bits = _BITS
    for subset in range(1, size):
        i = bits[subset][0]
        rest = subset ^ (1 << i)
        best = cost[rest] + dbl[i]
        pick = -1
        row = ddl[i]
        for j in bits[rest]:
            c = cost[rest ^ (1 << j)] + row[j]
            if c < best:
                best, pick = c, j
        cost[subset] = best
        choice[subset] = pick
    pairs: list[tuple[int, int]] = []
    subset = size - 1
    while subset:
        i = bits[subset][0]
        j = choice[subset]
        pairs.append((i, j))
        subset ^= (1 << i) | ((1 << j) if j >= 0 else 0)
    return pairs


def _blossom_match(db: np.ndarray, dd: np.ndarray) -> list[tuple[int, int]]:
    """Blossom fallback for clusters too large for the subset DP.

    Halved construction: node pairs weigh the cheaper of a direct
    chain and two boundary chains; an odd cluster gains one virtual
    boundary node.  Matching through the boundary is recovered by
    comparing the chosen pair's direct and via-boundary costs.
    """
    k = len(db)
    via_boundary = db[:, None] + db[None, :]
    size = k + (k & 1)
    cost = np.full((size, size), np.inf)
    cost[:k, :k] = np.minimum(dd, via_boundary)
    if k & 1:
        cost[:k, k] = cost[k, :k] = db
    mate = max_weight_matching(-cost)
    pairs: list[tuple[int, int]] = []
    for a, b in enumerate(mate):
        if b <= a:
            continue  # unmatched, or already listed from its partner
        if b == k:  # odd node matched to the virtual boundary
            pairs.append((a, -1))
        elif dd[a, b] <= via_boundary[a, b]:
            pairs.append((a, b))
        else:  # "pair" realised as two boundary chains
            pairs.append((a, -1))
            pairs.append((b, -1))
    return pairs
