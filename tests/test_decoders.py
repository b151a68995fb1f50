"""Decoder tests: graph construction, MWPM, union-find, lookup oracle."""

import numpy as np
import pytest

from repro.codes import (
    RepetitionCode,
    RotatedSurfaceCode,
    UniformNoise,
    ideal_memory_circuit,
)
from repro.decoders import (
    DetectorGraph,
    LookupDecoder,
    MwpmDecoder,
    UnionFindDecoder,
    llr_weight,
)
from repro.sim import (
    DemError,
    DetectorErrorModel,
    FrameSimulator,
    circuit_to_dem,
    pack_bool_rows,
)


def _failures(decoder, sample):
    """Per-shot logical failures of ``decoder`` on a boolean sample."""
    return decoder.logical_failures_packed(
        pack_bool_rows(sample.detectors), pack_bool_rows(sample.observables)
    )


def _line_graph(n=4, p=0.05):
    """Repetition-code-like detector line with boundary at both ends."""
    dem = DetectorErrorModel(n, 1)
    dem.errors.append(DemError((0,), (0,), p))       # boundary edge, logical
    for i in range(n - 1):
        dem.errors.append(DemError((i, i + 1), (), p))
    dem.errors.append(DemError((n - 1,), (), p))     # other boundary
    return DetectorGraph.from_dem(dem)


def _scipy_paths(graph):
    """scipy's all-pairs ``(dist, pred)`` over ``graph``'s edges."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    n = graph.num_nodes
    mat = coo_matrix((
        [e.weight for e in graph.edges],
        ([e.u for e in graph.edges], [e.v for e in graph.edges]),
    ), shape=(n, n))
    return dijkstra(mat, directed=False, return_predecessors=True)


def _assert_masks_match_walk(graph) -> int:
    """``obs[u, v]`` must be the observable mask of the shortest path
    in scipy's tree rooted at ``min(u, v)``, walked edge by edge, and 0
    for unreachable pairs.  Returns the number of reachable pairs."""
    dist, obs = graph.shortest_paths()
    ref_dist, pred = _scipy_paths(graph)
    assert np.array_equal(dist, ref_dist)
    edge_obs = {frozenset((e.u, e.v)): e.observables for e in graph.edges}
    reachable = 0
    for u in range(graph.num_nodes):
        for v in range(u + 1, graph.num_nodes):
            mask, node = 0, v
            if np.isfinite(ref_dist[u, v]):
                reachable += 1
                while node != u:
                    prev = int(pred[u, node])
                    mask ^= edge_obs[frozenset((prev, node))]
                    node = prev
            assert obs[u, v] == obs[v, u] == mask
    return reachable


class TestDetectorGraph:
    def test_weights_are_llr(self):
        graph = _line_graph(p=0.05)
        for edge in graph.edges:
            assert edge.weight == pytest.approx(llr_weight(0.05))

    def test_edge_count(self):
        graph = _line_graph(4)
        assert len(graph.edges) == 5  # 3 internal + 2 boundary

    def test_rejects_hyperedges(self):
        dem = DetectorErrorModel(3, 0, [DemError((0, 1, 2), (), 0.1)])
        with pytest.raises(ValueError):
            DetectorGraph.from_dem(dem)

    def test_parallel_edges_fold(self):
        dem = DetectorErrorModel(2, 0)
        dem.errors.append(DemError((0, 1), (), 0.1))
        dem.errors.append(DemError((0, 1), (), 0.1))
        graph = DetectorGraph.from_dem(dem)
        assert len(graph.edges) == 1
        assert graph.edges[0].probability == pytest.approx(0.18)

    def test_distance_and_path_mask(self):
        graph = _line_graph(4, p=0.05)
        w = llr_weight(0.05)
        # 0 and 3 connect through the boundary node (2 edges), which is
        # equivalent to matching each endpoint to its own boundary.
        assert graph.distance(0, 3) == pytest.approx(2 * w)
        assert graph.distance(1, 2) == pytest.approx(w)
        assert graph.distance(0, graph.boundary) == pytest.approx(w)
        # Path 1 -> left boundary crosses the logical edge.
        _, obs = graph.shortest_paths()
        assert obs[1, graph.boundary] in (0, 1)

    @pytest.mark.parametrize("distance, topology", [
        (3, "grid"), (3, "linear"), (3, "switch"), (5, "grid"),
    ])
    def test_path_masks_match_a_predecessor_walk(self, distance, topology):
        from repro.engine import CompilationCache, SweepSpec
        from repro.engine.runner import compile_design_point
        from repro.noise.parameters import DEFAULT_NOISE

        [job] = SweepSpec(
            distances=(distance,), topologies=(topology,)
        ).expand()
        art = compile_design_point(job, DEFAULT_NOISE, need_circuit=True)
        graph = CompilationCache().compiled(art.circuit, art.text).graph
        _, obs = graph.shortest_paths()
        reachable = _assert_masks_match_walk(graph)
        # The other basis's detectors are unreachable: a memory
        # experiment's graph holds only the observable's basis.
        n = graph.num_nodes
        assert 0 < reachable < n * (n - 1) // 2
        assert obs.any()  # some paths cross the logical observable

    @pytest.mark.parametrize("distance", [3, 5, 7])
    @pytest.mark.parametrize("basis", ["X", "Z"])
    def test_ideal_surface_masks_match_a_predecessor_walk(
        self, distance, basis
    ):
        code = RotatedSurfaceCode(distance)
        for p in (1e-3, 1e-2):
            circ = ideal_memory_circuit(code, distance, basis, UniformNoise(p))
            graph = DetectorGraph.from_dem(circuit_to_dem(circ))
            assert _assert_masks_match_walk(graph) > 0

    def test_tied_pair_reads_the_smaller_roots_tree(self):
        # Hexagon 0-2-4-1-3-5-0 of equal weights: 0 and 1 are joined by
        # two shortest paths, only one crossing the observable, and the
        # trees rooted at 0 and at 1 take different ones.
        dem = DetectorErrorModel(6, 1)
        for a, b in ((0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0)):
            obs = (0,) if (a, b) == (2, 4) else ()
            dem.errors.append(DemError((a, b), obs, 0.1))
        graph = DetectorGraph.from_dem(dem)
        _assert_masks_match_walk(graph)
        _, pred = _scipy_paths(graph)
        assert {int(pred[0, 1]), int(pred[1, 0])} == {4, 5}  # tie is real

    def test_floor_probability(self):
        dem = DetectorErrorModel(1, 1)
        dem.errors.append(DemError((), (0,), 0.01))
        graph = DetectorGraph.from_dem(dem)
        assert graph.floor_probability() == pytest.approx(0.01)


class TestMwpmDecoder:
    def test_empty_syndrome_no_correction(self):
        dec = MwpmDecoder(_line_graph())
        assert dec.decode(np.zeros(4, dtype=bool)) == 0

    def test_single_flag_matches_to_boundary(self):
        graph = _line_graph(4)
        dec = MwpmDecoder(graph)
        syndrome = np.zeros(4, dtype=bool)
        syndrome[0] = True  # nearest boundary is the logical edge
        assert dec.decode(syndrome) == 1

    def test_pair_matches_internally(self):
        graph = _line_graph(4)
        dec = MwpmDecoder(graph)
        syndrome = np.zeros(4, dtype=bool)
        syndrome[1] = syndrome[2] = True
        # Internal match crosses no logical edge.
        assert dec.decode(syndrome) == 0

    def test_far_flag_prefers_near_boundary(self):
        graph = _line_graph(4)
        dec = MwpmDecoder(graph)
        syndrome = np.zeros(4, dtype=bool)
        syndrome[3] = True
        assert dec.decode(syndrome) == 0  # right boundary, no logical


class TestDecoderAccuracy:
    @pytest.fixture(scope="class")
    def repetition_setup(self):
        code = RepetitionCode(3)
        circ = ideal_memory_circuit(code, rounds=3, noise=UniformNoise(0.01))
        dem = circuit_to_dem(circ)
        graph = DetectorGraph.from_dem(dem)
        sample = FrameSimulator(circ, seed=42).sample(3000)
        return dem, graph, sample

    def test_mwpm_suppresses_repetition_errors(self, repetition_setup):
        _, graph, sample = repetition_setup
        dec = MwpmDecoder(graph)
        fails = _failures(dec, sample)
        # Raw (undecoded) failure rate for comparison.
        raw = sample.observables[:, 0].mean()
        assert fails.mean() < raw
        assert fails.mean() < 0.01

    def test_union_find_close_to_mwpm(self, repetition_setup):
        _, graph, sample = repetition_setup
        mwpm = _failures(MwpmDecoder(graph), sample)
        uf = _failures(UnionFindDecoder(graph), sample)
        # Union-find trades accuracy for speed; it must still decode far
        # better than chance and within an order of magnitude of MWPM.
        assert uf.mean() <= max(10 * mwpm.mean(), 0.04)

    def test_lookup_oracle_at_least_as_good_on_weight1(self, repetition_setup):
        dem, graph, sample = repetition_setup
        lookup = LookupDecoder(dem, max_weight=1)
        mwpm = MwpmDecoder(graph)
        # Compare on shots with at most 2 flagged detectors.
        light = sample.detectors.sum(axis=1) <= 2
        dets = sample.detectors[light][:200]
        obs = sample.observables[light][:200]
        words = pack_bool_rows(dets)
        lk = (lookup.decode_packed_batch(words) & 1) != obs[:, 0]
        mw = (mwpm.decode_packed_batch(words) & 1) != obs[:, 0]
        assert lk.mean() <= mw.mean() + 0.05

    def test_surface_code_distance_suppression(self):
        """LER decreases with distance below threshold (MWPM)."""
        rates = []
        for d in (3, 5):
            code = RotatedSurfaceCode(d)
            circ = ideal_memory_circuit(code, rounds=d, noise=UniformNoise(0.003))
            graph = DetectorGraph.from_dem(circuit_to_dem(circ))
            sample = FrameSimulator(circ, seed=7).sample(2500)
            fails = _failures(MwpmDecoder(graph), sample)
            rates.append((fails.sum() + 0.5) / (len(fails) + 1))
        assert rates[1] < rates[0]


class TestLookupDecoder:
    def test_rejects_bad_weight(self):
        dem = DetectorErrorModel(1, 0, [DemError((0,), (), 0.1)])
        with pytest.raises(ValueError):
            LookupDecoder(dem, max_weight=0)

    def test_exact_on_single_errors(self):
        dem = DetectorErrorModel(2, 1)
        dem.errors.append(DemError((0,), (0,), 0.1))
        dem.errors.append(DemError((1,), (), 0.1))
        dec = LookupDecoder(dem, max_weight=1)
        assert dec.decode(np.array([True, False])) == 1
        assert dec.decode(np.array([False, True])) == 0
        assert dec.decode(np.array([False, False])) == 0

    def test_unknown_syndrome_abstains(self):
        dem = DetectorErrorModel(3, 1, [DemError((0,), (0,), 0.1)])
        dec = LookupDecoder(dem, max_weight=1)
        assert dec.decode(np.array([True, True, True])) == 0
