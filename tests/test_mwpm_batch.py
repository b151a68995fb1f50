"""Batched vectorised MWPM vs the scalar reference.

Mirror of ``test_union_find_batch.py`` for the MWPM decoder: the
packed pipeline silently routes every distinct syndrome through
``decode_unique_words``, so the batched kernel must be *bit-identical*
to per-shot ``decode`` — same masks, same weight-tie breaking, same
cluster-memo keys.  Exhaustive enumeration over small codes leaves no
room for a lucky sample; hypothesis sweeps random graphs and syndromes
on top.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    mwpm,
)
from repro.sim import (
    DemError,
    DetectorErrorModel,
    FrameSimulator,
    circuit_to_dem,
    pack_bool_rows,
)


def _all_syndromes(num_detectors: int) -> np.ndarray:
    return np.array(
        list(itertools.product((False, True), repeat=num_detectors)), dtype=bool
    )


def _assert_batch_matches_scalar(graph: DetectorGraph, rows: np.ndarray):
    decoder = MwpmDecoder(graph)
    scalar = np.array([decoder.decode(r) for r in rows], dtype=np.int64)
    batched = MwpmDecoder(graph).decode_unique_words(pack_bool_rows(rows))
    assert np.array_equal(batched, scalar)


def _line_dem(n: int, *, p_pair: float = 0.05, p_boundary: float = 0.01):
    """A detector chain whose interior prefers pairing over the
    boundary — dialing ``p_boundary`` down makes boundary chains
    expensive, growing the useful-edge clusters."""
    dem = DetectorErrorModel(n, 2)
    dem.errors.append(DemError((0,), (0,), p_boundary))
    for i in range(n - 1):
        dem.errors.append(DemError((i, i + 1), ((i % 2),), p_pair))
    dem.errors.append(DemError((n - 1,), (1,), p_boundary))
    return dem


class TestExhaustiveEquivalence:
    def test_repetition_memory_every_syndrome(self):
        circ = ideal_memory_circuit(
            RepetitionCode(3), rounds=2, noise=UniformNoise(0.02)
        )
        graph = DetectorGraph.from_dem(circuit_to_dem(circ))
        assert graph.num_detectors <= 10  # keep the enumeration honest
        _assert_batch_matches_scalar(graph, _all_syndromes(graph.num_detectors))

    def test_line_graph_every_syndrome(self):
        graph = DetectorGraph.from_dem(_line_dem(7))
        _assert_batch_matches_scalar(graph, _all_syndromes(7))

    def test_cluster_heavy_line_every_syndrome(self):
        # Expensive boundaries force nearly every multi-defect syndrome
        # through the 3+-node cluster machinery (DP / batched DP).
        graph = DetectorGraph.from_dem(
            _line_dem(9, p_pair=0.08, p_boundary=0.001)
        )
        _assert_batch_matches_scalar(graph, _all_syndromes(9))

    def test_weighted_cycle_with_boundary_every_syndrome(self):
        n = 6
        dem = DetectorErrorModel(n, 2)
        for i in range(n):
            dem.errors.append(
                DemError((i, (i + 1) % n), ((i % 2),), 0.02 + 0.005 * i)
            )
        dem.errors.append(DemError((0,), (), 0.04))
        graph = DetectorGraph.from_dem(dem)
        _assert_batch_matches_scalar(graph, _all_syndromes(n))

    def test_unmatchable_detector_abstains_identically(self):
        # Detector 2 has no edges at all: both paths must abstain on it.
        dem = DetectorErrorModel(3, 1)
        dem.errors.append(DemError((0,), (0,), 0.05))
        dem.errors.append(DemError((0, 1), (), 0.05))
        graph = DetectorGraph.from_dem(dem)
        _assert_batch_matches_scalar(graph, _all_syndromes(3))


class TestForcedBatchPaths:
    """Drive every cluster through the *vectorised* group matchers by
    dropping the break-even threshold, so the batched DP/match3 lanes
    are exercised even on small inputs."""

    @pytest.fixture(autouse=True)
    def _force_vectorised(self, monkeypatch):
        monkeypatch.setattr(mwpm, "_vec_min_clusters", lambda m: 1)

    def test_cluster_heavy_line_every_syndrome_vectorised(self):
        graph = DetectorGraph.from_dem(
            _line_dem(9, p_pair=0.08, p_boundary=0.001)
        )
        _assert_batch_matches_scalar(graph, _all_syndromes(9))

    def test_tie_heavy_uniform_weights_every_syndrome(self):
        # Equal weights everywhere: every matching of equal cost ties,
        # so this only passes if the batched matchers break ties in
        # exactly the scalar scan order.
        n = 8
        dem = DetectorErrorModel(n, 2)
        for i in range(n):
            for j in range(i + 1, n):
                dem.errors.append(DemError((i, j), ((i + j) % 2,), 0.03))
            dem.errors.append(DemError((i,), (i % 2,), 0.03))
        graph = DetectorGraph.from_dem(dem)
        _assert_batch_matches_scalar(graph, _all_syndromes(n))


class TestBatchedMatchers:
    """Unit-level: the vectorised matchers vs their scalar references
    on random weight tables, including exact ties."""

    def _random_tables(self, rng, count, m, tie_grid=None):
        if tie_grid:
            db = rng.integers(1, tie_grid, size=(count, m)).astype(float)
            dd = rng.integers(1, tie_grid, size=(count, m, m)).astype(float)
        else:
            db = rng.random((count, m)) * 4
            dd = rng.random((count, m, m)) * 4
        dd = np.triu(dd, 1)
        dd = dd + dd.transpose(0, 2, 1)
        return db, dd

    def _pairs_set(self, pairs):
        return sorted(
            (int(i), int(j)) for i, j in pairs if int(i) != -2
        )

    @pytest.mark.parametrize("tie_grid", [None, 4])
    def test_match3_batch_matches_scalar(self, tie_grid):
        rng = np.random.default_rng(9)
        db, dd = self._random_tables(rng, 64, 3, tie_grid)
        batched = mwpm._match3_batch(db, dd)
        for c in range(db.shape[0]):
            assert self._pairs_set(batched[c]) == self._pairs_set(
                mwpm._match3(db[c], dd[c])
            )

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("tie_grid", [None, 3])
    def test_dp_match_batch_matches_scalar(self, m, tie_grid):
        rng = np.random.default_rng(m * 7 + (tie_grid or 0))
        db, dd = self._random_tables(rng, 32, m, tie_grid)
        batched = mwpm._dp_match_batch(db, dd)
        for c in range(db.shape[0]):
            assert self._pairs_set(batched[c]) == self._pairs_set(
                mwpm._dp_match(db[c], dd[c])
            )


class TestSampledEquivalence:
    def test_surface_code_sampled_syndromes(self):
        circ = ideal_memory_circuit(
            RotatedSurfaceCode(3), rounds=3, noise=UniformNoise(0.02)
        )
        graph = DetectorGraph.from_dem(circuit_to_dem(circ))
        sample = FrameSimulator(circ, seed=11).sample(1500)
        _assert_batch_matches_scalar(graph, sample.detectors)

    def test_surface_code_near_threshold_sampled(self):
        # Hot syndromes: most rows carry 3+ defect clusters, covering
        # the grouped DP lanes and the blossom fallback.
        circ = ideal_memory_circuit(
            RotatedSurfaceCode(3), rounds=3, noise=UniformNoise(0.08)
        )
        graph = DetectorGraph.from_dem(circuit_to_dem(circ))
        sample = FrameSimulator(circ, seed=12).sample(800)
        _assert_batch_matches_scalar(graph, sample.detectors)

    def test_multi_word_syndromes(self):
        # > 64 detectors forces multi-word packed rows through
        # decode_unique_words.
        n = 70
        graph = DetectorGraph.from_dem(_line_dem(n))
        rng = np.random.default_rng(5)
        rows = rng.random((300, n)) < 0.08
        decoder = MwpmDecoder(graph)
        scalar = np.array([decoder.decode(r) for r in rows], dtype=np.int64)
        via_packed = MwpmDecoder(graph).decode_unique_words(
            pack_bool_rows(rows)
        )
        # decode_unique_words decodes rows as given (no dedupe layer).
        assert np.array_equal(via_packed, scalar)

    def test_word_boundary_defect_pairs(self):
        # Defect pairs straddling the 64-bit word boundary must label
        # and pair exactly as in a single-word layout.
        n = 66
        graph = DetectorGraph.from_dem(_line_dem(n))
        rows = np.zeros((4, n), dtype=bool)
        rows[0, [63, 64]] = True
        rows[1, [62, 63, 64, 65]] = True
        rows[2, [0, 63]] = True
        rows[3, [64]] = True
        _assert_batch_matches_scalar(graph, rows)

    def test_blossom_cluster_equivalence(self):
        # A 12-defect chain exceeds the DP cap: the batched path must
        # route it through the identical scalar blossom fallback.
        n = 14
        graph = DetectorGraph.from_dem(
            _line_dem(n, p_pair=0.08, p_boundary=0.001)
        )
        rows = np.zeros((3, n), dtype=bool)
        rows[0, 1:13] = True
        rows[1, :] = True
        rows[2, [0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]] = True
        _assert_batch_matches_scalar(graph, rows)

    def test_empty_and_all_zero_batches(self):
        graph = DetectorGraph.from_dem(
            DetectorErrorModel(3, 1, [DemError((0, 1), (0,), 0.1)])
        )
        decoder = MwpmDecoder(graph)
        empty = decoder.decode_unique_words(
            pack_bool_rows(np.zeros((0, 3), dtype=bool))
        )
        assert empty.shape == (0,)
        assert np.array_equal(
            decoder.decode_unique_words(
                pack_bool_rows(np.zeros((4, 3), dtype=bool))
            ),
            np.zeros(4, dtype=np.int64),
        )

    def test_edgeless_graph(self):
        graph = DetectorGraph.from_dem(DetectorErrorModel(2, 1))
        decoder = MwpmDecoder(graph)
        rows = np.array([[True, False], [False, False]])
        assert np.array_equal(
            decoder.decode_unique_words(pack_bool_rows(rows)),
            np.array([decoder.decode(r) for r in rows]),
        )


class TestMemoInterplay:
    def test_scalar_and_batched_share_cluster_memo_keys(self):
        # Warm the cluster memo through one path, decode through the
        # other: results must be identical and the memo must not fork
        # (same canonical ascending node-tuple keys).
        graph = DetectorGraph.from_dem(
            _line_dem(9, p_pair=0.08, p_boundary=0.001)
        )
        rows = _all_syndromes(9)
        warm = MwpmDecoder(graph)
        scalar = np.array([warm.decode(r) for r in rows], dtype=np.int64)
        keys_scalar = set(warm._cluster_masks)
        batched_after_scalar = warm.decode_unique_words(pack_bool_rows(rows))
        assert np.array_equal(batched_after_scalar, scalar)
        assert set(warm._cluster_masks) == keys_scalar  # no forked keys

        cold = MwpmDecoder(graph)
        batched = cold.decode_unique_words(pack_bool_rows(rows))
        assert np.array_equal(batched, scalar)
        # Batched resolves 2-node components via the pair-mask cache
        # (never the cluster memo), so its keys are the 3+-node subset
        # of the scalar path's — with identical masks where they meet.
        assert set(cold._cluster_masks) <= keys_scalar
        assert set(cold._cluster_masks) == {
            key for key in keys_scalar if len(key) >= 3
        }
        for key, val in cold._cluster_masks.items():
            assert warm._cluster_masks[key] == val

    def test_within_batch_cluster_dedupe(self):
        # The same local cluster in many rows must decode once and XOR
        # into every row (exercises the pending-dict path).
        n = 9
        graph = DetectorGraph.from_dem(
            _line_dem(n, p_pair=0.08, p_boundary=0.001)
        )
        base = np.zeros(n, dtype=bool)
        base[[2, 3, 4]] = True
        rows = np.stack([base] * 5 + [np.roll(base, 1)] * 3)
        _assert_batch_matches_scalar(graph, rows)


class TestPackedProtocolAgreement:
    def test_all_decoders_dedupe_equals_reference(self):
        # The packed dedupe protocol must be invisible for every
        # decoder family: same per-shot corrections as the scalar
        # per-shot reference path.
        circ = ideal_memory_circuit(
            RepetitionCode(3), rounds=2, noise=UniformNoise(0.04)
        )
        dem = circuit_to_dem(circ)
        graph = DetectorGraph.from_dem(dem)
        sample = FrameSimulator(circ, seed=21).sample(600)
        words = pack_bool_rows(sample.detectors)
        for decoder in (
            MwpmDecoder(graph),
            UnionFindDecoder(graph),
            LookupDecoder(dem, max_weight=2),
        ):
            fast = decoder.decode_packed_batch(words)
            reference = np.array(
                [decoder.decode(row) for row in sample.detectors],
                dtype=np.int64,
            )
            assert np.array_equal(fast, reference), type(decoder).__name__


@st.composite
def _dem_and_rows(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    dem = DetectorErrorModel(n, 2)
    num_edges = draw(st.integers(min_value=1, max_value=14))
    for _ in range(num_edges):
        kind = draw(st.integers(min_value=0, max_value=3))
        p = draw(
            st.floats(min_value=0.001, max_value=0.2,
                      allow_nan=False, allow_infinity=False)
        )
        obs = draw(st.sampled_from([(), (0,), (1,), (0, 1)]))
        if kind == 0:
            dets = (draw(st.integers(min_value=0, max_value=n - 1)),)
        else:
            a = draw(st.integers(min_value=0, max_value=n - 1))
            b = draw(st.integers(min_value=0, max_value=n - 1))
            if a == b:
                dets = (a,)
            else:
                dets = (a, b)
        dem.errors.append(DemError(dets, obs, p))
    shots = draw(st.integers(min_value=1, max_value=24))
    rows = np.array(
        [
            [draw(st.booleans()) for _ in range(n)]
            for _ in range(shots)
        ],
        dtype=bool,
    )
    return dem, rows


class TestHypothesisEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(_dem_and_rows())
    def test_random_graph_random_syndromes(self, dem_and_rows):
        dem, rows = dem_and_rows
        graph = DetectorGraph.from_dem(dem)
        _assert_batch_matches_scalar(graph, rows)
