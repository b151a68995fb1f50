"""DEM-direct sampler tests: packing, determinism, and statistical
equivalence against the FrameSimulator reference oracle."""

import numpy as np
import pytest

from repro.codes import (
    RepetitionCode,
    RotatedSurfaceCode,
    UniformNoise,
    ideal_memory_circuit,
)
from repro.sim import (
    DemError,
    DemSampler,
    DetectorErrorModel,
    FrameSimulator,
    PackedShard,
    circuit_to_dems,
    pack_bool_rows,
    unpack_bool_rows,
)


class TestBitPacking:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for bits in (1, 63, 64, 65, 130):
            rows = rng.random((7, bits)) < 0.3
            packed = pack_bool_rows(rows)
            assert packed.dtype == np.uint64
            assert packed.shape == (7, (bits + 63) // 64)
            assert np.array_equal(unpack_bool_rows(packed, bits), rows)

    def test_zero_width(self):
        packed = pack_bool_rows(np.zeros((3, 0), dtype=bool))
        assert packed.shape == (3, 0)
        assert unpack_bool_rows(packed, 0).shape == (3, 0)

    def test_bit_layout_is_little_endian(self):
        rows = np.zeros((1, 70), dtype=bool)
        rows[0, 0] = rows[0, 65] = True
        packed = pack_bool_rows(rows)
        assert packed[0, 0] == 1
        assert packed[0, 1] == 2


class TestPackedShard:
    @staticmethod
    def _shard(det, obs):
        return PackedShard(
            pack_bool_rows(det), pack_bool_rows(obs), det.shape[1], obs.shape[1]
        )

    def test_boolean_views_round_trip(self):
        rng = np.random.default_rng(3)
        det = rng.random((9, 70)) < 0.3
        obs = rng.random((9, 2)) < 0.5
        shard = self._shard(det, obs)
        assert shard.shots == 9
        assert shard.num_detectors == 70 and shard.num_observables == 2
        assert shard.det_words.dtype == np.uint64
        assert np.array_equal(shard.detectors, det)
        assert np.array_equal(shard.observables, obs)

    def test_observable_bits_reads_packed_words(self):
        rng = np.random.default_rng(4)
        obs = rng.random((50, 3)) < 0.5
        shard = self._shard(np.zeros((50, 5), dtype=bool), obs)
        for index in range(3):
            assert np.array_equal(shard.observable_bits(index), obs[:, index])
        with pytest.raises(ValueError):
            shard.observable_bits(3)

    def test_views_ignore_padding_bits(self):
        # num_detectors, not the word width, bounds the boolean view.
        words = np.full((2, 1), np.uint64(0xFFFF_FFFF_FFFF_FFFF))
        shard = PackedShard(words, np.zeros((2, 0), dtype=np.uint64), 5, 0)
        assert shard.detectors.shape == (2, 5) and shard.detectors.all()
        assert shard.observables.shape == (2, 0)

    def test_sample_packed_matches_boolean_sample(self):
        dem = DetectorErrorModel(3, 1)
        dem.errors.append(DemError((0,), (0,), 0.2))
        dem.errors.append(DemError((0, 1), (), 0.1))
        sampler = DemSampler(dem)
        shard = sampler.sample_packed(300, seed=9)
        sample = sampler.sample(300, seed=9)
        assert np.array_equal(shard.detectors, sample.detectors)
        assert np.array_equal(shard.observables, sample.observables)


class TestDemSampler:
    def _simple_dem(self):
        dem = DetectorErrorModel(3, 1)
        dem.errors.append(DemError((0,), (0,), 0.2))
        dem.errors.append(DemError((0, 1), (), 0.1))
        dem.errors.append(DemError((2,), (), 0.05))
        return dem

    def test_same_seed_is_bit_identical(self):
        sampler = DemSampler(self._simple_dem())
        a = sampler.sample(500, seed=7)
        b = sampler.sample(500, seed=7)
        assert np.array_equal(a.detectors, b.detectors)
        assert np.array_equal(a.observables, b.observables)
        c = sampler.sample(500, seed=8)
        assert not np.array_equal(a.detectors, c.detectors)

    def test_seed_sequence_stream_matches_int_entropy(self):
        sampler = DemSampler(self._simple_dem())
        a = sampler.sample(200, seed=np.random.SeedSequence(42))
        b = sampler.sample(200, seed=np.random.SeedSequence(42))
        assert np.array_equal(a.detectors, b.detectors)

    def test_xor_accumulation(self):
        # A certain pair of mechanisms sharing detector 0 must cancel.
        dem = DetectorErrorModel(2, 1)
        dem.errors.append(DemError((0,), (0,), 1.0))
        dem.errors.append(DemError((0, 1), (), 1.0))
        sample = DemSampler(dem).sample(64, seed=0)
        assert not sample.detectors[:, 0].any()  # fired twice: cancelled
        assert sample.detectors[:, 1].all()
        assert sample.observables[:, 0].all()

    def test_empty_model(self):
        dem = DetectorErrorModel(4, 1)
        sample = DemSampler(dem).sample(10, seed=0)
        assert sample.detectors.shape == (10, 4)
        assert not sample.detectors.any()
        assert not sample.observables.any()

    def test_rejects_negative_shots(self):
        with pytest.raises(ValueError):
            DemSampler(self._simple_dem()).sample(-1)

    def test_zero_shots_returns_empty(self):
        # The scheduler's last adaptive tranche can round to zero
        # shots; that must yield empty arrays, not an error.
        sampler = DemSampler(self._simple_dem())
        shard = sampler.sample_packed(0)
        assert shard.shots == 0
        assert shard.det_words.shape == (0, sampler.det_words.shape[1])
        assert shard.detectors.shape == (0, 3)
        sample = sampler.sample(0)
        assert sample.detectors.shape == (0, 3)
        assert sample.observables.shape == (0, 1)

    def test_hyperedge_mechanisms_fire_atomically(self):
        # from_circuit must sample the exact (undecomposed) DEM: a
        # mechanism's detectors flip together or not at all.  A split
        # model would fire the halves independently.
        dem = DetectorErrorModel(4, 0)
        dem.errors.append(DemError((0, 1, 2, 3), (), 0.3))
        sample = DemSampler(dem).sample(2000, seed=1)
        fired = sample.detectors[:, 0]
        assert np.array_equal(sample.detectors, np.outer(fired, np.ones(4, bool)))
        assert 0.2 < fired.mean() < 0.4

    def test_from_circuit_uses_exact_dem(self):
        circ = ideal_memory_circuit(
            RotatedSurfaceCode(3), rounds=2, noise=UniformNoise(0.01)
        )
        exact, graphlike = circuit_to_dems(circ)
        sampler = DemSampler.from_circuit(circ)
        assert sampler.num_errors == exact.num_errors
        # The surface code's two-qubit channels produce hyperedges, so
        # the two models genuinely differ.
        assert exact.num_errors != graphlike.num_errors

    def test_high_probability_mechanisms_converge(self):
        # p near 1 stresses the distinct-placement collision loop (and
        # p == 1 must bypass it entirely via the full-shard XOR).
        dem = DetectorErrorModel(2, 0)
        dem.errors.append(DemError((0,), (), 0.9))
        dem.errors.append(DemError((1,), (), 1.0))
        sample = DemSampler(dem).sample(400, seed=2)
        assert 0.8 < sample.detectors[:, 0].mean() < 0.97
        assert sample.detectors[:, 1].all()

    def test_large_shard_samples_every_shot_range(self):
        sampler = DemSampler(self._simple_dem())
        shots = 8192 + 33
        sample = sampler.sample(shots, seed=3)
        assert sample.detectors.shape[0] == shots
        # The tail must actually be sampled, not left at zero.
        assert sample.detectors[8192:].any()


class TestStatisticalEquivalence:
    """The fast path must agree with the frame oracle on marginals.

    DEM-direct sampling treats mechanisms as independent Bernoulli
    sources (the standard O(p^2) DEM approximation), so per-detector
    and per-observable marginals agree to first order; each comparison
    runs at a few joint standard errors of tolerance.
    """

    SHOTS = 30000

    def _compare(self, circ, seed=11, sigmas=5.0, slack=0.0):
        frame = FrameSimulator(circ, seed=seed).sample(self.SHOTS)
        sampler = DemSampler.from_circuit(circ)  # exact (undecomposed) DEM
        dem = sampler.sample(self.SHOTS, seed=seed + 1)
        for attr in ("detectors", "observables"):
            a = getattr(frame, attr).mean(axis=0)
            b = getattr(dem, attr).mean(axis=0)
            p = (a + b) / 2.0
            stderr = np.sqrt(np.maximum(p * (1.0 - p), 1e-12) * 2.0 / self.SHOTS)
            assert np.all(np.abs(a - b) <= sigmas * stderr + slack), (
                attr, np.abs(a - b).max(), stderr.max(),
            )

    def test_d3_surface_memory_marginals(self):
        circ = ideal_memory_circuit(
            RotatedSurfaceCode(3), rounds=3, noise=UniformNoise(0.004)
        )
        # O(p^2) mechanism-independence bias on top of sampling noise.
        self._compare(circ, slack=5 * 0.004 ** 2)

    def test_repetition_memory_marginals(self):
        circ = ideal_memory_circuit(
            RepetitionCode(3), rounds=3, noise=UniformNoise(0.01)
        )
        self._compare(circ, slack=5 * 0.01 ** 2)

    def test_logical_rates_agree_after_decoding(self):
        from repro.decoders import DetectorGraph, MwpmDecoder
        from repro.sim import circuit_to_dems

        circ = ideal_memory_circuit(
            RotatedSurfaceCode(3), rounds=3, noise=UniformNoise(0.004)
        )
        # Decode on the graphlike model, sample from the exact one —
        # the same split the engine's CompilationCache maintains.
        exact, graphlike = circuit_to_dems(circ)
        decoder = MwpmDecoder(DetectorGraph.from_dem(graphlike))
        frame = FrameSimulator(circ, seed=5).sample(self.SHOTS)
        fast = DemSampler(exact).sample_packed(self.SHOTS, seed=6)
        p_frame = decoder.logical_failures_packed(
            pack_bool_rows(frame.detectors), pack_bool_rows(frame.observables)
        ).mean()
        p_fast = decoder.logical_failures_packed(
            fast.det_words, fast.obs_words
        ).mean()
        p = (p_frame + p_fast) / 2.0
        stderr = np.sqrt(max(p * (1 - p), 1e-12) * 2.0 / self.SHOTS)
        assert abs(p_frame - p_fast) <= 5 * stderr + 5 * 0.004 ** 2
