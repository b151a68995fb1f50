"""Deduplicated batch decoding: exactness, memoisation, mixin sharing,
and the packed ``decode_packed_batch`` decoder protocol."""

import numpy as np
import pytest

from repro.codes import RepetitionCode, UniformNoise, ideal_memory_circuit
from repro.decoders import (
    BatchDecoderMixin,
    DetectorGraph,
    LookupDecoder,
    MwpmDecoder,
    SyndromeMemo,
    UnionFindDecoder,
    decode_packed_dedup,
)
from repro.sim import FrameSimulator, circuit_to_dem, pack_bool_rows, unpack_bool_rows


@pytest.fixture(scope="module")
def setup():
    circ = ideal_memory_circuit(
        RepetitionCode(3), rounds=3, noise=UniformNoise(0.01)
    )
    dem = circuit_to_dem(circ)
    graph = DetectorGraph.from_dem(dem)
    sample = FrameSimulator(circ, seed=42).sample(2000)
    return dem, graph, sample


def _decoders(dem, graph):
    return [
        MwpmDecoder(graph),
        UnionFindDecoder(graph),
        LookupDecoder(dem, max_weight=2),
    ]


def _scalar_reference(decoder, detectors):
    """One scalar ``decode`` per shot: the reference every batched and
    deduplicated path must reproduce exactly."""
    return np.array([decoder.decode(row) for row in detectors], dtype=np.int64)


def _scalar_decode_words(decode_one, bits):
    """A ``decode_unique_words`` callable mapping a scalar decode over
    unpacked rows, for driving ``decode_packed_dedup`` directly."""
    return lambda words: np.array(
        [decode_one(row) for row in unpack_bool_rows(words, bits)],
        dtype=np.int64,
    )


class TestDedupeExactness:
    def test_dedupe_matches_per_shot_decoding(self, setup):
        dem, graph, sample = setup
        words = pack_bool_rows(sample.detectors)
        for decoder in _decoders(dem, graph):
            fast = decoder.decode_packed_batch(words)
            slow = _scalar_reference(decoder, sample.detectors)
            assert np.array_equal(fast, slow), type(decoder).__name__

    def test_logical_failures_match_per_shot_decoding(self, setup):
        dem, graph, sample = setup
        det_words = pack_bool_rows(sample.detectors)
        obs_words = pack_bool_rows(sample.observables)
        for decoder in _decoders(dem, graph):
            fails = decoder.logical_failures_packed(det_words, obs_words)
            ref = (
                (_scalar_reference(decoder, sample.detectors) & 1)
                != sample.observables[:, 0]
            )
            assert np.array_equal(fails, ref), type(decoder).__name__

    def test_single_row_batch(self, setup):
        dem, graph, sample = setup
        decoder = MwpmDecoder(graph)
        row = sample.detectors[:1]
        assert decoder.decode_packed_batch(pack_bool_rows(row)).tolist() == [
            decoder.decode(row[0])
        ]


class TestSyndromeMemo:
    def test_memo_carries_across_batches(self, setup):
        dem, graph, sample = setup
        decoder = MwpmDecoder(graph)
        words = pack_bool_rows(sample.detectors[:1000])
        first = decoder.decode_packed_batch(words)
        memo = decoder.syndrome_memo()
        distinct = len(memo)
        assert distinct > 0 and memo.misses == distinct and memo.hits == 0
        # Second batch over the same shots: every syndrome is a hit.
        second = decoder.decode_packed_batch(words)
        assert np.array_equal(first, second)
        assert len(memo) == distinct
        assert memo.hits == distinct

    def test_each_distinct_syndrome_decoded_once(self, setup):
        dem, graph, sample = setup
        calls = 0

        def counting_decode(row):
            nonlocal calls
            calls += 1
            return 0

        batch = sample.detectors[:1000]
        distinct = len(np.unique(np.packbits(batch, axis=1), axis=0))
        decode_words = _scalar_decode_words(counting_decode, batch.shape[1])
        words = pack_bool_rows(batch)
        memo = SyndromeMemo()
        decode_packed_dedup(decode_words, words, memo=memo)
        assert calls == distinct
        decode_packed_dedup(decode_words, words, memo=memo)
        assert calls == distinct  # all hits the second time

    def test_memo_limit_stops_insertion_not_decoding(self):
        memo = SyndromeMemo(limit=2)
        rows = np.eye(8, dtype=bool)
        out = decode_packed_dedup(
            _scalar_decode_words(lambda row: int(row.argmax()), 8),
            pack_bool_rows(rows),
            memo=memo,
        )
        assert out.tolist() == list(range(8))
        assert len(memo) == 2

    def test_scatter_restores_shot_order(self):
        rows = np.array(
            [[1, 0], [0, 1], [1, 0], [0, 0], [0, 1]], dtype=bool
        )
        out = decode_packed_dedup(
            _scalar_decode_words(lambda row: int(2 * row[0] + row[1]), 2),
            pack_bool_rows(rows),
        )
        assert out.tolist() == [2, 1, 2, 0, 1]


class TestPackedProtocol:
    """The packed-native decoder protocol must agree with the scalar
    per-shot ``decode`` on every decoder."""

    def test_decode_packed_batch_matches_scalar(self, setup):
        dem, graph, sample = setup
        words = pack_bool_rows(sample.detectors)
        for decoder in _decoders(dem, graph):
            packed = decoder.decode_packed_batch(words)
            ref = _scalar_reference(decoder, sample.detectors)
            assert np.array_equal(packed, ref), type(decoder).__name__

    def test_default_decode_unique_words_is_scalar_decode(self, setup):
        # The mixin's default (what LookupDecoder inherits) maps the
        # scalar decode over the given rows, in order, without dedupe.
        dem, graph, sample = setup
        lookup = LookupDecoder(dem, max_weight=2)
        assert "decode_unique_words" not in LookupDecoder.__dict__
        rows = sample.detectors[:300]
        got = lookup.decode_unique_words(pack_bool_rows(rows))
        assert got.dtype == np.int64
        assert np.array_equal(got, _scalar_reference(lookup, rows))

    def test_packed_batch_matches_scalar_on_a_cold_decoder(self, setup):
        dem, graph, sample = setup
        rows = sample.detectors[:200]
        decoder = MwpmDecoder(graph)
        on = decoder.decode_packed_batch(pack_bool_rows(rows))
        off = _scalar_reference(MwpmDecoder(graph), rows)
        assert np.array_equal(on, off)

    def test_memo_hits_on_a_repacked_batch(self, setup):
        dem, graph, sample = setup
        decoder = MwpmDecoder(graph)
        decoder.decode_packed_batch(pack_bool_rows(sample.detectors[:500]))
        memo = decoder.syndrome_memo()
        distinct = len(memo)
        assert distinct > 0 and memo.misses == distinct
        # A fresh packing of the same rows is the same words: all hits.
        decoder.decode_packed_batch(pack_bool_rows(sample.detectors[:500].copy()))
        assert memo.misses == distinct and memo.hits == distinct

    def test_decode_unique_words_sees_only_distinct_misses(self, setup):
        dem, graph, sample = setup
        seen_batches = []

        class Probe(BatchDecoderMixin):
            num_detectors = sample.detectors.shape[1]

            def decode(self, row):
                return 0

            def decode_unique_words(self, det_words):
                seen_batches.append(len(det_words))
                return np.zeros(len(det_words), dtype=np.int64)

        probe = Probe()
        words = pack_bool_rows(sample.detectors)
        distinct = len(np.unique(words, axis=0))
        probe.decode_packed_batch(words)
        assert seen_batches == [distinct]  # one batched call, misses only
        probe.decode_packed_batch(words)
        assert seen_batches == [distinct]  # second pass: all memo hits

    def test_decode_packed_dedup_validates_correction_count(self):
        words = pack_bool_rows(np.eye(4, dtype=bool))
        with pytest.raises(ValueError, match="corrections"):
            decode_packed_dedup(lambda uniq: np.zeros(1, dtype=np.int64), words)

    def test_memo_snapshot_and_stats(self):
        memo = SyndromeMemo(limit=8)
        assert memo.snapshot() == (0, 0, 0)
        decode_packed_dedup(
            _scalar_decode_words(lambda row: int(row.argmax()), 3),
            pack_bool_rows(np.eye(3, dtype=bool)),
            memo=memo,
        )
        assert memo.snapshot() == (0, 3, 3)
        assert memo.stats() == {
            "hits": 0, "misses": 3, "entries": 3, "limit": 8,
        }


class TestMixinSharing:
    def test_single_logical_failures_implementation(self):
        # The reduction must live on the mixin, not be re-copied per
        # decoder class, and the boolean-boundary entry points are gone.
        for cls in (MwpmDecoder, UnionFindDecoder, LookupDecoder):
            assert issubclass(cls, BatchDecoderMixin)
            assert "logical_failures_packed" not in cls.__dict__
            assert "decode_packed_batch" not in cls.__dict__
            assert not hasattr(cls, "logical_failures")
            assert not hasattr(cls, "decode_batch")
        assert "logical_failures_packed" in BatchDecoderMixin.__dict__

    def test_lookup_decoder_gained_logical_failures(self, setup):
        dem, graph, sample = setup
        lookup = LookupDecoder(dem, max_weight=2)
        fails = lookup.logical_failures_packed(
            pack_bool_rows(sample.detectors[:200]),
            pack_bool_rows(sample.observables[:200]),
        )
        assert fails.dtype == bool and fails.shape == (200,)
