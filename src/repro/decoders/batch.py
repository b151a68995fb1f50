"""Packed-native deduplicated batch decoding shared by every decoder.

Decoding is the per-shot hot spot of LER estimation: matching is
milliseconds per syndrome while sampling is microseconds per shot.  But
at low physical error rate the syndrome *distribution* is extremely
skewed — most shots are empty or repeat a handful of light syndromes —
so decoding every shot individually repeats identical work.

The pipeline speaks bit-packed uint64 syndrome words end to end: the
samplers emit :class:`~repro.sim.dem_sampler.PackedShard` words, and
:func:`decode_packed_dedup` runs ``np.unique`` *directly on those
words* (no pack/unpack round-trip), looks each distinct row up in a
:class:`SyndromeMemo` keyed on the row bytes, and hands every miss to
the decoder in **one batched call** — so a vectorised decoder (the
batched union-find) amortises its per-call overhead over the whole
distinct-syndrome set, and a scalar decoder unpacks only the *distinct*
missing rows, never every shot.  Corrections scatter back to shots via
the unique-inverse.

The memo carries decoded syndromes across shard boundaries: decoder
instances live as long as a worker's circuit memo, so a syndrome seen
in shard 0 is free in every later shard of the same (circuit, decoder)
pair.

:class:`BatchDecoderMixin` gives every decoder the same batch API on
top of its scalar ``decode``:

- ``decode_packed_batch(det_words)`` — the **decoder protocol** the
  engine calls: packed words in, one observable bitmask per shot out;
- ``logical_failures_packed(det_words, obs_words)`` — the per-shot
  failure reduction, reading the actual observable straight from the
  packed words.

There is no boolean entry point: callers holding boolean rows pack
them with :func:`~repro.sim.dem_sampler.pack_bool_rows`, and the
scalar ``decode`` stays the per-shot reference the exactness tests
diff against.

A decoder with a vectorised kernel overrides ``decode_unique_words``
(see :class:`~repro.decoders.union_find.UnionFindDecoder`); everything
else inherits the unpack-distinct-rows adapter for free.
"""

from __future__ import annotations

import numpy as np

from ..sim.dem_sampler import unpack_bool_rows
from ..telemetry import span

# Cross-shard memo bound: distinct syndromes are few at the error rates
# worth sweeping, but a near-threshold design point could see almost
# every shot distinct — stop inserting (not decoding) past this size so
# a long sweep cannot grow the memo without bound.
DEFAULT_MEMO_LIMIT = 1 << 18


class SyndromeMemo:
    """Bounded ``packed syndrome -> correction mask`` memo with stats.

    One memo serves one (circuit, decoder) pair within one process;
    separate workers never exchange entries.
    """

    def __init__(self, limit: int = DEFAULT_MEMO_LIMIT):
        self.limit = limit
        self.table: dict[bytes, int] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.table)

    def insert(self, key: bytes, mask: int) -> bool:
        """Record one decoded syndrome; ``False`` once full."""
        if len(self.table) >= self.limit:
            return False
        self.table[key] = mask
        return True

    def snapshot(self) -> tuple[int, int, int]:
        """``(hits, misses, entries)`` — diffable around a shard so the
        engine can attribute memo traffic to individual shards."""
        return (self.hits, self.misses, len(self.table))

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self.table),
            "limit": self.limit,
        }


def unique_packed_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(words, axis=0, return_inverse=True)``, faster.

    Views each contiguous packed row as one opaque void scalar so the
    unique sort is a single-key memcmp instead of ``axis=0``'s
    per-column lexsort.  The distinct *set* and the inverse mapping are
    exactly equivalent; only the order of the returned rows differs
    (byte order vs column-value order), which nothing downstream
    depends on — corrections are scattered per row via ``inverse``.
    """
    rows, ncols = words.shape
    if ncols == 0:
        # No detectors: every row is the same empty syndrome.
        return words[:1], np.zeros(rows, dtype=np.intp)
    view = words.view(np.dtype((np.void, words.dtype.itemsize * ncols)))
    uniq_view, inverse = np.unique(view.ravel(), return_inverse=True)
    uniq = uniq_view.view(words.dtype).reshape(-1, ncols)
    return uniq, inverse


def decode_packed_dedup(
    decode_unique_words,
    det_words: np.ndarray,
    memo: SyndromeMemo | None = None,
) -> np.ndarray:
    """Decode a packed ``(shots, words)`` uint64 batch via deduplication.

    ``decode_unique_words`` maps a ``(k, words)`` array of *distinct*
    packed syndromes to ``k`` observable bitmasks — one batched call
    covers every syndrome the ``memo`` has not already seen, so each
    distinct syndrome is decoded at most once per batch and, with a
    memo, at most once per decoder lifetime.
    """
    words = np.atleast_2d(np.ascontiguousarray(det_words, dtype=np.uint64))
    with span("unique"):
        uniq, inverse = unique_packed_rows(words)
    corrections = np.empty(len(uniq), dtype=np.int64)
    with span("memo"):
        if memo is None:
            missing = list(range(len(uniq)))
        else:
            missing = []
            table = memo.table
            for row in range(len(uniq)):
                cached = table.get(uniq[row].tobytes())
                if cached is not None:
                    memo.hits += 1
                    corrections[row] = cached
                else:
                    memo.misses += 1
                    missing.append(row)
    if missing:
        miss_rows = np.array(missing, dtype=np.int64)
        with span("decode", distinct=len(missing)):
            decoded = np.asarray(
                decode_unique_words(uniq[miss_rows]), dtype=np.int64
            ).reshape(-1)
        if decoded.shape[0] != len(missing):
            raise ValueError(
                f"decode_unique_words returned {decoded.shape[0]} corrections "
                f"for {len(missing)} distinct syndromes"
            )
        corrections[miss_rows] = decoded
        if memo is not None:
            for row, mask in zip(missing, decoded.tolist()):
                if not memo.insert(uniq[row].tobytes(), mask):
                    break
    with span("scatter"):
        return corrections[inverse.reshape(-1)]


class BatchDecoderMixin:
    """Shared packed-native batch API plus the failure reduction every
    estimator consumes.

    Subclasses provide scalar ``decode(detector_sample) -> int`` and a
    ``num_detectors`` attribute (set in ``__init__``); a decoder with a
    vectorised batch kernel additionally overrides
    ``decode_unique_words``.  A graph decoder also sets
    ``detector_mask`` to :meth:`DetectorGraph.detector_mask
    <repro.decoders.graph.DetectorGraph.detector_mask>`: the detectors
    it can match, the only bits that reach deduplication and the memo.
    """

    _memo: SyndromeMemo | None = None
    num_detectors: int
    detector_mask: np.ndarray | None = None

    def syndrome_memo(self) -> SyndromeMemo:
        if self._memo is None:
            self._memo = SyndromeMemo()
        return self._memo

    # ------------------------------------------------------------------
    def decode_unique_words(self, det_words: np.ndarray) -> np.ndarray:
        """Decode ``(k, words)`` *distinct* packed syndromes.

        Default adapter for scalar decoders: unpacks only these distinct
        rows — never the full shot batch — and maps ``decode``.
        Vectorised decoders override this with their batched kernel.
        """
        rows = unpack_bool_rows(det_words, self.num_detectors)
        return np.fromiter(
            (int(self.decode(row)) for row in rows),
            dtype=np.int64,
            count=len(rows),
        )

    def decode_packed_batch(self, det_words: np.ndarray) -> np.ndarray:
        """Observable bitmask per shot for packed ``(shots, words)``
        syndromes — the pipeline's native decoder entry point.  Bits
        outside ``detector_mask`` are cleared first."""
        if self.detector_mask is not None:
            det_words = np.asarray(det_words, dtype=np.uint64) & self.detector_mask
        return decode_packed_dedup(
            self.decode_unique_words, det_words, memo=self.syndrome_memo()
        )

    # ------------------------------------------------------------------
    def logical_failures_packed(
        self, det_words: np.ndarray, obs_words: np.ndarray
    ) -> np.ndarray:
        """Per-shot bool: did decoding fail to fix observable 0?

        Consumes packed words on both sides — the actual observable is
        read from bit 0 of the first obs word, so no boolean matrix is
        ever materialised on the engine's hot path.
        """
        corrections = self.decode_packed_batch(det_words)
        obs = np.atleast_2d(np.ascontiguousarray(obs_words, dtype=np.uint64))
        if obs.shape[1]:
            actual = (obs[:, 0] & np.uint64(1)).astype(np.int64)
        else:
            actual = np.zeros(obs.shape[0], dtype=np.int64)
        return (corrections & 1) != actual
