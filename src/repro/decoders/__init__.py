"""Decoders for detector error models (PyMatching substitute).

- :class:`DetectorGraph` — weighted syndrome graph with boundary node.
- :class:`MwpmDecoder` — minimum-weight perfect matching (cluster-
  decomposed exact DP with a blossom fallback).
- :func:`blossom.max_weight_matching` — the in-repo blossom matcher
  behind that fallback, a dense-matrix port of networkx's that returns
  the same matchings (networkx is not a decoder dependency).
- :class:`UnionFindDecoder` — almost-linear union-find decoding, with a
  batched vectorised kernel behind the packed decode protocol.
- :class:`LookupDecoder` — exhaustive oracle for small models (tests).
- :class:`BatchDecoderMixin` / :func:`decode_packed_dedup` /
  :func:`decode_batch_dedup` — shared packed-native deduplicated batch
  decoding (``decode_packed_batch`` / ``logical_failures_packed``) with
  a cross-shard syndrome memo.
"""

from .batch import (
    BatchDecoderMixin,
    SyndromeMemo,
    decode_batch_dedup,
    decode_packed_dedup,
    unique_packed_rows,
)
from .graph import DetectorEdge, DetectorGraph, llr_weight
from .lookup import LookupDecoder
from .mwpm import MwpmDecoder
from .union_find import UnionFindDecoder

__all__ = [
    "BatchDecoderMixin",
    "SyndromeMemo",
    "decode_batch_dedup",
    "decode_packed_dedup",
    "unique_packed_rows",
    "DetectorEdge",
    "DetectorGraph",
    "llr_weight",
    "LookupDecoder",
    "MwpmDecoder",
    "UnionFindDecoder",
]
