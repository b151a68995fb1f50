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
- :func:`make_decoder` — the sampling decoders by name (``mwpm`` /
  ``union_find``), as the engine builds them.
- :class:`BatchDecoderMixin` / :func:`decode_packed_dedup` — shared
  packed-native deduplicated batch decoding (``decode_packed_batch`` /
  ``logical_failures_packed``) with a cross-shard syndrome memo.
"""

from .batch import (
    BatchDecoderMixin,
    SyndromeMemo,
    decode_packed_dedup,
    unique_packed_rows,
)
from .graph import DetectorEdge, DetectorGraph, llr_weight
from .lookup import LookupDecoder
from .mwpm import MwpmDecoder
from .union_find import UnionFindDecoder


def make_decoder(graph: DetectorGraph, name: str):
    """A fresh ``mwpm`` or ``union_find`` decoder over ``graph``."""
    if name == "mwpm":
        return MwpmDecoder(graph)
    if name == "union_find":
        return UnionFindDecoder(graph)
    raise ValueError(f"unknown decoder {name!r}; expected mwpm or union_find")


__all__ = [
    "BatchDecoderMixin",
    "SyndromeMemo",
    "decode_packed_dedup",
    "unique_packed_rows",
    "DetectorEdge",
    "DetectorGraph",
    "llr_weight",
    "LookupDecoder",
    "MwpmDecoder",
    "UnionFindDecoder",
    "make_decoder",
]
