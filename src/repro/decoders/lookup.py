"""Exhaustive lookup decoder for small detector error models.

Enumerates all combinations of up to ``max_weight`` error mechanisms,
records the most likely cause of every reachable syndrome, and decodes
by table lookup.  Exponential in ``max_weight`` — intended only as a
ground-truth oracle for testing MWPM and union-find on small codes.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..sim.dem import DetectorErrorModel
from .batch import BatchDecoderMixin


class LookupDecoder(BatchDecoderMixin):
    """Maximum-likelihood-over-small-sets decoder."""

    def __init__(self, dem: DetectorErrorModel, max_weight: int = 2):
        if max_weight < 1:
            raise ValueError("max_weight must be >= 1")
        self.dem = dem
        self.num_detectors = dem.num_detectors
        self.max_weight = max_weight
        self._table: dict[frozenset[int], tuple[float, int]] = {}
        self._build()

    def _build(self) -> None:
        errors = self.dem.errors
        self._table[frozenset()] = (1.0, 0)
        for weight in range(1, self.max_weight + 1):
            for combo in combinations(range(len(errors)), weight):
                dets: set[int] = set()
                obs_mask = 0
                likelihood = 1.0
                for i in combo:
                    err = errors[i]
                    dets ^= set(err.detectors)
                    for o in err.observables:
                        obs_mask ^= 1 << o
                    likelihood *= err.probability
                key = frozenset(dets)
                prior = self._table.get(key)
                if prior is None or likelihood > prior[0]:
                    self._table[key] = (likelihood, obs_mask)

    def decode(self, detector_sample: np.ndarray) -> int:
        key = frozenset(int(d) for d in np.flatnonzero(detector_sample))
        entry = self._table.get(key)
        if entry is None:
            return 0  # unexplainable syndrome: abstain
        return entry[1]
