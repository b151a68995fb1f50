"""DEM-direct sampling: bit-packed Monte-Carlo over error mechanisms.

The :class:`~repro.sim.frame.FrameSimulator` replays the entire noisy
circuit gate-by-gate for every shot.  That work is redundant once the
circuit's :class:`~repro.sim.dem.DetectorErrorModel` is known: each
mechanism flips a *fixed* set of detectors and observables, so a shot is
nothing but "which mechanisms fired", and its syndrome is the XOR of the
firing mechanisms' symptom sets.

Packed-parity construction
--------------------------
At build time the DEM is compiled into two bit-packed parity matrices:

- ``det_words`` — shape ``(num_errors, ceil(num_detectors / 64))``
  uint64; bit ``b`` of word ``w`` in row ``e`` is set iff mechanism
  ``e`` flips detector ``w * 64 + b``;
- ``obs_words`` — same layout over logical observables.

Sampling a shard is then two vectorised steps with no per-gate work,
and — crucially — with cost proportional to the number of firing
*events* (``shots * sum(p)``), not to ``shots * num_mechanisms``:

1. draw each mechanism's firing **count** ``k ~ Binomial(shots, p)``
   (one vectorised call over all mechanisms), then place the ``k``
   firings at **distinct** uniform shot indices — drawn with
   replacement and re-drawn on collision, which conditions the
   placement on distinctness and is therefore exactly the Bernoulli
   law conditioned on its count;
2. XOR-accumulate the firing mechanisms' packed symptom rows into each
   shot's packed syndrome words (``np.bitwise_xor.at`` — XOR is
   associative and commutative, so accumulation order is irrelevant).

The result stays packed: :meth:`DemSampler.sample_packed` returns a
:class:`PackedShard` of uint64 words that flows through the engine and
into the decoders' ``decode_packed_batch`` protocol without ever
materialising boolean ``(shots, detectors)`` matrices.  Boolean arrays
are strictly a boundary representation (:meth:`DemSampler.sample` and
the :class:`PackedShard` views).  This is the only sampler behind
logical error rates: every engine shard and every
:mod:`repro.ler` estimate draws from it.

Fidelity
--------
Sample from the **exact (undecomposed) DEM**: a hyperedge mechanism
must flip all of its detectors *together*, so splitting it into
decoder-style pieces before sampling would decorrelate flips that
co-occur physically — measured on the d=5 design point, that
decorrelation inflates the logical failure rate several-fold.  (The
graphlike model, projected onto the observable's basis, is strictly a
*decoder-side* approximation; the engine keeps both models and hands
each consumer the right one.)

The one approximation that remains is sampling mechanisms as
*independent* Bernoulli sources — the standard DEM semantics (shared
with Stim): mutually-exclusive Pauli outcomes of one physical channel
(e.g. the 15 branches of ``DEPOLARIZE2``) may fire together with
probability O(p^2).  The frame simulator remains the exact reference
oracle and a statistical equivalence test gates this fast path
against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import StabilizerCircuit
from .dem import DetectorErrorModel, circuit_to_dems
from .frame import SampleResult
from ..telemetry import span



def pack_bool_rows(rows: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(n, bits)`` array into ``(n, ceil(bits/64))``
    uint64 words, little-endian within each word."""
    rows = np.ascontiguousarray(rows, dtype=bool)
    n, bits = rows.shape
    words = (bits + 63) // 64
    if words == 0:
        return np.zeros((n, 0), dtype=np.uint64)
    padded = np.zeros((n, words * 64), dtype=bool)
    padded[:, :bits] = rows
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def unpack_bool_rows(words: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_rows`: uint64 words back to booleans."""
    n = words.shape[0]
    if bits == 0 or words.shape[1] == 0:
        return np.zeros((n, bits), dtype=bool)
    flat = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), axis=1, bitorder="little"
    )
    return flat[:, :bits].astype(bool)


@dataclass(frozen=True)
class PackedShard:
    """One shard's syndromes in the pipeline's native representation.

    ``det_words`` / ``obs_words`` are ``(shots, ceil(bits / 64))``
    uint64 arrays (little-endian bit order within each word, the
    :func:`pack_bool_rows` layout); ``num_detectors`` /
    ``num_observables`` record the true bit counts so the padding bits
    are never mistaken for data.  This is what flows from the samplers
    through the engine's shard execution into the decoders'
    ``decode_packed_batch`` protocol — boolean matrices exist only at
    explicit boundaries (:meth:`detectors` / :meth:`observables`).
    """

    det_words: np.ndarray
    obs_words: np.ndarray
    num_detectors: int
    num_observables: int

    @property
    def shots(self) -> int:
        return self.det_words.shape[0]

    @property
    def detectors(self) -> np.ndarray:
        """Boolean ``(shots, num_detectors)`` view (unpacks on demand)."""
        return unpack_bool_rows(self.det_words, self.num_detectors)

    @property
    def observables(self) -> np.ndarray:
        """Boolean ``(shots, num_observables)`` view (unpacks on demand)."""
        return unpack_bool_rows(self.obs_words, self.num_observables)

    def observable_bits(self, index: int = 0) -> np.ndarray:
        """Per-shot boolean of one observable, read straight from the
        packed words — for custom failure reductions that want a single
        observable without unpacking the whole batch."""
        if not 0 <= index < self.num_observables:
            raise ValueError(
                f"observable {index} out of range (have {self.num_observables})"
            )
        word, bit = divmod(index, 64)
        return (self.obs_words[:, word] >> np.uint64(bit)) & np.uint64(1) != 0


class DemSampler:
    """Samples detector/observable data straight from a DEM.

    Compile once per circuit (the engine caches the instance alongside
    the DEM), then call :meth:`sample` per shot shard.  Each shard draw
    is deterministic in its seed, so the engine's ``SeedSequence`` shard
    streams give bit-identical results across backends and worker
    counts.
    """

    def __init__(self, dem: DetectorErrorModel):
        self.num_detectors = dem.num_detectors
        self.num_observables = dem.num_observables
        self.num_errors = dem.num_errors
        self.probabilities = np.clip(
            np.array([e.probability for e in dem.errors], dtype=np.float64),
            0.0, 1.0,
        )
        det_bits = np.zeros((self.num_errors, self.num_detectors), dtype=bool)
        obs_bits = np.zeros((self.num_errors, self.num_observables), dtype=bool)
        for row, err in enumerate(dem.errors):
            det_bits[row, list(err.detectors)] = True
            obs_bits[row, list(err.observables)] = True
        self.det_words = pack_bool_rows(det_bits)
        self.obs_words = pack_bool_rows(obs_bits)

    @classmethod
    def from_circuit(cls, circuit: StabilizerCircuit) -> "DemSampler":
        exact, _ = circuit_to_dems(circuit)
        return cls(exact)

    # ------------------------------------------------------------------
    def sample_packed(self, shots: int, seed=None) -> PackedShard:
        """The sampler's primary product: ``shots`` packed uint64
        syndrome draws as a :class:`PackedShard`.

        ``shots == 0`` is legal and returns empty arrays — the
        scheduler's last adaptive tranche can legitimately round to
        zero shots.
        """
        if shots < 0:
            raise ValueError("shots must be non-negative")
        rng = np.random.default_rng(seed)
        det = np.zeros((shots, self.det_words.shape[1]), dtype=np.uint64)
        obs = np.zeros((shots, self.obs_words.shape[1]), dtype=np.uint64)
        if shots == 0 or self.num_errors == 0:
            return self._shard(det, obs)
        with span("sample.draw"):
            counts = rng.binomial(shots, self.probabilities)
        # Mechanisms that fired in *every* shot (p at or near 1) XOR
        # into the whole shard directly; placing them through the
        # collision loop below would never converge for k == shots.
        full = counts == shots
        if full.any():
            det[:, :] ^= np.bitwise_xor.reduce(self.det_words[full], axis=0)
            obs[:, :] ^= np.bitwise_xor.reduce(self.obs_words[full], axis=0)
            counts[full] = 0
        total = int(counts.sum())
        if total == 0:
            return self._shard(det, obs)
        with span("sample.place"):
            mech_idx = np.repeat(np.arange(self.num_errors), counts)
            # Distinct uniform placement per mechanism: draw with
            # replacement, then redraw whichever later duplicates remain
            # until every (mechanism, shot) pair is unique.  Collisions
            # are O(k/shots)-rare, so the loop all but never iterates
            # twice.
            pos = rng.integers(0, shots, size=total)
            pair = mech_idx * np.int64(shots) + pos
            while True:
                order = np.argsort(pair, kind="stable")
                dup_sorted = pair[order][1:] == pair[order][:-1]
                if not dup_sorted.any():
                    break
                redraw = order[1:][dup_sorted]
                pos[redraw] = rng.integers(0, shots, size=len(redraw))
                pair[redraw] = mech_idx[redraw] * np.int64(shots) + pos[redraw]
        with span("sample.xor"):
            np.bitwise_xor.at(det, pos, self.det_words[mech_idx])
            np.bitwise_xor.at(obs, pos, self.obs_words[mech_idx])
        return self._shard(det, obs)

    def _shard(self, det: np.ndarray, obs: np.ndarray) -> PackedShard:
        return PackedShard(
            det_words=det,
            obs_words=obs,
            num_detectors=self.num_detectors,
            num_observables=self.num_observables,
        )

    def sample(self, shots: int, seed=None) -> SampleResult:
        """Boolean-boundary sampling; drop-in for the decoder-facing
        part of :meth:`FrameSimulator.sample`.

        ``measurements`` is empty (shape ``(shots, 0)``): the DEM has no
        notion of individual measurement records, only of the detector
        and observable parities built from them — which is all the
        decoding pipeline consumes.  The hot path never calls this:
        the engine consumes :meth:`sample_packed` directly.
        """
        shard = self.sample_packed(shots, seed=seed)
        return SampleResult(
            measurements=np.zeros((shard.shots, 0), dtype=bool),
            detectors=shard.detectors,
            observables=shard.observables,
        )
