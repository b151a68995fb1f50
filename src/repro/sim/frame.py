"""Vectorised Pauli-frame sampling of noisy stabilizer circuits.

Instead of simulating quantum state, we track only the *error frame*: a
Pauli operator per shot describing how the noisy run differs from the
noiseless reference run.  Clifford gates conjugate the frame, noise
channels inject random Paulis, and a Z-basis measurement outcome is
flipped exactly when the frame has an X component on the measured qubit.
Detector and observable values are parities of record flips, so the
reference outcomes cancel — this is the same trick Stim's frame
simulator uses and is exact for stabilizer circuits.

All shots are processed simultaneously with boolean numpy arrays, so
sampling one million shots of a distance-5 memory experiment takes
seconds rather than hours.  Logical error rates are not sampled here:
:class:`~repro.sim.dem_sampler.DemSampler` is the pipeline's sampler,
and this simulator is its exact reference oracle in the tests and the
baseline of ``benchmarks/bench_sampling_decoding.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import StabilizerCircuit


@dataclass
class SampleResult:
    """Sampled outputs of a noisy circuit, one row per shot."""

    measurements: np.ndarray  # (shots, num_measurements) bool: flip XOR reference
    detectors: np.ndarray     # (shots, num_detectors) bool
    observables: np.ndarray   # (shots, num_observables) bool

    @property
    def shots(self) -> int:
        return self.measurements.shape[0]


class FrameState:
    """The Pauli frames of a batch of shots.

    ``x[s, q]`` / ``z[s, q]`` give the X / Z component of shot ``s``'s
    frame on qubit ``q``.  Used by :class:`FrameSimulator`; the detector
    error model extractor keeps its own bit-packed, qubit-major frame
    (see :mod:`repro.sim.dem`).
    """

    def __init__(self, shots: int, num_qubits: int):
        self.x = np.zeros((shots, num_qubits), dtype=bool)
        self.z = np.zeros((shots, num_qubits), dtype=bool)

    # --- Clifford conjugations -----------------------------------------
    def h(self, qs) -> None:
        tmp = self.x[:, qs].copy()
        self.x[:, qs] = self.z[:, qs]
        self.z[:, qs] = tmp

    def s(self, qs) -> None:
        self.z[:, qs] ^= self.x[:, qs]

    def sqrt_x(self, qs) -> None:
        self.x[:, qs] ^= self.z[:, qs]

    def cx(self, cs, ts) -> None:
        self.x[:, ts] ^= self.x[:, cs]
        self.z[:, cs] ^= self.z[:, ts]

    def cz(self, cs, ts) -> None:
        self.z[:, ts] ^= self.x[:, cs]
        self.z[:, cs] ^= self.x[:, ts]

    def swap(self, a, b) -> None:
        self.x[:, [a, b]] = self.x[:, [b, a]]
        self.z[:, [a, b]] = self.z[:, [b, a]]

    def xx(self, a, b) -> None:
        """MS entangler frame action (H_a CX(a,b) H_a)."""
        self.h([a])
        self.cx([a], [b])
        self.h([a])

    def apply_gate(self, name: str, targets: tuple[int, ...]) -> None:
        if name == "H":
            self.h(list(targets))
        elif name in ("S", "S_DAG"):
            self.s(list(targets))
        elif name in ("SQRT_X", "SQRT_X_DAG"):
            self.sqrt_x(list(targets))
        elif name in ("X", "Y", "Z", "I"):
            pass  # fixed Paulis commute with the frame up to global sign
        elif name == "CX":
            self.cx(list(targets[::2]), list(targets[1::2]))
        elif name == "CZ":
            self.cz(list(targets[::2]), list(targets[1::2]))
        elif name == "SWAP":
            for a, b in zip(targets[::2], targets[1::2]):
                self.swap(a, b)
        elif name == "XX":
            for a, b in zip(targets[::2], targets[1::2]):
                self.xx(a, b)
        else:
            raise ValueError(f"not a unitary gate: {name}")


def _parity_plan(groups: list[list[int]]):
    """Precomputed index arrays for batched record-parity accumulation.

    Returns ``(cols, offsets, out_idx)`` such that
    ``np.bitwise_xor.reduceat(record[:, cols], offsets, axis=1)`` yields
    one XOR-parity column per non-empty group, destined for output
    column ``out_idx[j]``; or ``None`` when every group is empty.
    """
    nonempty = [(i, recs) for i, recs in enumerate(groups) if recs]
    if not nonempty:
        return None
    cols = np.concatenate(
        [np.asarray(recs, dtype=np.intp) for _, recs in nonempty]
    )
    lengths = np.array([len(recs) for _, recs in nonempty], dtype=np.intp)
    offsets = np.concatenate(([0], np.cumsum(lengths[:-1])))
    out_idx = np.array([i for i, _ in nonempty], dtype=np.intp)
    return cols, offsets, out_idx


class FrameSimulator:
    """Samples measurement-flip / detector / observable data in bulk."""

    def __init__(
        self,
        circuit: StabilizerCircuit,
        seed: int | np.random.SeedSequence | None = None,
    ):
        self.circuit = circuit
        self._rng = np.random.default_rng(seed)
        det_records = circuit.detector_records()
        obs_groups: list[list[int]] = [[] for _ in range(circuit.num_observables)]
        for idx, recs in circuit.observable_records().items():
            obs_groups[idx] = recs
        self._det_plan = _parity_plan(det_records)
        self._obs_plan = _parity_plan(obs_groups)

    def sample(self, shots: int) -> SampleResult:
        """Sample ``shots`` runs of the circuit."""
        if shots <= 0:
            raise ValueError("shots must be positive")
        circ = self.circuit
        n = max(circ.num_qubits, 1)
        state = FrameState(shots, n)
        rng = self._rng
        record = np.zeros((shots, circ.num_measurements), dtype=bool)
        cursor = 0

        for inst in circ.instructions:
            name = inst.name
            targets = inst.targets
            if name in ("H", "S", "S_DAG", "SQRT_X", "SQRT_X_DAG", "X", "Y", "Z",
                        "I", "CX", "CZ", "SWAP", "XX"):
                state.apply_gate(name, targets)
            elif name == "M":
                for q in targets:
                    record[:, cursor] = state.x[:, q]
                    cursor += 1
                    state.z[:, q] ^= rng.integers(2, size=shots, dtype=bool)
            elif name == "MR":
                for q in targets:
                    record[:, cursor] = state.x[:, q]
                    cursor += 1
                    state.x[:, q] = False
                    state.z[:, q] = rng.integers(2, size=shots, dtype=bool)
            elif name == "MX":
                for q in targets:
                    record[:, cursor] = state.z[:, q]
                    cursor += 1
                    state.x[:, q] ^= rng.integers(2, size=shots, dtype=bool)
            elif name == "R":
                for q in targets:
                    state.x[:, q] = False
                    state.z[:, q] = rng.integers(2, size=shots, dtype=bool)
            elif name == "RX":
                for q in targets:
                    state.z[:, q] = False
                    state.x[:, q] = rng.integers(2, size=shots, dtype=bool)
            elif name == "X_ERROR":
                p = inst.args[0]
                for q in targets:
                    state.x[:, q] ^= rng.random(shots) < p
            elif name == "Z_ERROR":
                p = inst.args[0]
                for q in targets:
                    state.z[:, q] ^= rng.random(shots) < p
            elif name == "Y_ERROR":
                p = inst.args[0]
                for q in targets:
                    flips = rng.random(shots) < p
                    state.x[:, q] ^= flips
                    state.z[:, q] ^= flips
            elif name == "PAULI_CHANNEL_1":
                px, py, pz = inst.args
                for q in targets:
                    u = rng.random(shots)
                    state.x[:, q] ^= u < (px + py)
                    state.z[:, q] ^= (u >= px) & (u < (px + py + pz))
            elif name == "DEPOLARIZE1":
                p = inst.args[0]
                for q in targets:
                    u = rng.random(shots)
                    hit = u < p
                    kind = rng.integers(3, size=shots)
                    state.x[:, q] ^= hit & (kind != 2)  # X or Y
                    state.z[:, q] ^= hit & (kind != 0)  # Y or Z
            elif name == "DEPOLARIZE2":
                p = inst.args[0]
                for a, b in zip(targets[::2], targets[1::2]):
                    u = rng.random(shots)
                    hit = u < p
                    kind = rng.integers(1, 16, size=shots)  # 15 non-identity pairs
                    # kind encodes (pa, pb) with pa = kind // 4, pb = kind % 4
                    # and pauli 0=I,1=X,2=Y,3=Z
                    pa = kind // 4
                    pb = kind % 4
                    state.x[:, a] ^= hit & ((pa == 1) | (pa == 2))
                    state.z[:, a] ^= hit & ((pa == 2) | (pa == 3))
                    state.x[:, b] ^= hit & ((pb == 1) | (pb == 2))
                    state.z[:, b] ^= hit & ((pb == 2) | (pb == 3))
            elif name in ("DETECTOR", "OBSERVABLE_INCLUDE", "TICK"):
                pass
            else:
                raise ValueError(f"frame simulator cannot handle {name}")

        # Parity accumulation: gather each annotation's record columns
        # into one block and XOR-reduce every segment in a single
        # vectorised pass (indices precomputed at construction).
        detectors = np.zeros((shots, circ.num_detectors), dtype=bool)
        if self._det_plan is not None:
            cols, offsets, out_idx = self._det_plan
            detectors[:, out_idx] = np.bitwise_xor.reduceat(
                record[:, cols], offsets, axis=1
            )
        observables = np.zeros((shots, circ.num_observables), dtype=bool)
        if self._obs_plan is not None:
            cols, offsets, out_idx = self._obs_plan
            observables[:, out_idx] = np.bitwise_xor.reduceat(
                record[:, cols], offsets, axis=1
            )
        return SampleResult(record, detectors, observables)
