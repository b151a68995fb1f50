"""Detector error model extraction tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import RepetitionCode, RotatedSurfaceCode, UniformNoise, ideal_memory_circuit
from repro.sim import (
    DemError,
    DetectorErrorModel,
    FrameSimulator,
    StabilizerCircuit,
    circuit_to_dem,
    circuit_to_dems,
)


def _simple_circuit(p=0.1):
    """One qubit, one error location, two measurements -> one detector."""
    circ = StabilizerCircuit()
    circ.append("R", (0,))
    circ.append("M", (0,))
    circ.append("X_ERROR", (0,), (p,))
    circ.append("M", (0,))
    circ.append("DETECTOR", (-1, -2))
    return circ


class TestBasicExtraction:
    def test_single_mechanism(self):
        dem = circuit_to_dem(_simple_circuit(0.1))
        assert dem.num_errors == 1
        err = dem.errors[0]
        assert err.detectors == (0,)
        assert err.observables == ()
        assert err.probability == pytest.approx(0.1)

    def test_noiseless_circuit_gives_empty_model(self):
        circ = _simple_circuit(0.0)
        # p=0 channels produce no mechanisms once merged.
        dem = circuit_to_dem(circ)
        assert dem.num_errors == 0

    def test_z_error_before_z_measurement_invisible(self):
        circ = StabilizerCircuit()
        circ.append("R", (0,))
        circ.append("M", (0,))
        circ.append("Z_ERROR", (0,), (0.2,))
        circ.append("M", (0,))
        circ.append("DETECTOR", (-1, -2))
        dem = circuit_to_dem(circ)
        assert dem.num_errors == 0

    def test_observable_only_mechanism_kept(self):
        circ = StabilizerCircuit()
        circ.append("R", (0,))
        circ.append("X_ERROR", (0,), (0.05,))
        circ.append("M", (0,))
        circ.append("OBSERVABLE_INCLUDE", (-1,), (0,))
        dem = circuit_to_dem(circ)
        assert dem.num_errors == 1
        assert dem.errors[0].detectors == ()
        assert dem.errors[0].observables == (0,)

    def test_merging_combines_same_symptoms(self):
        circ = StabilizerCircuit()
        circ.append("R", (0,))
        circ.append("M", (0,))
        circ.append("X_ERROR", (0,), (0.1,))
        circ.append("X_ERROR", (0,), (0.1,))
        circ.append("M", (0,))
        circ.append("DETECTOR", (-1, -2))
        dem = circuit_to_dem(circ)
        assert dem.num_errors == 1
        # Two p=0.1 sources fold to 0.1*0.9 + 0.9*0.1 = 0.18.
        assert dem.errors[0].probability == pytest.approx(0.18)

    def test_depolarize2_produces_pair_mechanisms(self):
        circ = StabilizerCircuit()
        circ.append("R", (0, 1))
        circ.append("M", (0, 1))
        circ.append("DEPOLARIZE2", (0, 1), (0.15,))
        circ.append("M", (0, 1))
        circ.append("DETECTOR", (-2, -4))
        circ.append("DETECTOR", (-1, -3))
        dem = circuit_to_dem(circ)
        # Symptom classes: flip q0 only, q1 only, both: 3 entries.
        assert dem.num_errors == 3
        by_dets = {e.detectors: e.probability for e in dem.errors}
        # 4 of 15 components flip q0 only (XI, YI, XZ, YZ); independent
        # sources fold as p = (1 - (1 - 2 p0)^4) / 2 with p0 = p/15.
        p0 = 0.15 / 15
        folded = (1 - (1 - 2 * p0) ** 4) / 2
        assert by_dets[(0,)] == pytest.approx(folded, rel=1e-6)
        assert by_dets[(1,)] == pytest.approx(folded, rel=1e-6)
        assert by_dets[(0, 1)] == pytest.approx(folded, rel=1e-6)


class TestMergedModel:
    def test_merged_is_idempotent(self):
        dem = circuit_to_dem(_simple_circuit(0.2))
        merged = dem.merged()
        assert merged.merged().errors == merged.errors

    def test_merged_drops_zero_probability(self):
        dem = DetectorErrorModel(2, 1, [DemError((0,), (), 0.0)])
        assert dem.merged().num_errors == 0


class TestAgainstSampling:
    """DEM probabilities must reproduce sampled detector statistics."""

    @given(st.floats(0.01, 0.3))
    @settings(max_examples=10, deadline=None)
    def test_single_detector_rate_matches(self, p):
        circ = _simple_circuit(p)
        dem = circuit_to_dem(circ)
        sample = FrameSimulator(circ, seed=3).sample(30000)
        rate = sample.detectors[:, 0].mean()
        assert abs(rate - p) < 0.02

    def test_repetition_code_detector_rates(self):
        code = RepetitionCode(3)
        circ = ideal_memory_circuit(code, rounds=3, noise=UniformNoise(0.01))
        dem = circuit_to_dem(circ)
        # Predicted marginal detector rates from independent mechanisms.
        num_det = circ.num_detectors
        predicted = np.zeros(num_det)
        for err in dem.errors:
            for det in err.detectors:
                predicted[det] = (
                    predicted[det] * (1 - err.probability)
                    + err.probability * (1 - predicted[det])
                )
        sample = FrameSimulator(circ, seed=9).sample(40000)
        measured = sample.detectors.mean(axis=0)
        assert np.all(np.abs(measured - predicted) < 0.01)

    def test_surface_code_dem_is_graphlike_after_decomposition(self):
        code = RotatedSurfaceCode(3)
        circ = ideal_memory_circuit(code, rounds=3, noise=UniformNoise(0.005))
        dem = circuit_to_dem(circ, decompose=True)
        # The projection onto the Z detectors of a Z memory.
        assert dem.num_errors == 55
        assert all(err.is_graphlike() for err in dem.errors)

    def test_surface_code_observable_flips_predicted(self):
        """Mechanisms flipping the observable with no detectors are absent
        in a proper memory circuit (every single error is detectable)."""
        code = RotatedSurfaceCode(3)
        circ = ideal_memory_circuit(code, rounds=3, noise=UniformNoise(0.005))
        dem = circuit_to_dem(circ)
        silent_logical = [
            e for e in dem.errors if not e.detectors and e.observables
        ]
        assert silent_logical == []


class TestSymptomTypes:
    def test_symptom_indices_are_python_ints(self):
        # Decoder graph keys and cache JSON hash and serialise these;
        # numpy scalars would leak a dtype into every consumer.
        circ = StabilizerCircuit()
        circ.append("R", (0, 1, 2))
        circ.append("X_ERROR", (0,), (0.1,))
        circ.append("CX", (0, 1, 0, 2))
        circ.append("M", (0, 1, 2))
        for k in (-3, -2, -1):
            circ.append("DETECTOR", (k,))
        circ.append("OBSERVABLE_INCLUDE", (-1,), (0,))
        exact, graphlike = circuit_to_dems(circ)
        assert exact.errors and graphlike.errors
        for dem in (exact, graphlike):
            for err in dem.errors:
                assert all(type(i) is int for i in err.detectors + err.observables)


# ----------------------------------------------------------------------
# Per-mechanism reference oracle
# ----------------------------------------------------------------------
_GATES_1Q = ("H", "S", "S_DAG", "SQRT_X", "SQRT_X_DAG", "X", "Y", "Z", "I")
_GATES_2Q = ("CX", "CZ", "SWAP", "XX")
_NOISE_1Q = ("X_ERROR", "Y_ERROR", "Z_ERROR", "DEPOLARIZE1", "PAULI_CHANNEL_1")
_PROBS = (0.0, 0.001, 0.013, 0.05, 0.1)


def _reference_mechanisms(circuit):
    """(instruction, probability, {qubit: 'X'|'Y'|'Z'}) in circuit order."""
    out = []
    for idx, inst in enumerate(circuit.instructions):
        name, targets, args = inst.name, inst.targets, inst.args
        if name in ("X_ERROR", "Y_ERROR", "Z_ERROR"):
            out += [(idx, args[0], {q: name[0]}) for q in targets]
        elif name in ("PAULI_CHANNEL_1", "DEPOLARIZE1"):
            probs = args if name == "PAULI_CHANNEL_1" else (args[0] / 3.0,) * 3
            out += [(idx, p, {q: pauli}) for q in targets
                    for pauli, p in zip("XYZ", probs) if p]
        elif name == "DEPOLARIZE2" and args[0]:
            for a, b in zip(targets[::2], targets[1::2]):
                for k in range(1, 16):
                    paulis = {}
                    if k // 4:
                        paulis[a] = "IXYZ"[k // 4]
                    if k % 4:
                        paulis[b] = "IXYZ"[k % 4]
                    out.append((idx, args[0] / 15.0, paulis))
    return out


def _reference_symptom(circuit, inject_at, paulis):
    """Propagate one injected Pauli through a single-shot frame."""
    x = [False] * circuit.num_qubits
    z = [False] * circuit.num_qubits

    def h(q):
        x[q], z[q] = z[q], x[q]

    def cx(c, t):
        x[t] ^= x[c]
        z[c] ^= z[t]

    record = []
    for idx, inst in enumerate(circuit.instructions):
        if idx == inject_at:
            for q, pauli in paulis.items():
                x[q] ^= pauli in "XY"
                z[q] ^= pauli in "YZ"
        name, targets = inst.name, inst.targets
        pairs = list(zip(targets[::2], targets[1::2]))
        for q in targets if name in _GATES_1Q + ("R", "RX", "M", "MX", "MR") else ():
            if name == "H":
                h(q)
            elif name in ("S", "S_DAG"):
                z[q] ^= x[q]
            elif name in ("SQRT_X", "SQRT_X_DAG"):
                x[q] ^= z[q]
            elif name in ("M", "MR"):
                record.append(x[q])
            elif name == "MX":
                record.append(z[q])
            if name in ("R", "RX", "MR"):
                x[q] = z[q] = False
        for a, b in pairs if name in _GATES_2Q else ():
            if name == "CX":
                cx(a, b)
            elif name == "CZ":
                z[b] ^= x[a]
                z[a] ^= x[b]
            elif name == "SWAP":
                x[a], x[b], z[a], z[b] = x[b], x[a], z[b], z[a]
            else:  # XX = H_a CX(a, b) H_a
                h(a)
                cx(a, b)
                h(a)
    dets = tuple(d for d, recs in enumerate(circuit.detector_records())
                 if sum(record[r] for r in recs) % 2)
    obs_records = circuit.observable_records()
    obs = tuple(o for o in sorted(obs_records)
                if sum(record[r] for r in obs_records[o]) % 2)
    return dets, obs


def _reference_exact_dem(circuit):
    acc = {}
    for idx, p, paulis in _reference_mechanisms(circuit):
        key = _reference_symptom(circuit, idx, paulis)
        if key != ((), ()):
            prior = acc.get(key, 0.0)
            acc[key] = prior + p - 2.0 * prior * p
    return [DemError(d, o, p) for (d, o), p in sorted(acc.items()) if p > 0.0]


@st.composite
def _random_circuits(draw):
    n = draw(st.integers(1, 5))
    circ = StabilizerCircuit()
    circ.append("R", range(n))
    kinds = ["1q", "noise1"] + (["2q", "noise2"] if n >= 2 else []) + [
        "reset", "measure", "detector", "observable"]
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(kinds))
        qubits = draw(st.permutations(range(n)))
        if kind in ("1q", "noise1", "reset", "measure"):
            targets = qubits[:draw(st.integers(1, n))]
        else:
            targets = qubits[:2 * draw(st.integers(1, n // 2 or 1))]
        if kind == "1q":
            circ.append(draw(st.sampled_from(_GATES_1Q)), targets)
        elif kind == "2q":
            circ.append(draw(st.sampled_from(_GATES_2Q)), targets)
        elif kind == "noise1":
            name = draw(st.sampled_from(_NOISE_1Q))
            nargs = 3 if name == "PAULI_CHANNEL_1" else 1
            args = [draw(st.sampled_from(_PROBS)) for _ in range(nargs)]
            circ.append(name, targets, args)
        elif kind == "noise2":
            circ.append("DEPOLARIZE2", targets, [draw(st.sampled_from(_PROBS))])
        elif kind == "reset":
            circ.append(draw(st.sampled_from(("R", "RX"))), targets)
        elif kind == "measure":
            circ.append(draw(st.sampled_from(("M", "MX", "MR"))), targets)
        elif circ.num_measurements:
            recs = draw(st.lists(st.integers(-circ.num_measurements, -1),
                                 min_size=1, max_size=3))
            if kind == "detector":
                circ.append("DETECTOR", recs)
            else:
                circ.append("OBSERVABLE_INCLUDE", recs, [draw(st.integers(0, 1))])
    return circ


class TestAgainstPerMechanismReference:
    @given(_random_circuits())
    @settings(max_examples=150, deadline=None)
    def test_exact_dem_matches_reference(self, circ):
        exact, graphlike = circuit_to_dems(circ)
        assert exact.errors == _reference_exact_dem(circ)
        assert all(err.is_graphlike() for err in graphlike.errors)
