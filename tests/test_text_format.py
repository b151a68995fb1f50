"""Circuit text serialisation tests, including property round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import RepetitionCode, RotatedSurfaceCode, UniformNoise, ideal_memory_circuit
from repro.sim import (
    StabilizerCircuit,
    circuit_from_text,
    circuit_to_text,
    load_circuit,
    save_circuit,
)


class TestRoundTrip:
    def test_simple_circuit(self):
        circ = StabilizerCircuit()
        circ.append("R", (0, 1))
        circ.append("H", (0,))
        circ.append("CX", (0, 1))
        circ.append("DEPOLARIZE2", (0, 1), (0.001,))
        circ.append("M", (0, 1))
        circ.append("DETECTOR", (-1, -2))
        circ.append("OBSERVABLE_INCLUDE", (-1,), (0,))
        parsed = circuit_from_text(circuit_to_text(circ))
        assert parsed == circ

    def test_memory_experiment_roundtrip(self):
        circ = ideal_memory_circuit(
            RotatedSurfaceCode(3), rounds=2, noise=UniformNoise(0.01)
        )
        parsed = circuit_from_text(circuit_to_text(circ))
        assert parsed == circ
        assert parsed.num_detectors == circ.num_detectors
        assert parsed.num_measurements == circ.num_measurements

    def test_tags_roundtrip(self):
        text = "R 0\nX_ERROR[idle](0.01) 0\nM 0\nDETECTOR[Z] rec[-1]\nOBSERVABLE_INCLUDE[Z](0) rec[-1]"
        circ = circuit_from_text(text)
        assert [inst.tag for inst in circ] == ["", "idle", "", "Z", "Z"]
        assert circuit_to_text(circ) == text
        assert circ.copy() == circ and circ.without_noise().instructions[-1].tag == "Z"

    def test_memory_experiment_tags_each_detector_with_its_basis(self):
        circ = ideal_memory_circuit(RotatedSurfaceCode(3), rounds=2, basis="X")
        tags = [inst.tag for inst in circ if inst.name in ("DETECTOR", "OBSERVABLE_INCLUDE")]
        # Round 0: the 4 X checks; round 1: all 8 checks; final: X checks.
        assert tags.count("X") == 4 + 4 + 4 + 1 and tags.count("Z") == 4
        assert tags[-1] == "X"

    @pytest.mark.parametrize("tag", ["a]b", "a[b", "x#y", "two\nlines"])
    def test_tags_that_cannot_roundtrip_are_rejected(self, tag):
        with pytest.raises(ValueError):
            StabilizerCircuit().append("TICK", (), (), tag)

    def test_file_roundtrip(self, tmp_path):
        circ = ideal_memory_circuit(RepetitionCode(3), rounds=2)
        path = tmp_path / "circuit.stim"
        save_circuit(circ, str(path))
        assert load_circuit(str(path)) == circ

    @given(st.floats(0.0, 1.0, allow_subnormal=False))
    @settings(max_examples=60, deadline=None)
    def test_noise_probabilities_roundtrip_exactly(self, p):
        """The text names the exact probability, not a rounding of it."""
        circ = StabilizerCircuit()
        circ.append("X_ERROR", (0,), (p,))
        circ.append("PAULI_CHANNEL_1", (0,), (p / 3, p / 7, p / 11))
        assert circuit_from_text(circuit_to_text(circ)) == circ

    @given(st.lists(st.sampled_from(["H", "S", "X", "Z"]), min_size=1, max_size=8),
           st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_random_gate_sequences_roundtrip(self, names, qubit):
        circ = StabilizerCircuit()
        for name in names:
            circ.append(name, (qubit,))
        circ.append("M", (qubit,))
        assert circuit_from_text(circuit_to_text(circ)) == circ


class TestParsing:
    def test_comments_and_blanks_ignored(self):
        text = """
        # a comment
        R 0

        M 0  # trailing comment is NOT stripped by stim, but we allow it
        """
        circ = circuit_from_text(text)
        assert len(circ) == 2

    def test_pauli_channel_args(self):
        circ = circuit_from_text("PAULI_CHANNEL_1(0.1, 0.2, 0.3) 4")
        inst = circ.instructions[0]
        assert inst.args == (0.1, 0.2, 0.3)
        assert inst.targets == (4,)

    def test_rec_targets(self):
        circ = circuit_from_text("M 0 1\nDETECTOR rec[-1] rec[-2]")
        assert circ.detector_records() == [[1, 0]]

    def test_bad_instruction_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            circuit_from_text("M 0\nTELEPORT 1")

    def test_bad_targets_report_line(self):
        with pytest.raises(ValueError, match="line 1"):
            circuit_from_text("H zero")

    def test_detector_requires_rec_terms(self):
        with pytest.raises(ValueError, match="rec"):
            circuit_from_text("M 0\nDETECTOR 0")

    def test_observable_index_parsed(self):
        circ = circuit_from_text("M 0\nOBSERVABLE_INCLUDE(2) rec[-1]")
        assert circ.num_observables == 3
