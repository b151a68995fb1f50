"""Exporter tests: compiled schedule -> noisy stabilizer circuit."""

import numpy as np
import pytest

from code_helpers import param_id
from repro.codes import RepetitionCode, RotatedSurfaceCode, UnrotatedSurfaceCode
from repro.core import compile_memory_experiment, fold_probability, program_to_circuit
from repro.noise import NoiseParameters
from repro.sim import FrameSimulator, TableauSimulator

NOISE = NoiseParameters()

CONFIGS = [
    (RepetitionCode(3), 2, "linear"),
    (RepetitionCode(4), 3, "linear"),
    (RotatedSurfaceCode(2), 2, "grid"),
    (RotatedSurfaceCode(3), 2, "grid"),
    (RotatedSurfaceCode(3), 5, "grid"),
    (RotatedSurfaceCode(2), 2, "switch"),
    (UnrotatedSurfaceCode(2), 3, "grid"),
]


def _export(code, cap, topo, rounds=2, basis="Z", noise=NOISE):
    program = compile_memory_experiment(
        code, trap_capacity=cap, topology=topo, rounds=rounds, basis=basis
    )
    return program, program_to_circuit(program, code, noise, basis=basis)


class TestCorrectness:
    @pytest.mark.parametrize("code,cap,topo", CONFIGS, ids=param_id)
    def test_noiseless_determinism(self, code, cap, topo):
        """The gold test: compiled circuits measure what they claim."""
        _, export = _export(code, cap, topo)
        clean = export.circuit.without_noise()
        rec = np.array(TableauSimulator(clean.num_qubits, seed=5).run(clean))
        for group in clean.detector_records():
            assert rec[group].sum() % 2 == 0
        assert rec[clean.observable_records()[0]].sum() % 2 == 0

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_both_bases_deterministic(self, basis):
        _, export = _export(RotatedSurfaceCode(3), 2, "grid", basis=basis)
        clean = export.circuit.without_noise()
        rec = np.array(TableauSimulator(clean.num_qubits, seed=2).run(clean))
        for group in clean.detector_records():
            assert rec[group].sum() % 2 == 0

    def test_measurement_count(self):
        code = RotatedSurfaceCode(3)
        rounds = 3
        _, export = _export(code, 2, "grid", rounds=rounds)
        n_anc = len(code.ancilla_qubits)
        n_data = len(code.data_qubits)
        assert export.circuit.num_measurements == rounds * n_anc + n_data

    def test_meas_index_covers_all_rounds(self):
        code = RepetitionCode(3)
        rounds = 3
        _, export = _export(code, 2, "linear", rounds=rounds)
        for check in code.checks:
            for r in range(rounds):
                assert (check.ancilla, r) in export.meas_index
        for q in code.data_qubits:
            assert (q.index, -1) in export.meas_index

    def test_detector_count_matches_spec(self):
        code = RotatedSurfaceCode(3)
        rounds = 2
        _, export = _export(code, 2, "grid", rounds=rounds)
        n_z = len(code.checks_of_basis("Z"))
        n_all = len(code.checks)
        expected = n_z + (rounds - 1) * n_all + n_z
        assert export.circuit.num_detectors == expected


class TestNoiseAnnotations:
    def test_every_cx_gets_depolarizing(self):
        _, export = _export(RepetitionCode(3), 2, "linear")
        instructions = export.circuit.instructions
        for i, inst in enumerate(instructions):
            if inst.name == "CX":
                following = [x.name for x in instructions[i + 1:i + 3]]
                assert "DEPOLARIZE2" in following

    def test_measure_preceded_by_flip(self):
        _, export = _export(RepetitionCode(3), 2, "linear")
        instructions = export.circuit.instructions
        for i, inst in enumerate(instructions):
            if inst.name == "M":
                assert instructions[i - 1].name == "X_ERROR"

    def test_idle_gaps_dephase(self):
        _, export = _export(RotatedSurfaceCode(2), 2, "grid")
        assert export.circuit.count("Z_ERROR") > 0

    def test_heating_tracked(self):
        _, export = _export(RotatedSurfaceCode(2), 2, "grid")
        assert export.max_nbar > 0

    def test_swap_noise_without_swap_gate(self):
        """Gate swaps are identity on code qubits; only noise remains."""
        program = compile_memory_experiment(
            RotatedSurfaceCode(3), trap_capacity=2, topology="grid", rounds=2
        )
        export = program_to_circuit(program, RotatedSurfaceCode(3), NOISE)
        assert export.circuit.count("SWAP") == 0

    def test_improvement_lowers_noise(self):
        code = RepetitionCode(3)
        program = compile_memory_experiment(code, 2, "linear", rounds=2)
        base = program_to_circuit(program, code, NOISE)
        better = program_to_circuit(program, code, NOISE.improved(10))
        base_p = [
            i.args[0] for i in base.circuit.instructions if i.name == "DEPOLARIZE2"
        ]
        better_p = [
            i.args[0]
            for i in better.circuit.instructions
            if i.name == "DEPOLARIZE2"
        ]
        assert all(b < a for a, b in zip(base_p, better_p))

    def test_sampling_yields_failures_at_1x(self):
        _, export = _export(RotatedSurfaceCode(2), 2, "grid", rounds=2)
        sample = FrameSimulator(export.circuit, seed=1).sample(500)
        assert sample.detectors.any()


class TestFoldProbability:
    def test_zero(self):
        assert fold_probability(0.0, 5) == 0.0

    def test_single(self):
        assert fold_probability(0.3, 1) == pytest.approx(0.3)

    def test_triple(self):
        p = 0.1
        expected = (1 - (1 - 2 * p) ** 3) / 2
        assert fold_probability(p, 3) == pytest.approx(expected)

    def test_saturates_at_half(self):
        assert fold_probability(0.5, 7) == pytest.approx(0.5)
