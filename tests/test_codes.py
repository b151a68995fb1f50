"""QEC code structure tests: geometry, stabilizers, logicals, rounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from code_helpers import interaction_graph
from repro.codes import (
    RepetitionCode,
    RotatedSurfaceCode,
    UnrotatedSurfaceCode,
    ideal_memory_circuit,
    make_code,
    memory_detector_spec,
    syndrome_round,
)
from repro.codes.base import Role
from repro.sim import PauliString, TableauSimulator


def _check_pauli(code, check):
    p = PauliString(code.num_qubits)
    for d in check.data:
        if check.basis == "X":
            p.x[d] = True
        else:
            p.z[d] = True
    return p


def _logical(code, which):
    p = PauliString(code.num_qubits)
    support = code.logical_z if which == "Z" else code.logical_x
    for d in support:
        if which == "Z":
            p.z[d] = True
        else:
            p.x[d] = True
    return p


ALL_CODES = [
    RepetitionCode(2),
    RepetitionCode(3),
    RepetitionCode(5),
    RotatedSurfaceCode(2),
    RotatedSurfaceCode(3),
    RotatedSurfaceCode(4),
    RotatedSurfaceCode(5),
    UnrotatedSurfaceCode(2),
    UnrotatedSurfaceCode(3),
]


class TestQubitCounts:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_rotated_counts(self, d):
        code = RotatedSurfaceCode(d)
        assert code.num_qubits == 2 * d * d - 1
        assert len(code.data_qubits) == d * d
        assert len(code.ancilla_qubits) == d * d - 1

    @pytest.mark.parametrize("d", range(2, 7))
    def test_unrotated_counts(self, d):
        code = UnrotatedSurfaceCode(d)
        assert code.num_qubits == (2 * d - 1) ** 2
        assert len(code.data_qubits) == d * d + (d - 1) ** 2

    @pytest.mark.parametrize("d", range(2, 9))
    def test_repetition_counts(self, d):
        code = RepetitionCode(d)
        assert len(code.data_qubits) == d
        assert len(code.ancilla_qubits) == d - 1

    def test_distance_below_two_rejected(self):
        for cls in (RepetitionCode, RotatedSurfaceCode, UnrotatedSurfaceCode):
            with pytest.raises(ValueError):
                cls(1)

    def test_make_code_factory(self):
        assert isinstance(make_code("repetition", 3), RepetitionCode)
        assert isinstance(make_code("rotated_surface", 3), RotatedSurfaceCode)
        with pytest.raises(ValueError):
            make_code("steane", 3)


class TestStabilizerStructure:
    @pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: f"{c.name}-{c.distance}")
    def test_checks_pairwise_commute(self, code):
        paulis = [_check_pauli(code, c) for c in code.checks]
        for i in range(len(paulis)):
            for j in range(i + 1, len(paulis)):
                assert paulis[i].commutes_with(paulis[j])

    @pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: f"{c.name}-{c.distance}")
    def test_logicals_commute_with_checks(self, code):
        for which in ("Z", "X"):
            logical = _logical(code, which)
            for check in code.checks:
                assert logical.commutes_with(_check_pauli(code, check)), (
                    which,
                    check,
                )

    @pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: f"{c.name}-{c.distance}")
    def test_logicals_anticommute_with_each_other(self, code):
        assert not _logical(code, "Z").commutes_with(_logical(code, "X"))

    @pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: f"{c.name}-{c.distance}")
    def test_logical_weight_is_distance(self, code):
        assert len(code.logical_z) == code.distance or isinstance(
            code, RepetitionCode
        )
        if isinstance(code, RepetitionCode):
            assert len(code.logical_z) == 1
            assert len(code.logical_x) == code.distance
        else:
            assert len(code.logical_x) == code.distance

    @pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: f"{c.name}-{c.distance}")
    def test_check_weights(self, code):
        for check in code.checks:
            assert 2 <= check.weight <= 4

    @pytest.mark.parametrize("d", (3, 5, 7))
    def test_rotated_interior_checks_weight4(self, d):
        code = RotatedSurfaceCode(d)
        weight4 = [c for c in code.checks if c.weight == 4]
        weight2 = [c for c in code.checks if c.weight == 2]
        assert len(weight4) == (d - 1) ** 2
        assert len(weight2) == 2 * (d - 1)


class TestLayerSchedule:
    @pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: f"{c.name}-{c.distance}")
    def test_no_data_conflicts_per_layer(self, code):
        # base._validate raises on construction; assert explicitly too.
        for layer in range(code.num_layers):
            seen = set()
            for check in code.checks:
                if layer < len(check.data_by_layer):
                    d = check.data_by_layer[layer]
                    if d is not None:
                        assert d not in seen
                        seen.add(d)

    @pytest.mark.parametrize("d", (3, 5))
    def test_rotated_hook_pairs_are_safe(self, d):
        """Last two data of X checks horizontal, of Z checks vertical."""
        code = RotatedSurfaceCode(d)
        pos = {q.index: q.pos for q in code.qubits}
        for check in code.checks:
            tail = [q for q in check.data_by_layer[2:] if q is not None]
            if len(tail) < 2:
                continue
            (x1, y1), (x2, y2) = pos[tail[0]], pos[tail[1]]
            if check.basis == "X":
                assert y1 == y2, "X hook pair must be horizontal"
            else:
                assert x1 == x2, "Z hook pair must be vertical"

    @pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: f"{c.name}-{c.distance}")
    def test_syndrome_round_shape(self, code):
        round_layers = syndrome_round(code)
        gates = [g for layer in round_layers.layers for g, _ in layer]
        assert gates[0] == "R"
        assert gates[-1] == "M"
        pairs = round_layers.all_two_qubit_pairs()
        expected = sum(c.weight for c in code.checks)
        assert len(pairs) == expected


class TestInteractionGraph:
    def test_nodes_and_edges(self):
        code = RotatedSurfaceCode(3)
        graph = interaction_graph(code)
        assert {q for edge in graph for q in edge} == set(range(code.num_qubits))
        expected_edges = sum(c.weight for c in code.checks)
        assert len(graph) == expected_edges

    def test_early_layers_weigh_more(self):
        code = RotatedSurfaceCode(3)
        graph = interaction_graph(code)
        check = next(c for c in code.checks if c.weight == 4)
        first = check.data_by_layer[0]
        last = check.data_by_layer[-1]
        assert graph[check.ancilla, first] > graph[check.ancilla, last]


class TestMemoryExperiments:
    @pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: f"{c.name}-{c.distance}")
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_noiseless_determinism(self, code, basis):
        circ = ideal_memory_circuit(code, rounds=2, basis=basis)
        rec = np.array(TableauSimulator(circ.num_qubits, seed=1).run(circ))
        for group in circ.detector_records():
            assert rec[group].sum() % 2 == 0
        obs = circ.observable_records()[0]
        assert rec[obs].sum() % 2 == 0

    def test_detector_count(self):
        code = RotatedSurfaceCode(3)
        rounds = 4
        spec = memory_detector_spec(code, rounds, "Z")
        n_z = len(code.checks_of_basis("Z"))
        n_all = len(code.checks)
        expected = n_z + (rounds - 1) * n_all + n_z
        assert len(spec.groups) == expected

    def test_observable_is_logical_support(self):
        code = RotatedSurfaceCode(3)
        spec = memory_detector_spec(code, 2, "Z")
        assert sorted(q for q, r in spec.observable) == sorted(code.logical_z)
        spec_x = memory_detector_spec(code, 2, "X")
        assert sorted(q for q, r in spec_x.observable) == sorted(code.logical_x)

    def test_invalid_args_rejected(self):
        code = RepetitionCode(3)
        with pytest.raises(ValueError):
            memory_detector_spec(code, 0, "Z")
        with pytest.raises(ValueError):
            memory_detector_spec(code, 1, "Y")
        with pytest.raises(ValueError):
            ideal_memory_circuit(code, 1, basis="Y")

    @given(st.integers(2, 5), st.integers(1, 4))
    @settings(max_examples=12, deadline=None)
    def test_repetition_memory_deterministic_any_shape(self, d, rounds):
        code = RepetitionCode(d)
        circ = ideal_memory_circuit(code, rounds=rounds)
        rec = np.array(TableauSimulator(circ.num_qubits, seed=0).run(circ))
        for group in circ.detector_records():
            assert rec[group].sum() % 2 == 0


class TestRoles:
    @pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: f"{c.name}-{c.distance}")
    def test_roles_partition(self, code):
        data = {q.index for q in code.data_qubits}
        anc = {q.index for q in code.ancilla_qubits}
        assert data | anc == set(range(code.num_qubits))
        assert not data & anc

    @pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: f"{c.name}-{c.distance}")
    def test_ancillas_have_basis(self, code):
        for q in code.ancilla_qubits:
            assert q.basis in ("X", "Z")
        for q in code.data_qubits:
            assert q.basis is None
