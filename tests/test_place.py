"""Placement pass tests: partitioning, device sizing, Hungarian matching."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from code_helpers import interaction_graph
from repro.codes import RepetitionCode, RotatedSurfaceCode, UnrotatedSurfaceCode
from repro.core import build_device_for, layout_positions, partition_qubits, place


class TestLayoutPositions:
    def test_rotated_becomes_unit_grid(self):
        """After the 45-degree transform, neighbours differ by one step."""
        code = RotatedSurfaceCode(3)
        pos = layout_positions(code)
        for check in code.checks:
            ax, ay = pos[check.ancilla]
            for d in check.data:
                dx, dy = pos[d]
                assert abs(ax - dx) + abs(ay - dy) == pytest.approx(1.0)

    def test_unrotated_half_step_neighbours(self):
        code = UnrotatedSurfaceCode(2)
        pos = layout_positions(code)
        for check in code.checks:
            ax, ay = pos[check.ancilla]
            for d in check.data:
                dx, dy = pos[d]
                assert abs(ax - dx) + abs(ay - dy) == pytest.approx(0.5)


class TestPartition:
    @pytest.mark.parametrize("cap", [2, 3, 5, 9, 17])
    def test_cluster_sizes_balanced(self, cap):
        code = RotatedSurfaceCode(3)
        clusters = partition_qubits(code, cap - 1)
        assert sum(len(c) for c in clusters) == code.num_qubits
        sizes = [len(c) for c in clusters]
        assert max(sizes) <= cap - 1
        # Balanced: sizes differ by at most 2 (boundary effects, Sec 4.2).
        assert max(sizes) - min(sizes) <= 2

    def test_singletons_for_capacity_two(self):
        code = RepetitionCode(4)
        clusters = partition_qubits(code, 1)
        assert all(len(c) == 1 for c in clusters)
        assert len(clusters) == code.num_qubits

    def test_no_qubit_lost_or_duplicated(self):
        code = RotatedSurfaceCode(4)
        clusters = partition_qubits(code, 4)
        seen = [q for c in clusters for q in c]
        assert sorted(seen) == list(range(code.num_qubits))

    def test_invalid_cluster_size(self):
        with pytest.raises(ValueError):
            partition_qubits(RepetitionCode(2), 0)

    @given(st.integers(2, 6), st.integers(2, 10))
    @settings(max_examples=25, deadline=None)
    def test_partition_total_preserved(self, d, cap):
        code = RotatedSurfaceCode(d)
        clusters = partition_qubits(code, cap - 1)
        assert sum(len(c) for c in clusters) == code.num_qubits

    def test_clusters_are_spatially_coherent(self):
        """Neighbouring qubits mostly land in the same cluster."""
        code = RotatedSurfaceCode(5)
        clusters = partition_qubits(code, 8)
        cluster_of = {}
        for i, cluster in enumerate(clusters):
            for q in cluster:
                cluster_of[q] = i
        graph = interaction_graph(code)
        internal = sum(1 for u, v in graph if cluster_of[u] == cluster_of[v])
        assert internal / len(graph) > 0.4


class TestDeviceSizing:
    def test_grid_cap2_tiles_the_code(self):
        code = RotatedSurfaceCode(3)
        device, clusters = build_device_for(code, 2, "grid")
        assert device.num_traps == code.num_qubits
        assert len(clusters) == code.num_qubits

    def test_linear_device_one_trap_per_cluster(self):
        code = RepetitionCode(4)
        device, clusters = build_device_for(code, 3, "linear")
        assert device.num_traps == len(clusters)

    def test_switch_device(self):
        code = RotatedSurfaceCode(2)
        device, clusters = build_device_for(code, 2, "switch")
        assert device.topology == "switch"
        assert device.num_traps == len(clusters)

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            build_device_for(RepetitionCode(2), 2, "hypercube")


class TestPlacement:
    @pytest.mark.parametrize("topo", ["grid", "linear", "switch"])
    @pytest.mark.parametrize("cap", [2, 3, 6])
    def test_every_qubit_placed(self, topo, cap):
        code = RotatedSurfaceCode(3)
        placement = place(code, cap, topo)
        assert sorted(placement.qubit_to_trap) == list(range(code.num_qubits))

    def test_chains_respect_fill_invariant(self):
        code = RotatedSurfaceCode(3)
        for cap in (2, 4, 9):
            placement = place(code, cap, "grid")
            for chain in placement.trap_chains.values():
                assert len(chain) <= cap - 1

    def test_chains_match_map(self):
        placement = place(RotatedSurfaceCode(3), 3, "grid")
        for trap, chain in placement.trap_chains.items():
            for q in chain:
                assert placement.qubit_to_trap[q] == trap

    def test_capacity_below_two_rejected(self):
        with pytest.raises(ValueError):
            place(RepetitionCode(2), 1, "linear")

    def test_undersized_device_rejected_with_clear_context(self):
        """Too few traps must fail up front with the code size and trap
        capacity in the message, not deep inside the assignment solver."""
        from repro.arch.topologies import linear_device

        code = RotatedSurfaceCode(3)  # 25 qubits -> 25 clusters at cap 2
        small = linear_device(4, 2)
        with pytest.raises(ValueError) as excinfo:
            place(code, 2, "linear", device=small)
        message = str(excinfo.value)
        assert f"{code.num_qubits} qubits" in message
        assert "capacity 2" in message
        assert "4-trap" in message
        assert code.name in message

    def test_grid_cap2_preserves_adjacency(self):
        """Neighbouring code qubits land on neighbouring traps."""
        code = RotatedSurfaceCode(3)
        placement = place(code, 2, "grid")
        device = placement.device
        for check in code.checks:
            a_trap = placement.qubit_to_trap[check.ancilla]
            for d in check.data:
                d_trap = placement.qubit_to_trap[d]
                assert d_trap in device.neighbor_traps(a_trap), (
                    check.ancilla,
                    d,
                )
