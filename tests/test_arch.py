"""QCCD hardware model tests: topologies, timing, wiring, resources."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    DEFAULT_TIMES,
    STANDARD_WIRING,
    WISE_WIRING,
    ComponentKind,
    OperationTimes,
    build_device,
    electrode_counts,
    grid_device,
    grid_device_from_sites,
    linear_device,
    standard_resources,
    switch_device,
    wiring_by_name,
    wise_resources,
)


class TestLinearDevice:
    def test_structure(self):
        dev = linear_device(4, 2)
        assert dev.num_traps == 4
        assert dev.num_junctions == 0
        assert len(dev.segments) == 3

    def test_neighbor_traps(self):
        dev = linear_device(4, 2)
        assert dev.neighbor_traps(0) == [1]
        assert dev.neighbor_traps(1) == [0, 2]

    def test_single_trap(self):
        dev = linear_device(1, 5)
        assert dev.num_traps == 1
        assert not dev.segments

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            linear_device(0, 2)
        with pytest.raises(ValueError):
            linear_device(3, 1)


class TestSwitchDevice:
    def test_structure(self):
        dev = switch_device(5, 2)
        assert dev.num_traps == 5
        assert dev.num_junctions == 1
        assert len(dev.segments) == 5

    def test_hub_is_crossbar(self):
        dev = switch_device(5, 2)
        hub = dev.junctions[0]
        assert hub.capacity == 5

    def test_all_traps_adjacent(self):
        dev = switch_device(4, 2)
        assert dev.neighbor_traps(0) == [1, 2, 3]


class TestGridDevice:
    def test_rectangle(self):
        dev = grid_device(3, 3, 2)
        assert dev.num_traps == 9
        # Interior corners of a 3x3: 2x2 = 4 junctions.
        assert dev.num_junctions == 4

    def test_diagonal_adjacency(self):
        dev = grid_device(2, 2, 2)
        assert dev.num_junctions == 1
        # All four traps reachable through the shared corner junction.
        assert dev.neighbor_traps(0) == [1, 2, 3]

    def test_from_sites_diamond(self):
        sites = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
        dev = grid_device_from_sites(sites, 2)
        assert dev.num_traps == 5
        dev.validate()

    def test_from_sites_rejects_duplicates(self):
        with pytest.raises(ValueError):
            grid_device_from_sites([(0, 0), (0, 0)], 2)

    def test_degenerate_row_stays_connected(self):
        dev = grid_device(1, 4, 3)
        assert dev.num_traps == 4
        assert dev.num_junctions == 3

    def test_junction_capacity_is_one(self):
        dev = grid_device(3, 3, 2)
        for j in dev.junctions:
            assert j.capacity == 1

    @given(st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_grid_junction_count(self, rows, cols):
        dev = grid_device(rows, cols, 2)
        assert dev.num_junctions == (rows - 1) * (cols - 1)
        dev.validate()


class TestBuildDevice:
    def test_factory_dispatch(self):
        assert build_device("linear", 4, 2).topology == "linear"
        assert build_device("switch", 4, 2).topology == "switch"
        assert build_device("grid", 9, 2).topology == "grid"
        with pytest.raises(ValueError):
            build_device("torus", 4, 2)

    def test_grid_covers_requested_traps(self):
        dev = build_device("grid", 10, 2)
        assert dev.num_traps >= 10


class TestPortEnds:
    def test_linear_ports(self):
        dev = linear_device(3, 2)
        seg_left = dev.neighbors(1)  # segments of middle trap
        ends = {dev.port_end(1, s) for s in seg_left}
        assert ends == {0, 1}


class TestTiming:
    def test_table1_values(self):
        t = DEFAULT_TIMES
        assert t.ms_gate == 40
        assert t.rotation == 5
        assert t.measurement == 400
        assert t.reset == 50
        assert t.shuttle == 5
        assert t.split == 80 and t.merge == 80
        assert t.junction_entry == 100 and t.junction_exit == 100

    def test_composites(self):
        t = DEFAULT_TIMES
        assert t.cx == 40 + 4 * 5
        assert t.hadamard == 5
        assert t.swap == 120

    def test_cooling_overhead(self):
        cooled = DEFAULT_TIMES.with_cooling()
        assert cooled.cx == 850 + 60
        assert cooled.swap == 3 * 890

    def test_lookups(self):
        t = DEFAULT_TIMES
        assert t.gate_duration("M") == 400
        assert t.movement_duration("SPLIT") == 80
        with pytest.raises(ValueError):
            t.gate_duration("TOFFOLI")
        with pytest.raises(ValueError):
            t.movement_duration("TELEPORT")


class TestResources:
    def test_electrode_formula(self):
        dev = grid_device(3, 3, 2)
        dynamic, shim = electrode_counts(dev)
        n_lz = 9 * 2
        n_jz = 4
        assert dynamic == 10 * n_lz + 20 * n_jz
        assert shim == 10 * (n_lz + n_jz)

    def test_standard_dacs_equal_electrodes(self):
        dev = grid_device(3, 3, 2)
        res = standard_resources(dev)
        assert res.num_dacs == res.electrodes
        assert res.data_rate_bitps == pytest.approx(50e6 * res.electrodes)
        assert res.power_w == pytest.approx(0.03 * res.electrodes)

    def test_wise_dacs_two_orders_smaller(self):
        dev = grid_device(10, 10, 2)
        std = standard_resources(dev)
        wise = wise_resources(dev)
        assert wise.num_dacs < std.num_dacs / 50
        assert wise.data_rate_bitps < std.data_rate_bitps / 50

    def test_capacity_two_needs_more_junctions_per_qubit(self):
        """Junction-to-linear-zone ratio rises as capacity drops (Sec 5.2)."""
        small = grid_device(6, 6, 2)   # 36 traps of capacity 2
        large = grid_device(3, 3, 9)   # 9 traps of capacity 9: ~same slots
        ratio_small = small.num_junctions / (small.num_traps * 2)
        ratio_large = large.num_junctions / (large.num_traps * 9)
        assert ratio_small > ratio_large


class TestWiring:
    def test_registry(self):
        assert wiring_by_name("standard") is STANDARD_WIRING
        assert wiring_by_name("wise") is WISE_WIRING
        with pytest.raises(ValueError):
            wiring_by_name("quantum-ethernet")

    def test_flags(self):
        assert not STANDARD_WIRING.type_exclusive
        assert not STANDARD_WIRING.cooled_gates
        assert WISE_WIRING.type_exclusive
        assert WISE_WIRING.cooled_gates

    def test_wise_times_include_cooling(self):
        assert WISE_WIRING.operation_times().cx > STANDARD_WIRING.operation_times().cx

    def test_resources_dispatch(self):
        dev = grid_device(2, 2, 2)
        assert STANDARD_WIRING.resources(dev).num_dacs > WISE_WIRING.resources(dev).num_dacs


class TestDeviceValidation:
    def test_segment_must_join_two(self):
        from repro.arch.components import Component
        from repro.arch.device import QCCDDevice

        dev = QCCDDevice("linear", 2)
        dev.components.append(Component(0, ComponentKind.TRAP, (0, 0), 2))
        dev.components.append(Component(1, ComponentKind.SEGMENT, (1, 0), 1))
        dev.edges.append((0, 1))
        with pytest.raises(ValueError):
            dev.validate()

    def test_trap_trap_edge_rejected(self):
        from repro.arch.components import Component
        from repro.arch.device import QCCDDevice

        dev = QCCDDevice("linear", 2)
        dev.components.append(Component(0, ComponentKind.TRAP, (0, 0), 2))
        dev.components.append(Component(1, ComponentKind.TRAP, (1, 0), 2))
        dev.edges.append((0, 1))
        with pytest.raises(ValueError):
            dev.validate()

    @staticmethod
    def _islands(count):
        """``count`` trap-segment-trap islands with no link between them."""
        from repro.arch.components import Component
        from repro.arch.device import QCCDDevice

        dev = QCCDDevice("linear", 2)
        for island in range(count):
            base, y = 3 * island, 10 * island
            dev.components.append(Component(base, ComponentKind.TRAP, (0, y), 2))
            dev.components.append(Component(base + 1, ComponentKind.SEGMENT, (1, y), 1))
            dev.components.append(Component(base + 2, ComponentKind.TRAP, (2, y), 2))
            dev.edges += [(base, base + 1), (base + 1, base + 2)]
        return dev

    def test_disconnected_device_rejected(self):
        self._islands(1).validate()
        with pytest.raises(ValueError, match="must be connected"):
            self._islands(2).validate()

    @pytest.mark.parametrize("topology", ["grid", "switch", "linear"])
    @pytest.mark.parametrize("capacity", [2, 5, 12])
    @pytest.mark.parametrize("distance", [3, 5, 7])
    def test_shipped_devices_validate(self, topology, capacity, distance):
        from repro.codes import RotatedSurfaceCode
        from repro.core.place import build_device_for

        device, clusters = build_device_for(
            RotatedSurfaceCode(distance), capacity, topology
        )
        device.validate()
        assert device.num_traps >= len(clusters)
