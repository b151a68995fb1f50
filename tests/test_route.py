"""Router tests: constraint compliance, invariants, movement structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DEFAULT_TIMES
from repro.codes import RepetitionCode, RotatedSurfaceCode, UnrotatedSurfaceCode
from repro.codes.base import Role
from repro.core import GreedyRouter, build_gate_dag, place
from repro.core.ir import MOVEMENT_KINDS


def _route(code, cap, topo, rounds=1):
    gates = build_gate_dag(code, rounds)
    placement = place(code, cap, topo)
    router = GreedyRouter(code, placement, gates, DEFAULT_TIMES)
    ops = router.run()
    return ops, placement, router


def _replay_occupancy(ops, placement):
    """Replay ion positions op by op, asserting hardware constraints."""
    device = placement.device
    location = dict(placement.qubit_to_trap)
    occupancy = {c.id: 0 for c in device.components}
    for trap, chain in placement.trap_chains.items():
        occupancy[trap] = len(chain)
    for op in ops:
        if op.kind not in MOVEMENT_KINDS:
            if op.kind in ("CX", "SWAP"):
                a, b = op.ions
                assert location[a] == location[b] == op.components[0], op
            continue
        ion = op.ions[0]
        if op.kind == "SPLIT":
            trap, seg = op.components
            assert location[ion] == trap
            occupancy[trap] -= 1
            occupancy[seg] += 1
            location[ion] = seg
        elif op.kind == "SHUTTLE":
            (seg,) = op.components
            assert location[ion] == seg
        elif op.kind == "JUNCTION_ENTRY":
            seg, junction = op.components
            assert location[ion] == seg
            occupancy[seg] -= 1
            occupancy[junction] += 1
            location[ion] = junction
        elif op.kind == "JUNCTION_EXIT":
            junction, seg = op.components
            assert location[ion] == junction
            occupancy[junction] -= 1
            occupancy[seg] += 1
            location[ion] = seg
        elif op.kind == "MERGE":
            seg, trap = op.components
            assert location[ion] == seg
            occupancy[seg] -= 1
            occupancy[trap] += 1
            location[ion] = trap
        for cid, occ in occupancy.items():
            comp = device.component(cid)
            assert 0 <= occ <= comp.capacity, (op, comp, occ)
    return location, occupancy


CONFIGS = [
    (RepetitionCode(3), 2, "linear"),
    (RepetitionCode(5), 3, "linear"),
    (RepetitionCode(4), 4, "linear"),
    (RotatedSurfaceCode(2), 2, "grid"),
    (RotatedSurfaceCode(3), 2, "grid"),
    (RotatedSurfaceCode(3), 3, "grid"),
    (RotatedSurfaceCode(3), 5, "grid"),
    (RotatedSurfaceCode(3), 2, "switch"),
    (RotatedSurfaceCode(2), 2, "linear"),
    (UnrotatedSurfaceCode(2), 2, "grid"),
]


class TestConstraintCompliance:
    @pytest.mark.parametrize(
        "code,cap,topo", CONFIGS, ids=lambda v: str(v)
    )
    def test_replay_respects_all_hardware_constraints(self, code, cap, topo):
        """Sequential replay: capacities, exclusivity, co-location."""
        ops, placement, _ = _route(code, cap, topo, rounds=2)
        _replay_occupancy(ops, placement)

    @pytest.mark.parametrize("code,cap,topo", CONFIGS, ids=lambda v: str(v))
    def test_all_gates_sequenced_exactly_once(self, code, cap, topo):
        rounds = 2
        gates = build_gate_dag(code, rounds)
        placement = place(code, cap, topo)
        ops = GreedyRouter(code, placement, gates, DEFAULT_TIMES).run()
        sequenced = [op.gate_id for op in ops if op.gate_id is not None]
        assert sorted(sequenced) == [g.id for g in gates]

    @pytest.mark.parametrize("code,cap,topo", CONFIGS[:6], ids=lambda v: str(v))
    def test_final_state_restores_fill_invariant(self, code, cap, topo):
        ops, placement, router = _route(code, cap, topo)
        _replay_occupancy(ops, placement)
        for trap, chain in router.chains.items():
            assert len(chain) <= cap - 1
        # No ion left in transit.
        for q, loc in router.location.items():
            assert placement.device.component(loc).is_trap

    def test_deps_are_topological(self):
        ops, _, _ = _route(RotatedSurfaceCode(3), 2, "grid")
        for op in ops:
            assert all(d < op.id for d in op.deps)


class TestMovementStructure:
    def test_linear_hop_is_split_shuttle_merge(self):
        ops, _, _ = _route(RepetitionCode(2), 2, "linear")
        moves = [op.kind for op in ops if op.is_movement]
        assert moves[:3] == ["SPLIT", "SHUTTLE", "MERGE"]

    def test_grid_hop_crosses_junction(self):
        ops, _, _ = _route(RotatedSurfaceCode(2), 2, "grid")
        kinds = {op.kind for op in ops if op.is_movement}
        assert "JUNCTION_ENTRY" in kinds and "JUNCTION_EXIT" in kinds

    def test_no_junctions_used_on_linear_device(self):
        ops, _, _ = _route(RepetitionCode(3), 2, "linear")
        kinds = {op.kind for op in ops if op.is_movement}
        assert "JUNCTION_ENTRY" not in kinds

    def test_single_trap_needs_no_movement(self):
        code = RepetitionCode(3)
        ops, _, _ = _route(code, code.num_qubits + 1, "linear")
        assert not any(op.is_movement for op in ops)

    def test_capacity2_has_no_multi_ion_swaps(self):
        """With one resident per trap, swaps occur only on 2-ion chains."""
        ops, _, _ = _route(RotatedSurfaceCode(3), 2, "grid", rounds=2)
        for op in ops:
            if op.kind == "SWAP":
                assert len(op.ions) == 2

    def test_ancilla_is_the_mover(self):
        code = RotatedSurfaceCode(3)
        ops, _, router = _route(code, 2, "grid")
        roles = {q.index: q.role for q in code.qubits}
        movers = {op.ions[0] for op in ops if op.kind == "SPLIT"}
        ancilla_movers = sum(1 for m in movers if roles[m] is Role.ANCILLA)
        assert ancilla_movers / len(movers) > 0.8


class TestDurations:
    def test_movement_durations_match_table1(self):
        ops, _, _ = _route(RotatedSurfaceCode(2), 2, "grid")
        expected = {
            "SPLIT": 80,
            "MERGE": 80,
            "SHUTTLE": 5,
            "JUNCTION_ENTRY": 100,
            "JUNCTION_EXIT": 100,
            "CX": 60,
            "H": 5,
            "M": 400,
            "R": 50,
            "SWAP": 120,
        }
        for op in ops:
            assert op.duration == expected[op.kind], op.kind


class TestScaling:
    @given(st.integers(2, 5))
    @settings(max_examples=4, deadline=None)
    def test_any_distance_routes_on_grid(self, d):
        ops, placement, _ = _route(RotatedSurfaceCode(d), 2, "grid")
        _replay_occupancy(ops, placement)

    @given(st.integers(3, 8), st.integers(2, 5))
    @settings(max_examples=8, deadline=None)
    def test_repetition_any_capacity_on_linear(self, d, cap):
        ops, placement, _ = _route(RepetitionCode(d), cap, "linear")
        _replay_occupancy(ops, placement)
