"""Cross-cutting property-based tests (hypothesis) on pipeline invariants.

These complement the per-module property tests: each property here
exercises several subsystems at once on randomly drawn configurations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DEFAULT_TIMES
from repro.codes import RepetitionCode, RotatedSurfaceCode, make_code
from repro.core import (
    build_gate_dag,
    compile_memory_experiment,
    compute_stats,
    place,
    program_to_circuit,
    schedule_asap,
    schedule_type_exclusive,
)
from repro.core.ir import MOVEMENT_KINDS
from repro.core.route import GreedyRouter
from repro.noise import DEFAULT_NOISE
from repro.sim import TableauSimulator

# Strategies ------------------------------------------------------------

small_configs = st.sampled_from([
    ("repetition", 3, 2, "linear"),
    ("repetition", 4, 3, "linear"),
    ("repetition", 5, 2, "linear"),
    ("rotated_surface", 2, 2, "grid"),
    ("rotated_surface", 3, 2, "grid"),
    ("rotated_surface", 3, 4, "grid"),
    ("rotated_surface", 2, 2, "switch"),
])


class TestCompilerInvariants:
    @given(small_configs, st.integers(1, 3))
    @settings(max_examples=12, deadline=None)
    def test_every_compile_is_deterministic_and_complete(self, config, rounds):
        name, d, cap, topo = config
        code = make_code(name, d)
        a = compile_memory_experiment(code, cap, topo, rounds=rounds)
        b = compile_memory_experiment(code, cap, topo, rounds=rounds)
        assert [op.kind for op in a.ops] == [op.kind for op in b.ops]
        assert a.stats.makespan_us == b.stats.makespan_us
        gate_ids = [op.gate_id for op in a.ops if op.gate_id is not None]
        assert len(gate_ids) == len(set(gate_ids))
        expected = len(build_gate_dag(code, rounds))
        assert len(gate_ids) == expected

    @given(small_configs)
    @settings(max_examples=8, deadline=None)
    def test_schedule_start_times_respect_deps(self, config):
        name, d, cap, topo = config
        code = make_code(name, d)
        program = compile_memory_experiment(code, cap, topo, rounds=2)
        for op in program.ops:
            for dep in op.deps:
                assert program.start[op.id] + 1e-9 >= program.end(dep)

    @given(small_configs)
    @settings(max_examples=6, deadline=None)
    def test_wise_schedule_never_faster(self, config):
        name, d, cap, topo = config
        code = make_code(name, d)
        gates = build_gate_dag(code, 2)
        placement = place(code, cap, topo)
        ops = GreedyRouter(code, placement, gates, DEFAULT_TIMES).run()
        asap = schedule_asap(ops)
        wise = schedule_type_exclusive(ops)
        end_asap = max(asap[o.id] + o.duration for o in ops)
        end_wise = max(wise[o.id] + o.duration for o in ops)
        assert end_wise + 1e-9 >= end_asap

    @given(small_configs)
    @settings(max_examples=6, deadline=None)
    def test_compiled_circuit_noiseless_determinism(self, config):
        """The strongest invariant: any compiled config measures its
        stabilizers deterministically in the absence of noise."""
        name, d, cap, topo = config
        code = make_code(name, d)
        program = compile_memory_experiment(code, cap, topo, rounds=2)
        export = program_to_circuit(program, code, DEFAULT_NOISE)
        clean = export.circuit.without_noise()
        rec = np.array(TableauSimulator(clean.num_qubits, seed=0).run(clean))
        for group in clean.detector_records():
            assert rec[group].sum() % 2 == 0

    @given(small_configs, st.integers(1, 3))
    @settings(max_examples=8, deadline=None)
    def test_stats_partition_ops(self, config, rounds):
        name, d, cap, topo = config
        code = make_code(name, d)
        program = compile_memory_experiment(code, cap, topo, rounds=rounds)
        stats = program.stats
        n_movement = sum(1 for op in program.ops if op.kind in MOVEMENT_KINDS)
        n_swaps = sum(1 for op in program.ops if op.kind == "SWAP")
        n_gates = len(program.ops) - n_movement - n_swaps
        assert stats.movement_ops == n_movement + n_swaps
        assert stats.num_gates == n_gates


class TestMonotonicityProperties:
    @given(st.integers(2, 6))
    @settings(max_examples=5, deadline=None)
    def test_more_rounds_longer_makespan(self, d):
        code = RepetitionCode(d)
        m1 = compile_memory_experiment(code, 2, "linear", rounds=1).stats.makespan_us
        m3 = compile_memory_experiment(code, 2, "linear", rounds=3).stats.makespan_us
        assert m3 > m1

    @given(st.integers(2, 5))
    @settings(max_examples=4, deadline=None)
    def test_movement_scales_with_rounds(self, d):
        code = RotatedSurfaceCode(min(d, 3))
        one = compile_memory_experiment(code, 2, "grid", rounds=1).stats
        three = compile_memory_experiment(code, 2, "grid", rounds=3).stats
        assert three.movement_ops > one.movement_ops

    @given(st.floats(1.0, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_improvement_scales_all_error_rates_down(self, factor):
        from repro.noise import (
            measurement_error,
            reset_error,
            single_qubit_error,
            two_qubit_error,
        )

        base = DEFAULT_NOISE
        better = base.improved(factor)
        for fn, args in (
            (two_qubit_error, (40.0, 2, 10.0)),
            (single_qubit_error, (5.0, 2, 10.0)),
        ):
            assert fn(better, *args) == pytest.approx(fn(base, *args) / factor)
        assert measurement_error(better) == pytest.approx(
            measurement_error(base) / factor
        )
        assert reset_error(better) == pytest.approx(reset_error(base) / factor)


class TestExportProperties:
    @given(small_configs)
    @settings(max_examples=6, deadline=None)
    def test_export_measurement_bookkeeping(self, config):
        name, d, cap, topo = config
        code = make_code(name, d)
        rounds = 2
        program = compile_memory_experiment(code, cap, topo, rounds=rounds)
        export = program_to_circuit(program, code, DEFAULT_NOISE)
        n_anc = len(code.ancilla_qubits)
        n_data = len(code.data_qubits)
        assert export.circuit.num_measurements == rounds * n_anc + n_data
        assert len(export.meas_index) == rounds * n_anc + n_data
        # Record indices are unique and within range.
        indices = sorted(export.meas_index.values())
        assert indices == list(range(rounds * n_anc + n_data))

    @given(small_configs)
    @settings(max_examples=6, deadline=None)
    def test_noise_probabilities_valid(self, config):
        name, d, cap, topo = config
        code = make_code(name, d)
        program = compile_memory_experiment(code, cap, topo, rounds=2)
        export = program_to_circuit(program, code, DEFAULT_NOISE)
        for inst in export.circuit.instructions:
            for p in inst.args:
                if inst.name in ("DEPOLARIZE1", "DEPOLARIZE2", "X_ERROR",
                                 "Z_ERROR", "PAULI_CHANNEL_1"):
                    assert 0.0 <= p <= 0.76
