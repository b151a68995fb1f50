"""Toolflow tests: the Figure-2 evaluation pipeline end to end."""

import contextlib
import io

import pytest

from repro.engine import SweepSpec
from repro.toolflow import DesignSpaceExplorer, EvaluationRecord, format_table, ratio
from repro.toolflow.cli import main


class TestEvaluate:
    @pytest.fixture(scope="class")
    def explorer(self):
        return DesignSpaceExplorer(code_name="rotated_surface")

    def test_compile_only_record(self, explorer):
        record = explorer.evaluate(3, capacity=2, topology="grid", rounds=2)
        assert record.round_time_us > 0
        assert record.movement_ops > 0
        assert record.electrodes > 0
        assert record.data_rate_bitps > 0
        assert record.ler_per_round is None  # no shots requested

    def test_with_simulation(self, explorer):
        record = explorer.evaluate(
            2, capacity=2, topology="grid", rounds=2, shots=300
        )
        assert record.shots == 300
        assert record.ler_per_round is not None
        assert 0 < record.ler_per_round < 1
        assert "max_nbar" in record.extras

    def test_wise_wiring_changes_resources_and_time(self, explorer):
        std = explorer.evaluate(4, capacity=2, wiring="standard", rounds=2)
        wise = explorer.evaluate(4, capacity=2, wiring="wise", rounds=2)
        assert wise.num_dacs < std.num_dacs / 10
        assert wise.round_time_us > std.round_time_us

    def test_default_rounds_is_distance(self, explorer):
        record = explorer.evaluate(3, capacity=2)
        assert record.rounds == 3

    def test_gate_improvement_lowers_ler(self, explorer):
        base = explorer.evaluate(2, capacity=2, rounds=2, shots=800)
        improved = explorer.evaluate(
            2, capacity=2, rounds=2, shots=800, gate_improvement=10.0
        )
        assert improved.ler_per_round < base.ler_per_round

    def test_repetition_explorer(self):
        ex = DesignSpaceExplorer(code_name="repetition")
        record = ex.evaluate(3, capacity=2, topology="linear", rounds=2)
        assert record.code == "repetition"

    def test_ler_projection_pipeline(self):
        ex = DesignSpaceExplorer(code_name="rotated_surface")
        records, proj = ex.ler_projection(
            [2, 3], shots=400, capacity=2, topology="grid",
            gate_improvement=5.0, rounds=2,
        )
        assert len(records) == 2
        assert proj.ler_at(5) > 0

    def test_wiring_method_object_rejected(self, explorer):
        from repro.arch.wiring import WISE_WIRING

        with pytest.raises(ValueError, match="unknown wiring"):
            explorer.evaluate(3, capacity=2, wiring=WISE_WIRING, rounds=2)


class TestOneNumberPerDesignPoint:
    """evaluate, sweep and the CLI commands give a design point one
    failure count: the engine's, keyed by job key and master seed."""

    def test_evaluate_is_the_sweep_record(self):
        explorer = DesignSpaceExplorer()
        record = explorer.evaluate(3, gate_improvement=5.0, shots=4000)
        [swept] = explorer.sweep(SweepSpec(
            distances=(3,), gate_improvements=(5.0,), shots=4000,
            master_seed=explorer.seed,
        ))
        assert record.failures > 0
        assert (record.shots, record.failures) == (swept.shots, swept.failures)
        assert record.extras["job_key"] == swept.extras["job_key"]

    def test_cli_evaluate_and_project_rows_are_the_sweep_rows(self):
        flags = ["--rounds", "2", "--shots", "600", "--improvement", "2"]

        def rows(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv + flags) == 0
            return out.getvalue().splitlines()

        evaluated = rows(["evaluate", "--distance", "3"])
        swept = rows(["sweep", "--distances", "3"])
        assert len(evaluated) == 3  # header, rule, one row
        assert evaluated == swept
        projected = rows(["project", "--distances", "2", "3"])
        assert projected[:4] == rows(["sweep", "--distances", "2", "3"])
        assert projected[4].startswith("Lambda = ")


class TestRecord:
    def test_as_row_keys(self):
        record = EvaluationRecord(
            code="rotated_surface",
            distance=3,
            capacity=2,
            topology="grid",
            wiring="standard",
            gate_improvement=1.0,
            rounds=3,
        )
        row = record.as_row()
        assert row["d"] == 3 and row["cap"] == 2
        assert row["ler_round"] is None

    def test_movement_per_round(self):
        record = EvaluationRecord(
            code="r", distance=3, capacity=2, topology="grid",
            wiring="standard", gate_improvement=1.0, rounds=4,
            movement_ops=40,
        )
        assert record.movement_ops_per_round == 10


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["alpha", 1.5], ["b", None]]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert "NaN" in lines[3]

    def test_large_and_small_floats_scientific(self):
        text = format_table(["v"], [[1.3e12], [2e-9]])
        assert "e+" in text.lower() or "e1" in text
        assert "e-09" in text

    def test_small_floats_keep_significant_digits(self):
        text = format_table(["v"], [[0.00426], [0.0499], [0.5]])
        assert text.splitlines()[2:] == ["0.00426", " 0.0499", "    0.5"]

    def test_ratio(self):
        assert ratio(6, 3) == 2
        assert ratio(1, 0) == float("inf")
