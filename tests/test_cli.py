"""CLI tests for the toolflow command-line interface."""

import csv

import pytest

from repro.toolflow.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_evaluate_args(self):
        args = build_parser().parse_args(
            ["evaluate", "--distance", "3", "--capacity", "5",
             "--topology", "linear"]
        )
        assert args.distance == 3
        assert args.capacity == 5
        assert args.topology == "linear"

    def test_sweep_args(self):
        args = build_parser().parse_args(
            ["sweep", "--distances", "3", "5", "--capacities", "2", "3"]
        )
        assert args.distances == [3, 5]
        assert args.capacities == [2, 3]

    def test_bad_topology_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["evaluate", "--distance", "3", "--topology", "torus"]
            )

    def test_sweep_plural_axis_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--distances", "3", "--decoders", "mwpm", "union_find",
             "--topologies", "grid", "switch", "--wirings", "standard",
             "--improvements", "1", "5"]
        )
        assert args.decoders == ["mwpm", "union_find"]
        assert args.topologies == ["grid", "switch"]
        assert args.wirings == ["standard"]
        assert args.improvements == [1.0, 5.0]
        # Singular flags remain the defaults for the plural axes.
        bare = build_parser().parse_args(["sweep", "--distances", "3"])
        assert bare.decoders is None and bare.topologies is None

    def test_sweep_adaptive_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--distances", "3", "--shots", "500",
             "--target-failures", "50", "--max-shots", "20000"]
        )
        assert args.target_failures == 50
        assert args.max_shots == 20000

    def test_bad_plural_decoder_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--distances", "3", "--decoders", "mwpm", "bp"]
            )


class TestCommands:
    def test_evaluate_runs(self, capsys):
        code = main(["evaluate", "--distance", "2", "--capacity", "2",
                     "--rounds", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "round_us" in out
        assert "rotated_surface" in out

    def test_evaluate_table_shows_the_ler(self, tmp_path, capsys):
        path = tmp_path / "evaluate.csv"
        code = main(["evaluate", "--distance", "3", "--rounds", "2",
                     "--shots", "3000", "--csv", str(path)])
        assert code == 0
        header, row = list(csv.reader(path.open()))
        ler = float(row[header.index("ler_round")])
        assert 1e-3 <= ler < 0.05
        table_row = capsys.readouterr().out.splitlines()[2]
        assert table_row.split()[-1] == f"{ler:.3g}"

    def test_sweep_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--distances", "2", "--capacities", "2", "3",
            "--rounds", "2", "--csv", str(path),
        ])
        assert code == 0
        rows = list(csv.reader(path.open()))
        assert rows[0][0] == "code"
        assert len(rows) == 3  # header + 2 design points

    def test_project_requires_shots(self, capsys):
        code = main(["project", "--distances", "2", "3"])
        assert code == 2

    def test_project_runs(self, capsys):
        code = main([
            "project", "--distances", "2", "3", "--rounds", "2",
            "--shots", "400", "--improvement", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Lambda" in out

    def test_repetition_linear_sweep(self, capsys):
        code = main([
            "sweep", "--distances", "3", "--capacities", "2",
            "--code", "repetition", "--topology", "linear", "--rounds", "2",
        ])
        assert code == 0
        assert "repetition" in capsys.readouterr().out

    def test_sweep_expands_full_cross_product(self, tmp_path, capsys):
        # The bug this guards against: cmd_sweep used to silently
        # narrow the grid to a single topology/wiring/improvement/
        # decoder even though SweepSpec takes tuples.
        path = tmp_path / "grid.csv"
        code = main([
            "sweep", "--distances", "2", "--rounds", "2",
            "--decoders", "mwpm", "union_find",
            "--topologies", "grid", "switch",
            "--csv", str(path),
        ])
        assert code == 0
        rows = list(csv.reader(path.open()))
        assert len(rows) == 5  # header + 2 topologies x 2 decoders

    def test_sweep_adaptive_run(self, capsys):
        code = main([
            "sweep", "--distances", "2", "--rounds", "2",
            "--shots", "128", "--shard-shots", "64",
            "--target-failures", "5", "--max-shots", "1024",
        ])
        assert code == 0
        assert "rotated_surface" in capsys.readouterr().out
