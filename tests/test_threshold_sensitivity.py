"""Tests for threshold scanning and noise sensitivity analysis."""

import pytest

from repro.codes import RepetitionCode, RotatedSurfaceCode
from repro.ler import ThresholdScan, scan_threshold
from repro.ler.estimator import LerResult
from repro.noise import DEFAULT_NOISE
from repro.toolflow import sensitivity_analysis


class TestThresholdScan:
    @pytest.fixture(scope="class")
    def scan(self):
        # Rates chosen so every grid point sees tens of failures at this
        # shot budget — a sub-threshold point near 4e-3 and a clearly
        # super-threshold point at 2.5e-2.
        return scan_threshold(
            RotatedSurfaceCode,
            distances=(3, 5),
            physical_rates=(4e-3, 2.5e-2),
            rounds=3,
            shots=6000,
            seed=5,
        )

    def test_grid_complete(self, scan):
        assert len(scan.results) == 4
        for key, result in scan.results.items():
            assert isinstance(result, LerResult)

    def test_below_threshold_big_code_wins(self, scan):
        assert scan.suppression_at(4e-3) > 1.0

    def test_above_threshold_big_code_loses(self, scan):
        assert scan.suppression_at(2.5e-2) < 1.0

    def test_threshold_in_plausible_range(self, scan):
        """Circuit-level depolarising threshold ~0.3-2% for MWPM."""
        th = scan.threshold_estimate()
        assert th is not None
        assert 5e-4 < th < 2.5e-2

    def test_requires_two_distances(self):
        with pytest.raises(ValueError):
            scan_threshold(RotatedSurfaceCode, distances=(3,))

    def test_manual_scan_object(self):
        results = {
            (3, 0.001): LerResult(1000, 10, 1),
            (5, 0.001): LerResult(1000, 2, 1),
            (3, 0.02): LerResult(1000, 100, 1),
            (5, 0.02): LerResult(1000, 300, 1),
        }
        scan = ThresholdScan((3, 5), (0.001, 0.02), results)
        th = scan.threshold_estimate()
        assert th is not None and 0.001 < th < 0.02

    def test_no_crossing_returns_none(self):
        results = {
            (3, 0.001): LerResult(1000, 10, 1),
            (5, 0.001): LerResult(1000, 2, 1),
            (3, 0.002): LerResult(1000, 20, 1),
            (5, 0.002): LerResult(1000, 4, 1),
        }
        scan = ThresholdScan((3, 5), (0.001, 0.002), results)
        assert scan.threshold_estimate() is None


class TestSensitivity:
    @pytest.fixture(scope="class")
    def entries(self):
        # Halving and doubling the two-qubit error moves this point's LER
        # about 1.8x.  At 1,500 shots each point rests on 5-16 failures
        # and the swing assertion below failed on 1 seed in 5; at 50,000
        # it held on every one of 40 seeds.
        return sensitivity_analysis(
            DEFAULT_NOISE,
            distance=2,
            capacity=2,
            gate_improvement=5.0,
            shots=50000,
            parameters={
                "two-qubit base error": "p_2q_base",
                "reset error": "p_reset",
            },
        )

    def test_sorted_by_swing(self, entries):
        swings = [e.swing for e in entries]
        assert swings == sorted(swings, reverse=True)

    def test_all_parameters_present(self, entries):
        names = {e.parameter for e in entries}
        assert names == {"two-qubit base error", "reset error"}

    def test_two_qubit_error_matters(self, entries):
        """Doubling the dominant channel must move the LER."""
        entry = next(e for e in entries if e.parameter == "two-qubit base error")
        assert entry.swing > 1.2
        assert entry.ler_at_double > entry.ler_at_half

    def test_swing_is_at_least_one(self, entries):
        for entry in entries:
            assert entry.swing >= 1.0
