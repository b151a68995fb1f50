"""Logical error rate estimation and projection tests."""

import math

import pytest

from repro.codes import RepetitionCode, RotatedSurfaceCode, UniformNoise, ideal_memory_circuit
from repro.engine import MultiprocessBackend, SerialBackend, sample_circuit
from repro.ler import (
    LerProjection,
    LerResult,
    estimate_logical_error_rate,
    estimate_until_failures,
    fit_projection,
)
from repro.sim import DemSampler, FrameSimulator


class TestLerResult:
    def test_per_shot_jeffreys(self):
        r = LerResult(shots=1000, failures=10, rounds=5)
        assert r.per_shot == pytest.approx(10.5 / 1001)

    def test_zero_failures_still_positive(self):
        r = LerResult(shots=1000, failures=0, rounds=5)
        assert 0 < r.per_shot < 1e-3
        assert not r.observed_any_failure

    def test_per_round_conversion(self):
        r = LerResult(shots=10000, failures=100, rounds=4)
        p = r.per_shot
        expected = 1 - (1 - p) ** 0.25
        assert r.per_round == pytest.approx(expected)

    def test_stderr_uses_smoothed_denominator(self):
        r = LerResult(shots=400, failures=100, rounds=1)
        p = r.per_shot
        assert r.stderr_per_shot == pytest.approx(math.sqrt(p * (1 - p) / 401))

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            LerResult(shots=100, failures=1, rounds=0)
        with pytest.raises(ValueError):
            LerResult(shots=100, failures=1, rounds=-3)


class TestEstimator:
    def test_repetition_code_end_to_end(self):
        circ = ideal_memory_circuit(
            RepetitionCode(3), rounds=3, noise=UniformNoise(0.01)
        )
        result = estimate_logical_error_rate(circ, rounds=3, shots=2000, seed=1)
        assert result.shots == 2000
        assert result.per_shot < 0.05

    def test_decoder_selection(self):
        circ = ideal_memory_circuit(
            RepetitionCode(3), rounds=2, noise=UniformNoise(0.01)
        )
        for decoder in ("mwpm", "union_find"):
            result = estimate_logical_error_rate(
                circ, rounds=2, shots=500, decoder=decoder, seed=2
            )
            assert result.per_shot < 0.1
        with pytest.raises(ValueError):
            estimate_logical_error_rate(circ, rounds=2, shots=10, decoder="bp")

    def test_invalid_shots(self):
        circ = ideal_memory_circuit(RepetitionCode(2), rounds=1)
        with pytest.raises(ValueError):
            estimate_logical_error_rate(circ, rounds=1, shots=0)

    def test_distance_suppression_below_threshold(self):
        rates = []
        for d in (3, 5):
            circ = ideal_memory_circuit(
                RotatedSurfaceCode(d), rounds=2, noise=UniformNoise(0.002)
            )
            result = estimate_logical_error_rate(circ, rounds=2, shots=3000, seed=3)
            rates.append(result.per_shot)
        assert rates[1] < rates[0]


class TestEstimatorIsEnginePath:
    """The estimators are thin wrappers over the engine's one sampling
    path: same shard plan, same streams, same failure counts."""

    def test_fixed_estimate_equals_engine_on_every_backend(self):
        circ = ideal_memory_circuit(
            RotatedSurfaceCode(3), rounds=2, noise=UniformNoise(0.01)
        )
        # 5000 shots span three DEFAULT_SHARD_SHOTS shards.
        result = estimate_logical_error_rate(circ, rounds=2, shots=5000, seed=11)
        serial = sample_circuit(circ, 5000, seed=11, backend=SerialBackend())
        with MultiprocessBackend(2) as backend:
            pooled = sample_circuit(circ, 5000, seed=11, backend=backend)
        assert (result.shots, result.failures) == serial == pooled
        assert result.failures > 0

    @pytest.mark.parametrize("rounds", [0, -2])
    def test_bad_rounds_rejected_before_any_sampling(self, monkeypatch, rounds):
        drawn = []
        sample_packed = DemSampler.sample_packed
        frame_sample = FrameSimulator.sample

        def counting_packed(self, shots, seed=None):
            drawn.append(shots)
            return sample_packed(self, shots, seed=seed)

        def counting_frame(self, shots):
            drawn.append(shots)
            return frame_sample(self, shots)

        monkeypatch.setattr(DemSampler, "sample_packed", counting_packed)
        monkeypatch.setattr(FrameSimulator, "sample", counting_frame)
        circ = ideal_memory_circuit(
            RepetitionCode(3), rounds=2, noise=UniformNoise(0.01)
        )
        with pytest.raises(ValueError, match="rounds must be positive"):
            estimate_logical_error_rate(circ, rounds=rounds, shots=3000, seed=1)
        with pytest.raises(ValueError, match="rounds must be positive"):
            estimate_until_failures(
                circ, rounds=rounds, batch=500, max_shots=3000, seed=1
            )
        assert drawn == []  # not one shard was sampled


class TestProjection:
    def test_exact_fit_two_points(self):
        # p(d) = 0.1 * 4^-((d+1)/2)
        points = [(3, 0.1 * 4 ** -2), (5, 0.1 * 4 ** -3)]
        proj = fit_projection(points)
        assert proj.lam == pytest.approx(4.0, rel=1e-9)
        assert proj.ler_at(7) == pytest.approx(0.1 * 4 ** -4, rel=1e-9)

    def test_distance_for_target(self):
        proj = fit_projection([(3, 1e-3), (5, 1e-4)])
        d = proj.distance_for(1e-9)
        assert d is not None and d % 2 == 1
        assert proj.ler_at(d) <= 1e-9
        assert proj.ler_at(d - 2) > 1e-9

    def test_above_threshold_never_reaches_target(self):
        proj = fit_projection([(3, 1e-3), (5, 2e-3)])
        assert not proj.below_threshold
        assert proj.distance_for(1e-9) is None

    def test_least_squares_over_three_points(self):
        points = [(3, 1e-2), (5, 1.2e-3), (7, 9e-5)]
        proj = fit_projection(points)
        assert proj.below_threshold
        assert 5 < proj.lam < 15

    def test_requires_two_distinct_distances(self):
        with pytest.raises(ValueError):
            fit_projection([(3, 1e-3)])
        with pytest.raises(ValueError):
            fit_projection([(3, 1e-3), (3, 2e-3)])

    def test_lambda_property(self):
        proj = LerProjection(log_a=0.0, log_lambda=math.log(5))
        assert proj.lam == pytest.approx(5.0)
        assert proj.below_threshold


class TestAdaptiveEstimator:
    def test_stops_at_min_failures(self):
        from repro.codes import RepetitionCode, UniformNoise, ideal_memory_circuit
        from repro.ler import estimate_until_failures

        circ = ideal_memory_circuit(
            RepetitionCode(2), rounds=2, noise=UniformNoise(0.05)
        )
        result = estimate_until_failures(
            circ, rounds=2, min_failures=5, batch=200, max_shots=20000, seed=1
        )
        assert result.failures >= 5
        assert result.shots <= 20000

    def test_respects_budget_on_quiet_circuits(self):
        from repro.codes import RepetitionCode, UniformNoise, ideal_memory_circuit
        from repro.ler import estimate_until_failures

        circ = ideal_memory_circuit(
            RepetitionCode(3), rounds=2, noise=UniformNoise(1e-5)
        )
        result = estimate_until_failures(
            circ, rounds=2, min_failures=50, batch=500, max_shots=1000, seed=2
        )
        assert result.shots == 1000

    def test_argument_validation(self):
        from repro.codes import RepetitionCode, ideal_memory_circuit
        from repro.ler import estimate_until_failures
        import pytest as _pytest

        circ = ideal_memory_circuit(RepetitionCode(2), rounds=1)
        with _pytest.raises(ValueError):
            estimate_until_failures(circ, 1, min_failures=0)
        with _pytest.raises(ValueError):
            estimate_until_failures(circ, 1, batch=100, max_shots=50)
