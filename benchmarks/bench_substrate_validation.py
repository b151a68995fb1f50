"""Substrate validation: the simulation + decoding stack behaves like
the literature says it must.

Not a paper table per se, but the foundation every figure rests on: the
rotated surface code decoded with MWPM under circuit-level depolarising
noise must show a threshold in the sub-percent range and exponential
suppression below it.  If this bench regresses, none of the LER figures
can be trusted.
"""

import pytest
from scipy.stats import binomtest

from repro.codes import RotatedSurfaceCode, UniformNoise, ideal_memory_circuit
from repro.ler import estimate_logical_error_rate, scan_threshold
from repro.toolflow import format_table

from _common import publish

# The suppression check's point, deep below threshold.  Its shot count
# gives d=3 about 70 failures, so the d=3 / d=5 comparison rests on
# counts, not on a handful of events.
DEEP_P = 2e-3
DEEP_SHOTS = 40_000
# Significance of the one-sided test that d=5 fails less often.
SUPPRESSION_ALPHA = 1e-3


@pytest.fixture(scope="module")
def scan():
    return scan_threshold(
        RotatedSurfaceCode,
        distances=(3, 5),
        physical_rates=(2e-3, 4e-3, 8e-3, 2.5e-2),
        rounds=3,
        shots=5000,
        seed=17,
    )


@pytest.fixture(scope="module")
def deep_failures():
    """Failures per distance at ``DEEP_P`` over ``DEEP_SHOTS`` shots."""
    failures = {}
    for d in (3, 5):
        circuit = ideal_memory_circuit(
            RotatedSurfaceCode(d), rounds=3, noise=UniformNoise(DEEP_P)
        )
        failures[d] = estimate_logical_error_rate(
            circuit, rounds=3, shots=DEEP_SHOTS, seed=17
        ).failures
    return failures


def test_threshold_report(benchmark, scan, deep_failures):
    rows = []
    for p in scan.physical_rates:
        rows.append([
            f"{p:g}",
            f"{scan.ler(3, p):.2e}",
            f"{scan.ler(5, p):.2e}",
            round(scan.suppression_at(p), 2),
        ])
    text = benchmark(
        format_table,
        ["physical p", "p_L(d=3)", "p_L(d=5)", "suppression d3/d5"],
        rows,
    )
    threshold = scan.threshold_estimate()
    text += (
        "\n\nliterature: circuit-level depolarising threshold ~0.5-1%"
        f"\nmeasured: crossing at p ~ {threshold:.2%}"
        if threshold is not None
        else "\n\nno crossing found in the sampled range"
    )
    # Deep below threshold the larger code clearly wins: with equal
    # rates, d=5's share of the pooled failures would be Binomial(pooled,
    # 1/2) (both distances run DEEP_SHOTS shots of 3 rounds).
    f3, f5 = deep_failures[3], deep_failures[5]
    p_value = binomtest(f5, f3 + f5, 0.5, alternative="less").pvalue
    text += (
        f"\n\nat p = {DEEP_P:g} over {DEEP_SHOTS:,} shots: d=3 {f3} failures, "
        f"d=5 {f5}; one-sided binomial p-value {p_value:.1e}"
    )
    publish("substrate_threshold", text)
    assert threshold is not None
    assert 1e-3 < threshold < 2.5e-2
    assert f3 >= 30
    assert p_value < SUPPRESSION_ALPHA


def test_bench_threshold_point(benchmark):
    from repro.codes import UniformNoise, ideal_memory_circuit
    from repro.ler import estimate_logical_error_rate

    circuit = ideal_memory_circuit(
        RotatedSurfaceCode(3), rounds=3, noise=UniformNoise(5e-3)
    )
    benchmark.pedantic(
        estimate_logical_error_rate,
        args=(circuit,),
        kwargs={"rounds": 3, "shots": 500, "seed": 3},
        rounds=1,
        iterations=1,
    )
