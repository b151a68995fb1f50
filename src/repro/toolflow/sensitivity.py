"""Noise-parameter sensitivity analysis for design points.

The paper fixes one calibrated noise model; a designer adopting its
recommendations will want to know which *physical* parameters the
conclusions are most sensitive to.  This module perturbs each noise
parameter in turn (halving and doubling it) and reports the resulting
logical-error-rate swing for a chosen design point — a tornado-diagram
style analysis over the e1-e5 channels and the heating model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..noise.parameters import NoiseParameters
from .explorer import DesignSpaceExplorer

# Parameter name -> attribute on NoiseParameters.
SWEEPABLE = {
    "T2": "t2_us",
    "measurement error": "p_measurement",
    "reset error": "p_reset",
    "two-qubit base error": "p_2q_base",
    "one-qubit base error": "p_1q_base",
    "thermal factor A0": "thermal_a0",
    "background heating": "gamma_per_us",
}


@dataclass(frozen=True)
class SensitivityEntry:
    """LER response of one parameter to a halve/double perturbation."""

    parameter: str
    baseline_ler: float
    ler_at_half: float
    ler_at_double: float

    @property
    def swing(self) -> float:
        """Multiplicative spread of the LER across the perturbation."""
        lo = min(self.ler_at_half, self.ler_at_double, self.baseline_ler)
        hi = max(self.ler_at_half, self.ler_at_double, self.baseline_ler)
        return hi / max(lo, 1e-300)


def sensitivity_analysis(
    base_noise: NoiseParameters,
    distance: int = 3,
    capacity: int = 2,
    topology: str = "grid",
    gate_improvement: float = 5.0,
    shots: int = 4000,
    parameters: dict[str, str] | None = None,
    seed: int = 2026,
) -> list[SensitivityEntry]:
    """Halve/double each noise parameter and measure the LER response.

    Returns entries sorted by decreasing swing (the most influential
    parameter first).  Note T2 works inversely: halving it *increases*
    dephasing.  Every noise level runs the design point as the same
    sweep job under ``seed``, so the levels share shard streams.
    """
    parameters = parameters if parameters is not None else SWEEPABLE

    def evaluate(noise: NoiseParameters) -> float:
        explorer = DesignSpaceExplorer(noise=noise, seed=seed)
        record = explorer.evaluate(
            distance,
            capacity=capacity,
            topology=topology,
            gate_improvement=gate_improvement,
            shots=shots,
        )
        return record.ler_per_round

    baseline = evaluate(base_noise)
    entries = []
    for label, attr in parameters.items():
        value = getattr(base_noise, attr)
        low = evaluate(replace(base_noise, **{attr: value * 0.5}))
        high = evaluate(replace(base_noise, **{attr: value * 2.0}))
        entries.append(
            SensitivityEntry(
                parameter=label,
                baseline_ler=baseline,
                ler_at_half=low,
                ler_at_double=high,
            )
        )
    entries.sort(key=lambda e: -e.swing)
    return entries
