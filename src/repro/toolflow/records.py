"""Result records produced by the design-space explorer."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EvaluationRecord:
    """Everything the toolflow knows about one design point (Figure 2).

    One record corresponds to one (code, distance, capacity, topology,
    wiring, gate improvement) combination — a single point on one of
    the paper's figures.
    """

    code: str
    distance: int
    capacity: int
    topology: str
    wiring: str
    gate_improvement: float
    rounds: int

    # Routing strategy (default-valued so records stored before the
    # strategy layer still deserialise)
    router: str = "greedy"

    # Compiler metrics
    round_time_us: float = 0.0
    makespan_us: float = 0.0
    movement_ops: int = 0
    movement_time_us: float = 0.0
    gate_swaps: int = 0

    # Hardware metrics (Sec. 5.2)
    num_traps: int = 0
    num_junctions: int = 0
    electrodes: int = 0
    num_dacs: int = 0
    data_rate_bitps: float = 0.0
    power_w: float = 0.0

    # Logical error rate (optional — only when simulated)
    shots: int = 0
    failures: int = 0
    ler_per_shot: float | None = None
    ler_per_round: float | None = None

    extras: dict = field(default_factory=dict)

    @property
    def movement_ops_per_round(self) -> float:
        return self.movement_ops / max(self.rounds, 1)

    def as_row(self) -> dict:
        """Flat dict for report tables."""
        return {
            "code": self.code,
            "d": self.distance,
            "cap": self.capacity,
            "topo": self.topology,
            "wiring": self.wiring,
            "router": self.router,
            "improve": self.gate_improvement,
            "round_us": round(self.round_time_us, 1),
            "move_ops": self.movement_ops,
            "electrodes": self.electrodes,
            "dacs": self.num_dacs,
            "Gbit/s": round(self.data_rate_bitps / 1e9, 3),
            "W": round(self.power_w, 1),
            "ler_round": self.ler_per_round,
        }
