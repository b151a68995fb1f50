"""Top-level QEC-to-QCCD compiler (Figure 5)."""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import telemetry
from ..arch.timing import DEFAULT_TIMES, OperationTimes
from ..arch.wiring import STANDARD_WIRING, WiringMethod
from ..codes.base import StabilizerCode
from .ir import MOVEMENT_KINDS, CompiledProgram, ProgramStats, QccdOp
from .place import Placement, place
from .routing_base import router_by_name
from .schedule import makespan, schedule
from .translate import build_gate_dag

# Importing the strategy modules registers them.
from . import route as _route  # noqa: F401
from . import route_layered as _route_layered  # noqa: F401


@dataclass
class CompilerConfig:
    """Everything needed to compile a memory experiment."""

    code: StabilizerCode
    trap_capacity: int = 2
    topology: str = "grid"
    wiring: WiringMethod = STANDARD_WIRING
    rounds: int = 1
    basis: str = "Z"
    times: OperationTimes = field(default_factory=lambda: DEFAULT_TIMES)
    router: str = "greedy"

    def operation_times(self) -> OperationTimes:
        return self.wiring.operation_times(self.times)


def compute_stats(
    ops: list[QccdOp], start: list[float], rounds: int
) -> ProgramStats:
    by_kind: dict[str, int] = {}
    movement_ops = 0
    movement_time = 0.0
    gate_swaps = 0
    num_gates = 0
    for op in ops:
        by_kind[op.kind] = by_kind.get(op.kind, 0) + 1
        if op.kind in MOVEMENT_KINDS:
            movement_ops += 1
            movement_time += op.duration
        elif op.kind == "SWAP":
            gate_swaps += 1
            movement_ops += 1
            movement_time += op.duration
        else:
            num_gates += 1
    return ProgramStats(
        makespan_us=makespan(ops, start),
        rounds=rounds,
        movement_ops=movement_ops,
        movement_time_us=movement_time,
        gate_swaps=gate_swaps,
        num_gates=num_gates,
        ops_by_kind=by_kind,
    )


class QccdCompiler:
    """Compile a QEC memory experiment onto a QCCD device.

    Pipeline: translate (commutation-aware DAG) -> place (partition +
    Hungarian projection, :mod:`repro.core.place`) -> route (routing
    strategy selected by name via ``config.router``, default multi-pass
    shortest paths; see :mod:`repro.core.routing_base`) -> schedule
    (ASAP or WISE type-exclusive list scheduling).
    """

    def __init__(self, config: CompilerConfig):
        self.config = config

    def compile(self) -> CompiledProgram:
        cfg = self.config
        router_cls = router_by_name(cfg.router)
        with telemetry.span("compile.translate"):
            gates = build_gate_dag(cfg.code, cfg.rounds, cfg.basis)
        with telemetry.span("compile.place"):
            placement = self.placement()
        with telemetry.span("compile.route", router=cfg.router):
            router = router_cls(cfg.code, placement, gates, cfg.operation_times())
            ops = router.run()
        with telemetry.span("compile.schedule"):
            start = schedule(ops, cfg.wiring)
        stats = compute_stats(ops, start, cfg.rounds)
        return CompiledProgram(
            ops=ops,
            start=start,
            rounds=cfg.rounds,
            qubit_to_trap=dict(placement.qubit_to_trap),
            device=placement.device,
            stats=stats,
            router=cfg.router,
        )

    def placement(self) -> Placement:
        cfg = self.config
        return place(cfg.code, cfg.trap_capacity, cfg.topology)


def compile_memory_experiment(
    code: StabilizerCode,
    trap_capacity: int = 2,
    topology: str = "grid",
    wiring: WiringMethod = STANDARD_WIRING,
    rounds: int = 1,
    basis: str = "Z",
    router: str = "greedy",
) -> CompiledProgram:
    """One-call convenience wrapper used by examples and benchmarks."""
    config = CompilerConfig(
        code=code,
        trap_capacity=trap_capacity,
        topology=topology,
        wiring=wiring,
        rounds=rounds,
        basis=basis,
        router=router,
    )
    return QccdCompiler(config).compile()


def steady_round_time(
    code: StabilizerCode,
    trap_capacity: int = 2,
    topology: str = "grid",
    wiring: WiringMethod = STANDARD_WIRING,
    basis: str = "Z",
    probe_rounds: tuple[int, int] = (2, 4),
) -> float:
    """Steady-state QEC round time via a two-point slope.

    Compiling r1 and r2 rounds and taking the makespan slope removes
    the one-off cost of state preparation and final readout, giving the
    per-round time the paper's Figures 8-9 report.
    """
    r1, r2 = probe_rounds
    if r2 <= r1:
        raise ValueError("probe rounds must be increasing")
    m1 = compile_memory_experiment(
        code, trap_capacity, topology, wiring, rounds=r1, basis=basis
    ).stats.makespan_us
    m2 = compile_memory_experiment(
        code, trap_capacity, topology, wiring, rounds=r2, basis=basis
    ).stats.makespan_us
    return (m2 - m1) / (r2 - r1)
