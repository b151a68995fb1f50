"""The paper's core contribution: the QEC-to-QCCD compiler."""

from .compiler import (
    CompilerConfig,
    QccdCompiler,
    compile_memory_experiment,
    compute_stats,
    steady_round_time,
)
from .ir import (
    GATE_KINDS,
    MOVEMENT_KINDS,
    CompiledProgram,
    LogicalGate,
    ProgramStats,
    QccdOp,
)
from .optimal import OptimalEstimate, optimal_estimate, single_chain_round_time
from .place import (
    Placement,
    build_device_for,
    layout_positions,
    partition_qubits,
    place,
)
from .route import GreedyRouter, RoutingError
from .route_layered import LayeredRouter
from .routing_base import (
    ROUTERS,
    RoutingStrategy,
    available_routers,
    register_router,
    router_by_name,
)
from .schedule import (
    critical_path_lengths,
    makespan,
    schedule,
    schedule_asap,
    schedule_type_exclusive,
)
from .stim_export import ExportResult, fold_probability, program_to_circuit
from .translate import build_gate_dag
from .visualize import (
    busiest_components,
    format_component_timeline,
    format_ion_timeline,
    schedule_gantt,
    utilisation_summary,
)

__all__ = [
    "CompilerConfig",
    "QccdCompiler",
    "compile_memory_experiment",
    "compute_stats",
    "steady_round_time",
    "GATE_KINDS",
    "MOVEMENT_KINDS",
    "CompiledProgram",
    "LogicalGate",
    "ProgramStats",
    "QccdOp",
    "OptimalEstimate",
    "optimal_estimate",
    "single_chain_round_time",
    "Placement",
    "build_device_for",
    "layout_positions",
    "partition_qubits",
    "place",
    "GreedyRouter",
    "LayeredRouter",
    "RoutingStrategy",
    "RoutingError",
    "ROUTERS",
    "available_routers",
    "router_by_name",
    "register_router",
    "critical_path_lengths",
    "makespan",
    "schedule",
    "schedule_asap",
    "schedule_type_exclusive",
    "ExportResult",
    "fold_probability",
    "program_to_circuit",
    "build_gate_dag",
    "busiest_components",
    "format_component_timeline",
    "format_ion_timeline",
    "schedule_gantt",
    "utilisation_summary",
]
