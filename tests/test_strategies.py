"""Strategy-layer tests: registries, bit-identity, shared invariants.

Three layers of guarantees:

1. **Bit-identity** — the default ``greedy`` router with the
   projection placement must reproduce the pre-strategy-layer compiler
   exactly.  The
   golden constants below (makespan, op counts, op-stream hash, SweepJob
   keys) were captured from the monolithic router and ``place()``
   immediately before the refactor; nothing about the strategy layer may
   move them.  The stim circuit hashes were re-recorded when noise
   arguments began to print as their exact round-trip text.
2. **Registry** — routers resolve by name everywhere a name can be
   given (compiler config, sweep spec, CLI), and unknown names fail
   with the available set in the message.
3. **Shared invariants** — every registered router must produce
   physically legal programs: hardware constraints hold
   under op-by-op replay, every two-qubit gate executes co-located,
   every gate is sequenced exactly once, the final state restores the
   fill invariant, and the derived schedule respects op dependencies
   (checked both on a fixed grid and property-based).
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from code_helpers import param_id
from repro.arch import DEFAULT_TIMES
from repro.codes import (
    RepetitionCode,
    RotatedSurfaceCode,
    UnrotatedSurfaceCode,
)
from repro.core import (
    CompilerConfig,
    GreedyRouter,
    QccdCompiler,
    available_routers,
    build_gate_dag,
    compile_memory_experiment,
    place,
    program_to_circuit,
    router_by_name,
    schedule,
)
from repro.engine.sweep import SweepJob
from repro.noise.parameters import DEFAULT_NOISE

from test_route import _replay_occupancy

# ----------------------------------------------------------------------
# Golden oracle: captured from the pre-refactor monolith (RotatedSurface,
# capacity 2, rounds 2, default wiring/noise).
# ----------------------------------------------------------------------
GOLDEN_COMPILER = {
    # (topology, distance): (makespan_us, num_ops, movement_ops,
    #                        ops_sha, stim_sha)
    ("grid", 2): (6815.0, 208, 168, "c27bca57f7b412c6", "aceb082c9b22af79"),
    ("grid", 3): (10845.0, 686, 572, "e843a855b7d448a3", "e46dfd4efc31e460"),
    ("linear", 2): (9665.0, 208, 168, "03f74cd82e199c22", "b185a98d6b69163e"),
    ("linear", 3): (38690.0, 1147, 1033, "679a47a8ae22b608", "2e22bbc74979ec19"),
    ("switch", 2): (6270.0, 190, 150, "a2c51671c11ae9ac", "f84300e6b2c9625e"),
    ("switch", 3): (7425.0, 594, 480, "1013cb42ab567e6e", "47512a19edffddfd"),
}

GOLDEN_KEYS = [
    (
        SweepJob("rotated_surface", 3, 2, "grid", "standard", 1.0, "mwpm",
                 3, 2000),
        "rotated_surface-d3-c2-grid-standard-x1-mwpm-r3-n2000-8318537a3656",
    ),
    (
        SweepJob("repetition", 3, 2, "switch", "standard", 1.0, "mwpm",
                 2, 512, target_failures=10, max_shots=5000),
        "repetition-d3-c2-switch-standard-x1-mwpm-r2-n512-f10of5000-c6e57650aa5a",
    ),
]


def _ops_sha(program) -> str:
    return hashlib.sha256(
        "|".join(
            f"{op.kind}:{op.ions}:{op.components}:{op.duration:.6f}:{op.deps}"
            for op in program.ops
        ).encode()
    ).hexdigest()[:16]


def _stim_sha(program, code) -> str:
    export = program_to_circuit(program, code, DEFAULT_NOISE)
    return hashlib.sha256(str(export.circuit).encode()).hexdigest()[:16]


class TestDefaultBitIdentity:
    @pytest.mark.parametrize(
        "topology,distance", sorted(GOLDEN_COMPILER), ids=lambda v: str(v)
    )
    def test_greedy_projection_matches_pre_refactor(self, topology, distance):
        """ops, makespan and stim export are bit-identical to the
        monolithic pre-strategy compiler across the fig08 grid."""
        code = RotatedSurfaceCode(distance)
        program = compile_memory_experiment(code, 2, topology, rounds=2)
        makespan, num_ops, movement, ops_sha, stim_sha = GOLDEN_COMPILER[
            (topology, distance)
        ]
        assert program.stats.makespan_us == makespan
        assert len(program.ops) == num_ops
        assert program.stats.movement_ops == movement
        assert _ops_sha(program) == ops_sha
        assert _stim_sha(program, code) == stim_sha

    def test_default_config_uses_default_strategies(self):
        cfg = CompilerConfig(code=RotatedSurfaceCode(2))
        assert cfg.router == "greedy"
        program = QccdCompiler(cfg).compile()
        assert program.router == "greedy"

    @pytest.mark.parametrize("job,key", GOLDEN_KEYS, ids=lambda v: str(v)[:40])
    def test_sweep_job_keys_unchanged(self, job, key):
        """Default-strategy job keys (and so JSONL stores and shard RNG
        streams) carry over bit-identically from before the refactor."""
        assert job.key == key

    def test_non_default_strategies_change_the_key(self):
        base, key = GOLDEN_KEYS[0]
        routed = SweepJob.from_dict({**base.to_dict(), "router": "layered"})
        assert routed.key != key and "layered" in routed.key

    def test_from_dict_defaults_old_stores_to_pre_refactor_strategies(self):
        base, _ = GOLDEN_KEYS[0]
        data = base.to_dict()
        del data["router"]
        job = SweepJob.from_dict(data)
        assert job.router == "greedy"
        assert job.key == GOLDEN_KEYS[0][1]


class TestRegistries:
    def test_expected_strategies_registered(self):
        assert {"greedy", "layered"} <= set(available_routers())

    def test_lookup_by_name(self):
        assert router_by_name("greedy") is GreedyRouter
        for name in available_routers():
            assert router_by_name(name).name == name

    def test_unknown_names_list_available(self):
        with pytest.raises(ValueError, match="greedy"):
            router_by_name("bogus")


# ----------------------------------------------------------------------
# Shared invariant harness: every router must produce a physically
# legal program.
# ----------------------------------------------------------------------
INVARIANT_CONFIGS = [
    (RotatedSurfaceCode(2), 2, "grid"),
    (RotatedSurfaceCode(3), 2, "grid"),
    (RotatedSurfaceCode(3), 2, "linear"),
    (RotatedSurfaceCode(3), 2, "switch"),
    (RotatedSurfaceCode(3), 3, "grid"),
    (RepetitionCode(4), 3, "linear"),
    # The capacities the route goldens pin (5 and 12) on every topology.
    (RotatedSurfaceCode(3), 5, "grid"),
    (RotatedSurfaceCode(3), 5, "linear"),
    (RotatedSurfaceCode(3), 5, "switch"),
    (RotatedSurfaceCode(3), 12, "grid"),
    (RotatedSurfaceCode(3), 12, "linear"),
    (RotatedSurfaceCode(3), 12, "switch"),
    # Even distance and d=5 at capacity 2 on every topology.
    (RotatedSurfaceCode(4), 2, "grid"),
    (RotatedSurfaceCode(4), 2, "linear"),
    (RotatedSurfaceCode(4), 2, "switch"),
    (RotatedSurfaceCode(5), 2, "grid"),
    (RotatedSurfaceCode(5), 2, "linear"),
    (RotatedSurfaceCode(5), 2, "switch"),
    # The other code families on every topology.
    (UnrotatedSurfaceCode(2), 2, "grid"),
    (UnrotatedSurfaceCode(2), 2, "linear"),
    (UnrotatedSurfaceCode(2), 2, "switch"),
    (UnrotatedSurfaceCode(3), 3, "switch"),
    (RepetitionCode(5), 2, "grid"),
    (RepetitionCode(5), 2, "switch"),
]

ALL_STRATEGIES = ["greedy", "layered"]


def _compile_with(code, cap, topo, router, rounds=2):
    cfg = CompilerConfig(
        code=code, trap_capacity=cap, topology=topo, rounds=rounds,
        router=router,
    )
    compiler = QccdCompiler(cfg)
    return compiler.compile(), compiler.placement()


def _assert_program_invariants(program, placement, gates):
    # Hardware legality + two-qubit co-location, op by op.
    _replay_occupancy(program.ops, placement)
    # Every gate sequenced exactly once.
    sequenced = sorted(
        op.gate_id for op in program.ops if op.gate_id is not None
    )
    assert sequenced == [g.id for g in gates]
    # The schedule respects the op dependency DAG.
    start = program.start
    for op in program.ops:
        for dep in op.deps:
            dep_end = start[dep] + program.ops[dep].duration
            assert start[op.id] >= dep_end - 1e-9, (op.id, dep)


@pytest.mark.parametrize("router", ALL_STRATEGIES)
@pytest.mark.parametrize("code,cap,topo", INVARIANT_CONFIGS, ids=param_id)
def test_all_strategies_satisfy_shared_invariants(code, cap, topo, router):
    program, placement = _compile_with(code, cap, topo, router)
    gates = build_gate_dag(code, 2)
    _assert_program_invariants(program, placement, gates)
    assert program.router == router


@pytest.mark.parametrize("router", ALL_STRATEGIES)
def test_final_state_restores_fill_invariant(router):
    code = RotatedSurfaceCode(3)
    gates = build_gate_dag(code, 2)
    placement = place(code, 2, "grid")
    strategy = router_by_name(router)(code, placement, gates, DEFAULT_TIMES)
    strategy.run()
    for trap, chain in strategy.chains.items():
        assert len(chain) <= 1  # capacity 2 -> at most one resident
    for q, loc in strategy.location.items():
        assert placement.device.component(loc).is_trap


def test_greedy_drains_full_traps_instead_of_deadlocking():
    """d=5 linear at rounds 3 stalls the greedy router once forced
    unblocking runs out; draining full traps must get it through."""
    code = RotatedSurfaceCode(5)
    program, placement = _compile_with(code, 2, "linear", "greedy", rounds=3)
    _assert_program_invariants(program, placement, build_gate_dag(code, 3))
    assert program.stats.makespan_us == 337320.0


@settings(max_examples=12, deadline=None)
@given(
    distance=st.integers(min_value=2, max_value=3),
    capacity=st.integers(min_value=2, max_value=4),
    topology=st.sampled_from(["grid", "linear", "switch"]),
    router=st.sampled_from(["greedy", "layered"]),
)
def test_property_invariants_hold_for_any_strategy(
    distance, capacity, topology, router
):
    """Property harness: any registered router, on any small design
    point, yields a legal, complete, dependency-respecting program."""
    code = RotatedSurfaceCode(distance)
    program, placement = _compile_with(
        code, capacity, topology, router, rounds=1
    )
    gates = build_gate_dag(code, 1)
    _assert_program_invariants(program, placement, gates)


class TestEngineThreading:
    def test_compile_design_point_carries_strategies(self):
        from repro.engine.runner import compile_design_point

        job = SweepJob(
            "rotated_surface", 2, 2, "grid", "standard", 1.0, "mwpm", 1, 0,
            router="layered",
        )
        artifacts = compile_design_point(job, DEFAULT_NOISE, need_circuit=False)
        assert artifacts.metrics["router"] == "layered"

    def test_strategies_produce_distinct_circuits_when_routing_differs(self):
        """The compilation cache needs no strategy field in its key:
        different routing shows up as different circuit text."""
        code = RotatedSurfaceCode(3)
        base = compile_memory_experiment(code, 2, "switch", rounds=2)
        alt = compile_memory_experiment(
            code, 2, "switch", rounds=2, router="layered"
        )
        assert _ops_sha(base) != _ops_sha(alt)
        assert _stim_sha(base, code) != _stim_sha(alt, code)

    def test_schedule_recomputable_from_ops(self):
        cfg = CompilerConfig(code=RotatedSurfaceCode(2), router="layered")
        program = QccdCompiler(cfg).compile()
        assert schedule(program.ops, cfg.wiring) == program.start
