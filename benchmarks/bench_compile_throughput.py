"""Compile-throughput benchmark over the routing-strategy grid.

The routing strategy is a first-class sweep axis; this benchmark grids

    router x topology x distance

through direct ``QccdCompiler`` invocations, timing each compile, and
records makespan / op-count / movement ops / compile-seconds /
compile throughput (ops per second of compile time) per router into
``BENCH_compile.json`` at the repo root — the per-router numbers the
README's strategy-comparison table cites, and CI's regression gate that
every registered router still completes the grid.

``--smoke`` (or ``REPRO_BENCH_SMOKE=1``) shrinks the grid to d=3 over
two topologies; the full grid adds d=5 and the linear topology.
"""

import json
import os
import time

from repro.codes import RotatedSurfaceCode
from repro.core import CompilerConfig, QccdCompiler, available_routers

from _common import publish, smoke

BENCH_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_compile.json")
)

# The paper's router: the baseline row every other router is compared
# against.
BASELINE = "greedy"


def _grid():
    if smoke():
        return (3,), ("grid", "switch")
    return (3, 5), ("grid", "linear", "switch")


def _compile_point(distance, topology, router):
    cfg = CompilerConfig(
        code=RotatedSurfaceCode(distance),
        topology=topology,
        rounds=2,
        router=router,
    )
    t0 = time.perf_counter()
    program = QccdCompiler(cfg).compile()
    compile_s = time.perf_counter() - t0
    return {
        "distance": distance,
        "topology": topology,
        "router": router,
        "makespan_us": program.stats.makespan_us,
        "num_ops": len(program.ops),
        "movement_ops": program.stats.movement_ops,
        "gate_swaps": program.stats.gate_swaps,
        "compile_s": round(compile_s, 4),
        "ops_per_compile_s": round(len(program.ops) / compile_s, 1),
    }


def test_compile_throughput():
    distances, topologies = _grid()
    routers = available_routers()

    points = [
        _compile_point(distance, topology, router)
        for distance in distances
        for topology in topologies
        for router in routers
    ]

    baseline = {
        (p["distance"], p["topology"]): p
        for p in points
        if p["router"] == BASELINE
    }
    header = (
        f"{'d':>2} {'topo':6} {'router':8} "
        f"{'makespan_us':>11} {'ops':>5} {'moves':>5} "
        f"{'compile_s':>9} {'ops/s':>8} {'vs greedy':>9}"
    )
    lines = [header, "-" * len(header)]
    for p in points:
        base = baseline[(p["distance"], p["topology"])]
        rel = p["makespan_us"] / base["makespan_us"]
        lines.append(
            f"{p['distance']:>2} {p['topology']:6} {p['router']:8} "
            f"{p['makespan_us']:>11,.0f} {p['num_ops']:>5} "
            f"{p['movement_ops']:>5} {p['compile_s']:>9.3f} "
            f"{p['ops_per_compile_s']:>8,.0f} {rel:>8.2f}x"
        )
    publish("bench_compile_throughput", "\n".join(lines))

    payload = {
        "benchmark": "bench_compile_throughput",
        "smoke": smoke(),
        "grid": {
            "code": "rotated_surface",
            "distances": list(distances),
            "topologies": list(topologies),
            "routers": list(routers),
            "rounds": 2,
        },
        "points": points,
    }
    with open(BENCH_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    # Regression gates: every registered router covers the whole grid,
    # produces a non-trivial program, and no router collapses (an
    # alternative policy may trade makespan for batching, but a blow-up
    # past 3x the baseline means it stopped routing sensibly).
    assert len(points) == len(distances) * len(topologies) * len(routers)
    for p in points:
        assert p["num_ops"] > 0 and p["makespan_us"] > 0, p
        base = baseline[(p["distance"], p["topology"])]
        assert p["makespan_us"] <= 3.0 * base["makespan_us"], p
    # The layered router must be present in the artifact.
    assert "layered" in set(routers)
