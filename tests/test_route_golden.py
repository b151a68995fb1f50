"""Golden routed programs: every router's op stream must stay byte-identical.

Each fixture under ``tests/data/route_golden/`` maps a design point to
its op-stream hash (:func:`test_strategies._ops_sha`: kind, ions,
components, duration and dependencies of every op), its makespan and
its movement-op count.  The points cover every registered routing
strategy on every topology at capacities 2, 5 and 12 (d=3), the d=5
architecture grid the ``compile_arch`` perfbench workload compiles,
larger capacity-2 compiles (d=5 linear, d=7 grid), and both baseline
compilers, whose routers subclass the substrate.  ``greedy-linear-d5-r3``
pins the stall ladder's last rung: it used to end in a deadlock.

Regenerate (only when a change to routing is intended) with::

    PYTHONPATH=src python tests/test_route_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines import compile_muzzle_like, compile_qccdsim_like
from repro.codes import RotatedSurfaceCode
from repro.core import compile_memory_experiment

from test_strategies import _ops_sha

GOLDEN_DIR = Path(__file__).parent / "data" / "route_golden"

TOPOLOGIES = ("grid", "switch", "linear")
BASELINES = {"qccdsim_like": compile_qccdsim_like, "muzzle_like": compile_muzzle_like}


def _strategy_point(router: str, topology: str, capacity: int, distance: int,
                    rounds: int):
    return lambda: compile_memory_experiment(
        RotatedSurfaceCode(distance), capacity, topology, rounds=rounds,
        router=router,
    )


def _baseline_point(name: str, topology: str):
    return lambda: BASELINES[name](RotatedSurfaceCode(3), 2, topology, rounds=2)


# fixture name -> {point name -> program factory}
GROUPS = {
    "strategies_d3": {
        f"{router}-{topo}-c{cap}": _strategy_point(router, topo, cap, 3, 2)
        for router in ("greedy", "layered")
        for topo in TOPOLOGIES
        for cap in (2, 5, 12)
    },
    # The compile_arch workload's grid: rounds = distance.
    "compile_arch_d5": {
        f"{router}-{topo}-c{cap}": _strategy_point(router, topo, cap, 5, 5)
        for cap in (2, 5, 12)
        for topo in ("grid", "switch")
        for router in ("greedy", "layered")
    },
    "baselines_d3": {
        f"{name}-{topo}-c2": _baseline_point(name, topo)
        for name in sorted(BASELINES)
        for topo in TOPOLOGIES
    },
    # Larger compiles, rounds = distance: the search-heavy linear device
    # (most searches there fail) and d=7 routing on the grid.  At
    # rounds 3 the greedy router drains full traps to escape a stall.
    "large_c2": {
        "greedy-linear-d5": _strategy_point("greedy", "linear", 2, 5, 5),
        "greedy-linear-d5-r3": _strategy_point("greedy", "linear", 2, 5, 3),
        "layered-linear-d5": _strategy_point("layered", "linear", 2, 5, 5),
        "greedy-grid-d7": _strategy_point("greedy", "grid", 2, 7, 7),
    },
}

CASES = [(group, point) for group in GROUPS for point in GROUPS[group]]


def _record(factory) -> dict:
    program = factory()
    return {
        "ops_sha": _ops_sha(program),
        "makespan_us": program.stats.makespan_us,
        "movement_ops": program.stats.movement_ops,
    }


def _golden(group: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{group}.json").read_text())


@pytest.mark.parametrize("group,point", CASES, ids=lambda v: v)
def test_routed_program_byte_identical_to_golden(group, point):
    assert _record(GROUPS[group][point]) == _golden(group)[point]


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_fixture_covers_exactly_the_points(group):
    assert sorted(_golden(group)) == sorted(GROUPS[group])


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for group, points in GROUPS.items():
        rendered = {name: _record(factory) for name, factory in points.items()}
        path = GOLDEN_DIR / f"{group}.json"
        path.write_text(json.dumps(rendered, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name} ({len(rendered)} points)")
