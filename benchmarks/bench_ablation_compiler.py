"""Ablations of the compiler's design choices (DESIGN.md index).

Quantifies how much each ingredient of the compiler contributes, by
knocking them out one at a time on the d=3 capacity-2 grid workload:

- *commutation-aware DAG* -> strict program order (what a generic NISQ
  compiler sees);
- *prefetch restoration* -> surplus ions go to the nearest free slot
  instead of towards their next gate;
- *wait-vs-detour policy* -> always take the shortest admissible path,
  however congested.
"""

import pytest

from repro.arch import DEFAULT_TIMES
from repro.baselines.qccdsim_like import _sequentialise
from repro.codes import RotatedSurfaceCode
from repro.core import GreedyRouter, build_gate_dag, compute_stats, place, schedule_asap
from repro.core.schedule import makespan
from repro.toolflow import format_table

from _common import publish

ROUNDS = 3


class _NoPrefetchRouter(GreedyRouter):
    def _restoration_path(self, ion, alloc):
        src = self.location[ion]
        return self._find_path_to_any(
            src,
            alloc,
            lambda t: alloc[t] < self.device.trap_capacity - 1 and t != src,
        )


class _NoWaitRouter(GreedyRouter):
    DETOUR_TOLERANCE = float("inf")


def _run(router_cls, sequential=False):
    code = RotatedSurfaceCode(3)
    gates = build_gate_dag(code, ROUNDS)
    if sequential:
        gates = _sequentialise(gates)
    placement = place(code, 2, "grid")
    ops = router_cls(code, placement, gates, DEFAULT_TIMES).run()
    start = schedule_asap(ops)
    stats = compute_stats(ops, start, ROUNDS)
    return stats


@pytest.fixture(scope="module")
def ablation_rows():
    variants = [
        ("full compiler", GreedyRouter, False),
        ("no commutation DAG", GreedyRouter, True),
        ("no prefetch restore", _NoPrefetchRouter, False),
        ("no wait-vs-detour", _NoWaitRouter, False),
    ]
    rows = []
    for name, cls, sequential in variants:
        stats = _run(cls, sequential)
        rows.append({
            "variant": name,
            "round_us": stats.round_time_us,
            "movement_ops": stats.movement_ops,
            "movement_us": stats.movement_time_us,
        })
    return rows


def test_ablation_report(benchmark, ablation_rows):
    base = ablation_rows[0]
    display = [
        [r["variant"], round(r["round_us"], 0), r["movement_ops"],
         round(r["round_us"] / base["round_us"], 2)]
        for r in ablation_rows
    ]
    text = benchmark(
        format_table,
        ["variant", "round us", "movement ops", "slowdown vs full"],
        display,
    )
    text += (
        "\n\nevery knocked-out ingredient costs movement operations,"
        " round time, or both — the compiler's advantage in Table 3 is"
        " the combination"
    )
    publish("ablation_compiler", text)
    for r in ablation_rows[1:]:
        worse_time = r["round_us"] > base["round_us"] * 1.02
        worse_moves = r["movement_ops"] > base["movement_ops"] * 1.02
        assert worse_time or worse_moves, r["variant"]


def test_bench_full_compiler(benchmark):
    benchmark(_run, GreedyRouter, False)
