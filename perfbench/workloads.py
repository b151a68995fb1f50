"""The benchmark's workloads: each one is a ``SweepSpec`` grid generated
from the workload seed, run on the serial backend.

The seed becomes the spec's ``master_seed``, so it changes which shots
are drawn (and hence failure counts) but never the grid: the program
under test only ever sees the generated spec.  ``METRICS.md`` says
why each workload exists and which layer it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 2026
# Fewest timed sweeps a run makes, whatever ``--seconds`` says, so that
# every reported median has samples on both sides.
MIN_SWEEPS = 5
# Layer spans a traced sweep must record at least once (see spans.py):
# a wrapped entry point that stops matching its call site would
# otherwise report 0 and hand its time to ``engine.overhead_s``.
COMPILE_SPANS = ("core.compile", "core.translate", "core.place",
                 "core.route", "core.schedule")
SAMPLING_SPANS = COMPILE_SPANS + ("core.export", "sim.dem", "decoders.graph",
                                  "decoders.dijkstra", "sim.sample",
                                  "decoders.decode")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Callable[[int], object]   # seed -> SweepSpec
    spans: tuple[str, ...]          # layer spans a traced sweep must show


def _compile_arch(seed: int):
    from repro.engine import SweepSpec

    return SweepSpec(distances=(5,), capacities=(2, 5, 12),
                     topologies=("grid", "switch"),
                     routers=("greedy", "layered"), shots=0, master_seed=seed)


def _ler_setup_bound(seed: int):
    from repro.engine import SweepSpec

    return SweepSpec(distances=(5,), gate_improvements=(20.0,),
                     decoders=("mwpm",), shots=65536, master_seed=seed)


def _ler_decode_bound(seed: int):
    from repro.engine import SweepSpec

    return SweepSpec(distances=(5,), gate_improvements=(1.0,),
                     decoders=("mwpm", "union_find"), shots=1024,
                     master_seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compile_arch", _compile_arch, spans=COMPILE_SPANS),
        Workload("ler_setup_bound", _ler_setup_bound, spans=SAMPLING_SPANS),
        Workload("ler_decode_bound", _ler_decode_bound, spans=SAMPLING_SPANS),
    )
}
