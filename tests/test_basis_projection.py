"""Oracles for the graphlike model's projection onto the memory basis.

A memory experiment tags every detector and its observable with their
basis, and the graphlike model keeps only the observable's detectors
(see :mod:`repro.sim.dem`).  These tests pin what that model must get
right, independently of sampling:

- every single exact mechanism of an ideal d=3 memory, and every pair
  of an ideal d=5 memory, decodes to the observables it flips;
- the unweighted graphlike distance — the fewest edges forming a
  boundary-to-boundary path of odd observable parity — equals the code
  distance, except where a compiled schedule is known to lose it;
- how many detector pairs carry conflicting observable masks;
- the basis tags survive the text format.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.codes import RotatedSurfaceCode, UniformNoise, ideal_memory_circuit
from repro.decoders import DetectorGraph, make_decoder
from repro.engine import SweepSpec, run_sweep
from repro.engine.cache import circuit_key
from repro.engine.runner import compile_design_point
from repro.noise.parameters import DEFAULT_NOISE
from repro.sim import circuit_from_text, circuit_to_dems, pack_bool_rows

DECODERS = ("mwpm", "union_find")


def _ideal(distance: int, rounds: int, basis: str = "Z"):
    return ideal_memory_circuit(RotatedSurfaceCode(distance), rounds, basis,
                                UniformNoise(0.001))


def _compiled(distance: int, topology: str):
    spec = SweepSpec(distances=(distance,), topologies=(topology,),
                     gate_improvements=(1.0,), shots=0)
    [job] = spec.expand()
    return compile_design_point(job, DEFAULT_NOISE, need_circuit=True).circuit


def _mechanism_rows(exact) -> tuple[np.ndarray, np.ndarray]:
    """Packed detector rows and observable-0 bits of each exact error."""
    rows = np.zeros((exact.num_errors, exact.num_detectors), dtype=bool)
    for i, err in enumerate(exact.errors):
        rows[i, list(err.detectors)] = True
    flips = np.array([0 in err.observables for err in exact.errors])
    return pack_bool_rows(rows), flips


def _misdecoded(decoder, words: np.ndarray, flips: np.ndarray) -> int:
    corrections = decoder.decode_packed_batch(words) & 1
    return int(np.count_nonzero(corrections != flips))


def graphlike_distance(graph: DetectorGraph) -> int | None:
    """Fewest edges on a boundary-to-boundary walk that flips observable
    0 an odd number of times: breadth-first search over (node, parity)."""
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for edge in graph.edges:
        adjacency.setdefault(edge.u, []).append((edge.v, edge.observables & 1))
        adjacency.setdefault(edge.v, []).append((edge.u, edge.observables & 1))
    start, goal = (graph.boundary, 0), (graph.boundary, 1)
    depth = {start: 0}
    queue = deque([start])
    while queue:
        node, parity = queue.popleft()
        for other, flip in adjacency.get(node, ()):
            state = (other, parity ^ flip)
            if state not in depth:
                depth[state] = depth[(node, parity)] + 1
                if state == goal:
                    return depth[state]
                queue.append(state)
    return None


@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("name", DECODERS)
def test_every_single_mechanism_decodes_at_d3(basis, name):
    exact, graphlike = circuit_to_dems(_ideal(3, 3, basis))
    words, flips = _mechanism_rows(exact)
    decoder = make_decoder(DetectorGraph.from_dem(graphlike), name)
    assert _misdecoded(decoder, words, flips) == 0


@pytest.mark.parametrize("name", DECODERS)
def test_every_mechanism_pair_decodes_at_d5(name):
    exact, graphlike = circuit_to_dems(_ideal(5, 3))
    words, flips = _mechanism_rows(exact)
    first, second = np.triu_indices(len(words), 1)
    assert len(first) == 371_953
    decoder = make_decoder(DetectorGraph.from_dem(graphlike), name)
    assert _misdecoded(decoder, words[first] ^ words[second],
                       flips[first] ^ flips[second]) == 0


def test_projection_keeps_only_the_memory_basis():
    for basis in ("Z", "X"):
        circuit = _ideal(3, 3, basis)
        tags = [inst.tag for inst in circuit if inst.name == "DETECTOR"]
        exact, graphlike = circuit_to_dems(circuit)
        kept = {d for err in graphlike.errors for d in err.detectors}
        assert kept == {d for d, tag in enumerate(tags) if tag == basis}
        assert {d for err in exact.errors for d in err.detectors} == set(range(len(tags)))
        graph = DetectorGraph.from_dem(graphlike)
        mask = np.unpackbits(graph.detector_mask().view(np.uint8), bitorder="little")
        assert set(np.flatnonzero(mask).tolist()) == kept


@pytest.mark.parametrize("distance", [3, 5, 7])
def test_ideal_graphlike_distance_and_conflicts(distance):
    _, graphlike = circuit_to_dems(_ideal(distance, distance))
    graph = DetectorGraph.from_dem(graphlike)
    assert graphlike_distance(graph) == distance
    assert graph.conflicting_edges == 0


@pytest.mark.parametrize("topology,distance,expected,conflicts", [
    ("grid", 3, 3, 0),
    ("grid", 5, 5, 2),
    ("switch", 3, 3, 0),
    ("switch", 5, 5, 0),
    ("linear", 3, 3, 17),
    # Known distance loss: the d=5 linear schedule's graphlike model
    # has a weight-3 logical.
    ("linear", 5, 3, 197),
])
def test_compiled_graphlike_distance_and_conflicts(topology, distance, expected, conflicts):
    _, graphlike = circuit_to_dems(_compiled(distance, topology))
    graph = DetectorGraph.from_dem(graphlike)
    assert graphlike_distance(graph) == expected
    assert graph.conflicting_edges == conflicts


def test_text_round_trip_keeps_the_graphlike_model():
    circuit = _ideal(3, 2, "X")
    parsed = circuit_from_text(str(circuit))
    assert parsed == circuit
    assert circuit_to_dems(parsed) == circuit_to_dems(circuit)
    # Text names every noise probability exactly, so a compiled circuit
    # and its parsed text share one cache key and give equal DEMs.
    compiled = _compiled(3, "grid")
    reparsed = circuit_from_text(str(compiled))
    assert reparsed == compiled
    assert circuit_key(str(reparsed)) == circuit_key(str(compiled))
    assert circuit_to_dems(reparsed) == circuit_to_dems(compiled)
    # Without its tags the same circuit decodes every detector.
    untagged = circuit_from_text(str(circuit).replace("[X]", "").replace("[Z]", ""))
    exact, graphlike = circuit_to_dems(untagged)
    assert exact == circuit_to_dems(circuit)[0]
    assert {d for err in graphlike.errors for d in err.detectors} == set(
        range(circuit.num_detectors))


def test_sampled_results_report_conflicting_edges():
    spec = SweepSpec(distances=(3,), topologies=("grid", "linear"),
                     gate_improvements=(1.0,), shots=64, master_seed=5)
    counts = {r.job.topology: r.extras["conflicting_edges"] for r in run_sweep(spec)}
    assert counts == {"grid": 0, "linear": 17}
