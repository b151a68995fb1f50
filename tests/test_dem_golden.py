"""Golden detector error models: extraction output must stay byte-identical.

Each fixture under ``tests/data/dem_golden/`` is the ``json.dumps`` of
:func:`~repro.engine.cache.dem_to_jsonable` for one circuit and one DEM
flavour.  JSON renders floats with ``repr``, so a match means every
symptom set and every folded probability is bit-identical — the same
bytes the on-disk compilation cache stores.

Regenerate (only when a change to the models is intended) with::

    PYTHONPATH=src python tests/test_dem_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine import SweepSpec
from repro.engine.cache import dem_to_jsonable
from repro.engine.runner import compile_design_point
from repro.noise.parameters import DEFAULT_NOISE
from repro.sim import StabilizerCircuit, circuit_to_dems

GOLDEN_DIR = Path(__file__).parent / "data" / "dem_golden"


def _design_point(topology: str) -> StabilizerCircuit:
    spec = SweepSpec(distances=(3,), topologies=(topology,),
                     gate_improvements=(1.0,), shots=0)
    [job] = spec.expand()
    return compile_design_point(job, DEFAULT_NOISE, need_circuit=True).circuit


def every_instruction_circuit() -> StabilizerCircuit:
    """Two rounds over ten qubits exercising every instruction kind.

    Qubits 6..9 form a fan-out whose X errors flip four detectors at
    once.  The circuit carries no basis tags, so the graphlike model
    keeps every detector and such a hyperedge drives its chain-pair
    fallback.
    """
    c = StabilizerCircuit()
    c.append("RX", (0, 2))
    c.append("R", (1, 3, 4, 5, 6, 7, 8, 9))
    for _ in range(2):
        c.append("TICK")
        c.append("H", (1,))
        c.append("S", (0,))
        c.append("S_DAG", (1,))
        c.append("SQRT_X", (2,))
        c.append("SQRT_X_DAG", (3,))
        c.append("X", (0,))
        c.append("Y", (1,))
        c.append("Z", (2,))
        c.append("I", (3,))
        c.append("DEPOLARIZE1", (0, 1, 2, 3), (0.012,))
        c.append("CX", (0, 4, 2, 5))
        c.append("CZ", (1, 4, 3, 5))
        c.append("SWAP", (0, 1))
        c.append("XX", (2, 3))
        c.append("DEPOLARIZE2", (0, 4, 2, 5), (0.021,))
        c.append("Y_ERROR", (1, 3), (0.003,))
        c.append("PAULI_CHANNEL_1", (0, 2), (0.001, 0.002, 0.004))
        c.append("PAULI_CHANNEL_1", (4,), (0.005, 0.0, 0.0015))
        c.append("X_ERROR", (4,), (0.011,))
        c.append("X_ERROR", (5,), (0.0,))
        c.append("Z_ERROR", (5,), (0.013,))
        c.append("X_ERROR", (6,), (0.007,))
        c.append("Y_ERROR", (6,), (0.002,))
        c.append("CX", (6, 7, 6, 8))
        c.append("CX", (6, 9))
        c.append("DEPOLARIZE2", (6, 7, 8, 9), (0.009,))
        c.append("MR", (4, 5))
        c.append("M", (6, 7, 8, 9))
        c.append("R", (6, 7, 8, 9))
        c.append("DETECTOR", (-6,))
        c.append("DETECTOR", (-5,))
        for k in (-4, -3, -2, -1):
            c.append("DETECTOR", (k,))
        c.append("OBSERVABLE_INCLUDE", (-3,), (1,))
    c.append("MX", (0, 2))
    c.append("M", (1, 3))
    c.append("DETECTOR", (-4, -3))
    c.append("DETECTOR", (-2, -1))
    c.append("OBSERVABLE_INCLUDE", (-4, -1), (0,))
    return c


CIRCUITS = {
    "grid_d3": lambda: _design_point("grid"),
    "linear_d3": lambda: _design_point("linear"),
    "every_instruction": every_instruction_circuit,
}


def _rendered(name: str) -> dict[str, str]:
    exact, graphlike = circuit_to_dems(CIRCUITS[name]())
    return {
        "exact": json.dumps(dem_to_jsonable(exact)),
        "graphlike": json.dumps(dem_to_jsonable(graphlike)),
    }


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_dems_byte_identical_to_golden(name):
    rendered = _rendered(name)
    for flavour, text in rendered.items():
        golden = (GOLDEN_DIR / f"{name}.{flavour}.json").read_text()
        assert text == golden, f"{name} {flavour} DEM drifted from its golden"


def test_every_instruction_circuit_reaches_chain_pairs():
    # The fixture is only a real oracle for the chain-pair branch if
    # some exact hyperedge survives into the graphlike model as pieces.
    exact, graphlike = circuit_to_dems(every_instruction_circuit())
    assert any(len(e.detectors) == 4 for e in exact.errors)
    assert all(e.is_graphlike() for e in graphlike.errors)
    names = {inst.name for inst in every_instruction_circuit()}
    assert {"S", "S_DAG", "SQRT_X", "SQRT_X_DAG", "CZ", "SWAP", "XX", "MR",
            "MX", "RX", "Y_ERROR", "PAULI_CHANNEL_1"} <= names


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in sorted(CIRCUITS):
        for flavour, text in _rendered(name).items():
            (GOLDEN_DIR / f"{name}.{flavour}.json").write_text(text)
            print(f"wrote {name}.{flavour}.json ({len(text)} bytes)")
