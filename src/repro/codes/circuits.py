"""Syndrome-extraction rounds, memory experiments and detector wiring.

Two consumers share this module:

- the *ideal* circuit builder used to validate codes and the simulator
  (logical-level, no QCCD hardware in the loop), and
- the QCCD compiler's exporter, which executes the same measurements in
  a hardware-dependent order and therefore needs the detector structure
  expressed as (qubit, round) pairs rather than record positions.

The memory experiment is the paper's workload (Sec. 6.1): prepare all
data in the basis eigenstate, run ``rounds`` rounds of parity checks,
measure all data, and compare the logical observable with the decoder's
correction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.circuit import StabilizerCircuit
from .base import StabilizerCode


@dataclass(frozen=True)
class UniformNoise:
    """Simple circuit-level depolarising noise for logical-level tests."""

    p: float

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError("noise strength must be a probability")


@dataclass(frozen=True)
class LayeredRound:
    """One round of syndrome extraction as parallel layers.

    Each layer is a list of (gate, targets) where gate is R / H / CX / M
    and targets are code-qubit indices (CX targets are (control, target)
    pairs).  The compiler consumes this structure directly.
    """

    layers: tuple[tuple[tuple[str, tuple], ...], ...]

    def all_two_qubit_pairs(self) -> list[tuple[int, int]]:
        pairs = []
        for layer in self.layers:
            for gate, targets in layer:
                if gate == "CX":
                    pairs.extend(targets)
        return pairs


def syndrome_round(code: StabilizerCode) -> LayeredRound:
    """The standard parity-check round of Figure 3.

    Reset ancillas; Hadamard the X ancillas; four CX layers (data
    controls for Z checks, ancilla controls for X checks); Hadamard
    back; measure all ancillas.
    """
    ancillas = tuple(q.index for q in code.ancilla_qubits)
    x_ancillas = tuple(
        q.index for q in code.ancilla_qubits if q.basis == "X"
    )
    layers: list[tuple[tuple[str, tuple], ...]] = []
    layers.append((("R", ancillas),))
    if x_ancillas:
        layers.append((("H", x_ancillas),))
    for layer_idx in range(code.num_layers):
        pairs = []
        for check in code.checks:
            if layer_idx >= len(check.data_by_layer):
                continue
            data = check.data_by_layer[layer_idx]
            if data is None:
                continue
            if check.basis == "Z":
                pairs.append((data, check.ancilla))
            else:
                pairs.append((check.ancilla, data))
        if pairs:
            layers.append((("CX", tuple(pairs)),))
    if x_ancillas:
        layers.append((("H", x_ancillas),))
    layers.append((("M", ancillas),))
    return LayeredRound(tuple(layers))


# ----------------------------------------------------------------------
# Detector structure shared by ideal and compiled circuits
# ----------------------------------------------------------------------

@dataclass
class DetectorSpec:
    """Detectors of a memory experiment in (qubit, round) terms.

    ``round`` is -1 for final data measurements.  ``groups`` lists, for
    each detector, the measurements whose parity it checks, and
    ``bases`` the basis (``"X"`` or ``"Z"``) of the check behind it;
    ``observable`` lists the final data measurements forming logical
    ``basis`` (Z or X).
    """

    groups: list[list[tuple[int, int]]]
    bases: list[str]
    observable: list[tuple[int, int]]
    basis: str


def memory_detector_spec(
    code: StabilizerCode, rounds: int, basis: str = "Z"
) -> DetectorSpec:
    """Detector wiring for a ``basis``-memory experiment."""
    if basis not in ("X", "Z"):
        raise ValueError("basis must be 'X' or 'Z'")
    if rounds < 1:
        raise ValueError("need at least one round")
    groups: list[list[tuple[int, int]]] = []
    bases: list[str] = []
    # First round: checks of the memory basis are deterministic.
    for check in code.checks_of_basis(basis):
        groups.append([(check.ancilla, 0)])
        bases.append(basis)
    # Bulk rounds: every ancilla compares with its previous outcome.
    for r in range(1, rounds):
        for check in code.checks:
            groups.append([(check.ancilla, r), (check.ancilla, r - 1)])
            bases.append(check.basis)
    # Final data measurement reconstructs the basis checks.
    for check in code.checks_of_basis(basis):
        group = [(check.ancilla, rounds - 1)]
        group.extend((d, -1) for d in check.data)
        groups.append(group)
        bases.append(basis)
    support = code.logical_z if basis == "Z" else code.logical_x
    observable = [(q, -1) for q in support]
    return DetectorSpec(groups, bases, observable, basis)


def attach_detectors(
    circuit: StabilizerCircuit,
    spec: DetectorSpec,
    meas_index: dict[tuple[int, int], int],
) -> None:
    """Append DETECTOR / OBSERVABLE_INCLUDE for an already-built body.

    ``meas_index`` maps (qubit, round) — round -1 for final data
    measurements — to the absolute measurement-record position.  Each
    annotation is tagged with its basis (``DETECTOR[X] rec[-1]``), which
    DEM extraction reads to decode only the observable's basis.
    """
    total = circuit.num_measurements
    for group, basis in zip(spec.groups, spec.bases):
        offsets = [meas_index[key] - total for key in group]
        circuit.append("DETECTOR", offsets, tag=basis)
    offsets = [meas_index[key] - total for key in spec.observable]
    circuit.append("OBSERVABLE_INCLUDE", offsets, (0,), tag=spec.basis)


# ----------------------------------------------------------------------
# Ideal (hardware-free) memory circuit
# ----------------------------------------------------------------------

def ideal_memory_circuit(
    code: StabilizerCode,
    rounds: int,
    basis: str = "Z",
    noise: UniformNoise | None = None,
) -> StabilizerCircuit:
    """Logical-level memory experiment with optional uniform noise.

    Used to validate codes (noiseless determinism), calibrate decoders,
    and cross-check the compiled-circuit pipeline.
    """
    if basis not in ("X", "Z"):
        raise ValueError("basis must be 'X' or 'Z'")
    circuit = StabilizerCircuit()
    data = [q.index for q in code.data_qubits]
    round_layers = syndrome_round(code)
    meas_index: dict[tuple[int, int], int] = {}
    p = noise.p if noise else 0.0

    circuit.append("R" if basis == "Z" else "RX", data)
    if p:
        circuit.append("X_ERROR" if basis == "Z" else "Z_ERROR", data, (p,))

    for r in range(rounds):
        for layer in round_layers.layers:
            for gate, targets in layer:
                if gate == "R":
                    circuit.append("R", targets)
                    if p:
                        circuit.append("X_ERROR", targets, (p,))
                elif gate == "H":
                    circuit.append("H", targets)
                    if p:
                        circuit.append("DEPOLARIZE1", targets, (p,))
                elif gate == "CX":
                    flat = [q for pair in targets for q in pair]
                    circuit.append("CX", flat)
                    if p:
                        circuit.append("DEPOLARIZE2", flat, (p,))
                elif gate == "M":
                    if p:
                        circuit.append("X_ERROR", targets, (p,))
                    for q in targets:
                        meas_index[(q, r)] = circuit.num_measurements
                        circuit.append("M", (q,))
                else:
                    raise ValueError(f"unexpected round gate {gate}")
        circuit.append("TICK")

    if p:
        circuit.append(
            "X_ERROR" if basis == "Z" else "Z_ERROR", data, (p,)
        )
    for q in data:
        meas_index[(q, -1)] = circuit.num_measurements
        circuit.append("M" if basis == "Z" else "MX", (q,))

    spec = memory_detector_spec(code, rounds, basis)
    attach_detectors(circuit, spec, meas_index)
    return circuit
