"""Common structure for the QEC codes used in the paper.

A code is a set of *data* qubits and *ancilla* qubits laid out in the
plane, plus a list of parity checks.  Each check owns one ancilla and
up to four data qubits listed in CX-layer order — layer k of every
check executes simultaneously, which is what gives surface-code
syndrome extraction its fixed depth.  Layer orders are chosen so that
no data qubit is addressed by two checks in the same layer (verified in
the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Role(Enum):
    DATA = "data"
    ANCILLA = "ancilla"


@dataclass(frozen=True)
class CodeQubit:
    """A physical-code-level qubit with planar coordinates."""

    index: int
    role: Role
    pos: tuple[float, float]
    basis: str | None = None  # 'X' or 'Z' for ancillas, None for data


@dataclass(frozen=True)
class Check:
    """A stabilizer check: one ancilla, data targets in layer order.

    ``data_by_layer[k]`` is the data-qubit index touched in CX layer k,
    or ``None`` when this (boundary) check skips that layer.
    """

    ancilla: int
    basis: str  # 'X' or 'Z'
    data_by_layer: tuple[int | None, ...]

    @property
    def data(self) -> tuple[int, ...]:
        return tuple(q for q in self.data_by_layer if q is not None)

    @property
    def weight(self) -> int:
        return len(self.data)


class StabilizerCode:
    """Base class: geometry, checks and logical operators of a code."""

    name = "abstract"

    def __init__(self, distance: int):
        if distance < 2:
            raise ValueError("code distance must be at least 2")
        self.distance = distance
        self.qubits: list[CodeQubit] = []
        self.checks: list[Check] = []
        self.logical_z: list[int] = []  # data-qubit support of logical Z
        self.logical_x: list[int] = []
        self._build()
        self._validate()

    # Subclasses fill qubits / checks / logicals here.
    def _build(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def data_qubits(self) -> list[CodeQubit]:
        return [q for q in self.qubits if q.role is Role.DATA]

    @property
    def ancilla_qubits(self) -> list[CodeQubit]:
        return [q for q in self.qubits if q.role is Role.ANCILLA]

    @property
    def num_layers(self) -> int:
        return max(len(c.data_by_layer) for c in self.checks)

    def checks_of_basis(self, basis: str) -> list[Check]:
        return [c for c in self.checks if c.basis == basis]

    # ------------------------------------------------------------------
    def interaction_graph(self) -> dict[tuple[int, int], int]:
        """Qubit interactions weighted by how early each one happens.

        Maps ``(ancilla, data)`` to the summed weight (num_layers -
        layer) of the CX layers joining the pair, so first-layer
        interactions carry the highest weight; the partitioner then
        avoids cutting them (paper Sec. 4.2).
        """
        weights: dict[tuple[int, int], int] = {}
        layers = self.num_layers
        for check in self.checks:
            for layer, data in enumerate(check.data_by_layer):
                if data is not None:
                    key = (check.ancilla, data)
                    weights[key] = weights.get(key, 0) + layers - layer
        return weights

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        indices = [q.index for q in self.qubits]
        if indices != list(range(len(indices))):
            raise ValueError("qubit indices must be 0..n-1 in order")
        data_ids = {q.index for q in self.data_qubits}
        ancilla_ids = {q.index for q in self.ancilla_qubits}
        for check in self.checks:
            if check.ancilla not in ancilla_ids:
                raise ValueError(f"check ancilla {check.ancilla} is not an ancilla")
            for d in check.data:
                if d not in data_ids:
                    raise ValueError(f"check target {d} is not a data qubit")
        # No data qubit may be touched twice in one layer.
        for layer in range(self.num_layers):
            seen: set[int] = set()
            for check in self.checks:
                if layer >= len(check.data_by_layer):
                    continue
                d = check.data_by_layer[layer]
                if d is None:
                    continue
                if d in seen:
                    raise ValueError(
                        f"layer {layer} addresses data qubit {d} twice"
                    )
                seen.add(d)
        for support in (self.logical_z, self.logical_x):
            if not set(support) <= data_ids:
                raise ValueError("logical support must be data qubits")
