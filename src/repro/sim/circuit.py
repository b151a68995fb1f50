"""Stabilizer circuit intermediate representation.

The design deliberately mirrors Stim's text format (the paper uses Stim
1.13): a circuit is a flat list of instructions over qubit indices, with
``M``/``MR`` appending bits to a global measurement record, ``DETECTOR``
declaring a parity of record bits that is deterministic under noiseless
execution, and ``OBSERVABLE_INCLUDE`` accumulating record bits into a
logical observable.  Record targets are negative offsets relative to the
end of the record at the point the annotation appears (``rec[-1]`` is
the most recent measurement), exactly as in Stim.

Any instruction may carry a Stim-style *tag*, printed in brackets after
its name (``DETECTOR[Z] rec[-1]``).  Tags leave simulation alone; the
memory-experiment builders use them to name the basis of each detector
and of the observable, which DEM extraction reads to build the
decoder-side model (see :mod:`repro.sim.dem`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


# Gate name groups understood by the simulators.
CLIFFORD_1Q = frozenset({"H", "S", "S_DAG", "X", "Y", "Z", "SQRT_X", "SQRT_X_DAG", "I"})
CLIFFORD_2Q = frozenset({"CX", "CZ", "SWAP", "XX"})
RESETS = frozenset({"R", "RX"})
MEASUREMENTS = frozenset({"M", "MX", "MR"})
NOISE_1Q = frozenset({"X_ERROR", "Y_ERROR", "Z_ERROR", "DEPOLARIZE1", "PAULI_CHANNEL_1"})
NOISE_2Q = frozenset({"DEPOLARIZE2"})
ANNOTATIONS = frozenset({"DETECTOR", "OBSERVABLE_INCLUDE", "TICK"})

ALL_NAMES = CLIFFORD_1Q | CLIFFORD_2Q | RESETS | MEASUREMENTS | NOISE_1Q | NOISE_2Q | ANNOTATIONS


def _format_arg(value: float) -> str:
    """The shortest text that reads back as exactly ``value``.

    The text is what :class:`repro.engine.CompilationCache` keys on, so
    two circuits whose probabilities differ must print differently.
    Whole numbers drop Python's ``.0`` (``OBSERVABLE_INCLUDE(0)``).
    """
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


@dataclass(frozen=True)
class Instruction:
    """One circuit instruction.

    ``targets`` holds qubit indices for gates/noise, or record offsets
    (negative ints) for DETECTOR / OBSERVABLE_INCLUDE.  ``args`` holds
    noise probabilities (one for simple channels, three for
    PAULI_CHANNEL_1 as (px, py, pz)) or the observable index.  ``tag``
    is free text printed as ``NAME[tag]``; it never changes what the
    instruction does.
    """

    name: str
    targets: tuple[int, ...] = ()
    args: tuple[float, ...] = ()
    tag: str = ""

    def __str__(self) -> str:
        parts = [self.name]
        if self.tag:
            parts.append(f"[{self.tag}]")
        if self.args:
            parts.append("(" + ", ".join(_format_arg(a) for a in self.args) + ")")
        if self.targets:
            if self.name in ("DETECTOR", "OBSERVABLE_INCLUDE"):
                parts.append(" " + " ".join(f"rec[{t}]" for t in self.targets))
            else:
                parts.append(" " + " ".join(str(t) for t in self.targets))
        return "".join(parts)


class StabilizerCircuit:
    """A mutable list of :class:`Instruction` with record bookkeeping."""

    def __init__(self) -> None:
        self.instructions: list[Instruction] = []
        self._num_measurements = 0
        self._num_detectors = 0
        self._max_qubit = -1
        self._observables: set[int] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self._max_qubit + 1

    @property
    def num_measurements(self) -> int:
        return self._num_measurements

    @property
    def num_detectors(self) -> int:
        return self._num_detectors

    @property
    def num_observables(self) -> int:
        return max(self._observables) + 1 if self._observables else 0

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __str__(self) -> str:
        return "\n".join(str(inst) for inst in self.instructions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StabilizerCircuit):
            return NotImplemented
        return self.instructions == other.instructions

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def append(self, name: str, targets=(), args=(), tag: str = "") -> None:
        """Append an instruction, validating its shape."""
        if name not in ALL_NAMES:
            raise ValueError(f"unknown instruction {name!r}")
        if any(c in tag for c in "[]#\r\n"):
            raise ValueError(f"tag {tag!r} may not contain brackets, '#' or line breaks")
        targets = tuple(int(t) for t in targets)
        args = tuple(float(a) for a in args)
        if name in CLIFFORD_2Q or name in NOISE_2Q:
            if len(targets) % 2 != 0:
                raise ValueError(f"{name} requires an even number of targets")
        if name in NOISE_1Q or name in NOISE_2Q:
            if name == "PAULI_CHANNEL_1":
                if len(args) != 3:
                    raise ValueError("PAULI_CHANNEL_1 takes (px, py, pz)")
            elif len(args) != 1:
                raise ValueError(f"{name} takes one probability argument")
            if any(a < 0 or a > 1 for a in args):
                raise ValueError("noise probabilities must be in [0, 1]")
        if name == "DETECTOR":
            self._validate_record_targets(targets)
            self._num_detectors += 1
        elif name == "OBSERVABLE_INCLUDE":
            if len(args) != 1:
                raise ValueError("OBSERVABLE_INCLUDE takes the observable index")
            self._validate_record_targets(targets)
            self._observables.add(int(args[0]))
        elif name != "TICK":
            if not targets:
                raise ValueError(f"{name} requires at least one target")
            if min(targets) < 0:
                raise ValueError("qubit indices must be non-negative")
            self._max_qubit = max(self._max_qubit, max(targets))
        if name in MEASUREMENTS:
            self._num_measurements += len(targets)
        self.instructions.append(Instruction(name, targets, args, tag))

    def _validate_record_targets(self, targets: tuple[int, ...]) -> None:
        for t in targets:
            if t >= 0:
                raise ValueError("record targets must be negative offsets")
            if -t > self._num_measurements:
                raise ValueError(
                    f"record offset {t} reaches before the start of the record"
                )

    def extend(self, other: "StabilizerCircuit") -> None:
        for inst in other.instructions:
            self.append(inst.name, inst.targets, inst.args, inst.tag)

    def copy(self) -> "StabilizerCircuit":
        dup = StabilizerCircuit()
        dup.extend(self)
        return dup

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def without_noise(self) -> "StabilizerCircuit":
        """The same circuit with every noise channel removed."""
        clean = StabilizerCircuit()
        for inst in self.instructions:
            if inst.name in NOISE_1Q or inst.name in NOISE_2Q:
                continue
            clean.append(inst.name, inst.targets, inst.args, inst.tag)
        return clean

    def detector_records(self) -> list[list[int]]:
        """Absolute measurement-record indices for each detector, in order."""
        seen = 0
        out: list[list[int]] = []
        for inst in self.instructions:
            if inst.name in MEASUREMENTS:
                seen += len(inst.targets)
            elif inst.name == "DETECTOR":
                out.append([seen + t for t in inst.targets])
        return out

    def observable_records(self) -> dict[int, list[int]]:
        """Absolute record indices accumulated into each observable."""
        seen = 0
        out: dict[int, list[int]] = {}
        for inst in self.instructions:
            if inst.name in MEASUREMENTS:
                seen += len(inst.targets)
            elif inst.name == "OBSERVABLE_INCLUDE":
                out.setdefault(int(inst.args[0]), []).extend(seen + t for t in inst.targets)
        return out

    def count(self, name: str) -> int:
        """Number of instructions with the given name."""
        return sum(1 for inst in self.instructions if inst.name == name)
