"""Text serialisation of stabilizer circuits (Stim-compatible subset).

Circuits round-trip through the same plain-text syntax Stim uses::

    R 0 1 2
    H 0
    CX 0 1
    DEPOLARIZE2(0.001) 0 1
    M 0 1
    DETECTOR[Z] rec[-1] rec[-2]
    OBSERVABLE_INCLUDE[Z](0) rec[-1]

Only the instruction set of :mod:`repro.sim.circuit` is supported; the
point is interoperability — a compiled QCCD schedule exported with
:func:`repro.core.program_to_circuit` can be written out and loaded
into real Stim unchanged (modulo the XX gate, which Stim spells
``SQRT_XX``).  Instruction tags (``DETECTOR[Z]``, the basis labels of
a memory experiment) use Stim's tag syntax, which Stim reads from
version 1.15 on.
"""

from __future__ import annotations

import re

from .circuit import StabilizerCircuit

_REC_PATTERN = re.compile(r"rec\[(-\d+)\]")
_NAME_ARGS_PATTERN = re.compile(
    r"^([A-Z_0-9]+)(?:\[([^\]]*)\])?(?:\(([^)]*)\))?\s*(.*)$"
)


def circuit_to_text(circuit: StabilizerCircuit) -> str:
    """Render a circuit in Stim-style text."""
    return str(circuit)


def circuit_from_text(text: str) -> StabilizerCircuit:
    """Parse Stim-style text into a :class:`StabilizerCircuit`.

    Raises ``ValueError`` with a line number on malformed input.
    """
    circuit = StabilizerCircuit()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _NAME_ARGS_PATTERN.match(line)
        if not match:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
        name, tag, args_text, targets_text = match.groups()
        args: tuple[float, ...] = ()
        if args_text:
            args = tuple(float(a) for a in args_text.split(","))
        if name in ("DETECTOR", "OBSERVABLE_INCLUDE"):
            targets = tuple(
                int(m.group(1)) for m in _REC_PATTERN.finditer(targets_text)
            )
            expected = len(targets_text.split()) if targets_text else 0
            if len(targets) != expected:
                raise ValueError(
                    f"line {lineno}: {name} targets must be rec[-k] terms"
                )
        else:
            try:
                targets = tuple(
                    int(t) for t in targets_text.split()
                ) if targets_text else ()
            except ValueError:
                raise ValueError(
                    f"line {lineno}: bad qubit targets in {raw!r}"
                ) from None
        try:
            circuit.append(name, targets, args, tag or "")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return circuit


def save_circuit(circuit: StabilizerCircuit, path: str) -> None:
    """Write a circuit to a text file."""
    with open(path, "w") as fh:
        fh.write(circuit_to_text(circuit))
        fh.write("\n")


def load_circuit(path: str) -> StabilizerCircuit:
    """Read a circuit from a text file."""
    with open(path) as fh:
        return circuit_from_text(fh.read())
