"""Stabilizer-circuit simulation substrate (Stim substitute).

Public surface:

- :class:`PauliString` — symplectic Pauli algebra.
- :class:`StabilizerCircuit` — circuit IR with noise channels,
  DETECTOR and OBSERVABLE_INCLUDE annotations (Stim-style semantics).
- :class:`TableauSimulator` — exact Aaronson-Gottesman simulation.
- :class:`FrameSimulator` — vectorised Pauli-frame sampling, the
  exact reference oracle the tests check the DEM sampler against.
- :func:`circuit_to_dem` — detector-error-model extraction.
- :class:`DemSampler` — bit-packed DEM-direct syndrome sampling, the
  one sampler behind every logical error rate (engine shards and the
  :mod:`repro.ler` estimators).
- :class:`PackedShard` — packed uint64 syndrome batch, the native
  currency of the sampling -> decoding pipeline.
"""

from .circuit import Instruction, StabilizerCircuit
from .dem import DemError, DetectorErrorModel, circuit_to_dem, circuit_to_dems
from .dem_sampler import DemSampler, PackedShard, pack_bool_rows, unpack_bool_rows
from .frame import FrameSimulator, FrameState, SampleResult
from .pauli import PauliString
from .tableau import TableauSimulator
from .text_format import (
    circuit_from_text,
    circuit_to_text,
    load_circuit,
    save_circuit,
)

__all__ = [
    "Instruction",
    "StabilizerCircuit",
    "circuit_from_text",
    "circuit_to_text",
    "load_circuit",
    "save_circuit",
    "DemError",
    "DetectorErrorModel",
    "circuit_to_dem",
    "circuit_to_dems",
    "DemSampler",
    "PackedShard",
    "pack_bool_rows",
    "unpack_bool_rows",
    "FrameSimulator",
    "FrameState",
    "SampleResult",
    "PauliString",
    "TableauSimulator",
]
