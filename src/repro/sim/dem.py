"""Detector error model (DEM) extraction.

Every noise channel in a stabilizer circuit is a mixture of Pauli
*error mechanisms* (e.g. DEPOLARIZE2 is 15 two-qubit Paulis at p/15
each).  Each mechanism, propagated through the remainder of the circuit,
flips a fixed set of detectors and logical observables.  The DEM is the
list of (detector set, observable set, probability) triples — precisely
what a matching decoder needs.

Extraction runs in three vectorised steps:

1. **Mechanism table.**  Every mechanism becomes one row of numpy
   columns (noise instruction, up to two qubits, their Pauli codes,
   probability), in circuit order.
2. **Packed propagation.**  Mechanism ``i`` is bit ``i % 64`` of word
   ``i // 64`` in a qubit-major Pauli frame: ``x[q]`` / ``z[q]`` are
   rows of uint64 words holding the X / Z component of every
   mechanism's frame on qubit ``q`` — the bit-packed layout of
   :class:`~repro.sim.dem_sampler.DemSampler`, transposed.  A Clifford
   gate is a handful of whole-row XORs; mechanisms are injected from
   precomputed ``(qubit, word, bit)`` arrays just before the next gate,
   reset or measurement; and a measurement XORs one frame row into
   the packed rows of the detectors and observables that read it.
   One pass over the circuit propagates every mechanism at once.
3. **Symptom dedupe.**  The set bits of the packed symptom rows are
   scattered into one byte string per mechanism, which ``np.unique``
   dedupes, so detector tuples are built once per *distinct* symptom
   rather than once per mechanism.  Probabilities then fold per
   symptom in mechanism order.

That is the *exact* model, the one to sample from.  The *graphlike*
model the matching decoders read is derived from it, not re-propagated:
every exact symptom is projected onto the detectors of the observable's
basis, keeping its observables.  A memory experiment tags each detector
and its observable with their basis (``DETECTOR[Z] rec[-1]``, see
:func:`repro.codes.circuits.attach_detectors`); a circuit without
such tags keeps every detector.  In a CSS memory experiment a Y error
flips X-type and Z-type detectors at once, and only the observable's
basis can tell the decoder anything about the observable, so the
projection turns such hyperedges into single graph edges.  What still
flips more than two detectors after projection is chain-paired in
detector order (see :func:`_graphlike_pieces`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import StabilizerCircuit

# Pauli codes: bit 0 is the X component, bit 1 the Z component.
_X, _Z, _Y = 1, 2, 3
# One-qubit channels: the Pauli of each component, in enumeration order.
_ONE_QUBIT_PAULIS = {
    "X_ERROR": (_X,),
    "Y_ERROR": (_Y,),
    "Z_ERROR": (_Z,),
    "PAULI_CHANNEL_1": (_X, _Y, _Z),
    "DEPOLARIZE1": (_X, _Y, _Z),
}
# DEPOLARIZE2 components 1..15: qubit a carries Pauli ``k // 4`` and
# qubit b Pauli ``k % 4``, indexing (I, X, Y, Z).
_DEPOLARIZE2_PAULIS = [((0, _X, _Y, _Z)[k // 4], (0, _X, _Y, _Z)[k % 4])
                       for k in range(1, 16)]


@dataclass(frozen=True)
class DemError:
    """One independent error source in the model."""

    detectors: tuple[int, ...]
    observables: tuple[int, ...]
    probability: float

    def is_graphlike(self) -> bool:
        return len(self.detectors) <= 2


Symptom = tuple[tuple[int, ...], tuple[int, ...]]


def _fold(keys, probabilities) -> dict:
    """Fold independent sources sharing a key, in order.

    Two independent sources with the same (detectors, observables) act
    like one source firing with probability
    ``p = (1 - prod(1 - 2 p_i)) / 2`` (odd number of firings), folded
    pairwise as ``prior + p - 2 prior p``.
    """
    acc: dict = {}
    for key, p in zip(keys, probabilities):
        prior = acc.get(key, 0.0)
        acc[key] = prior + p - 2.0 * prior * p
    return acc


def _errors(folded: dict[Symptom, float]) -> list[DemError]:
    """Folded sources sorted by symptom, dropping those that cannot fire."""
    return [DemError(dets, obs, p) for (dets, obs), p in sorted(folded.items()) if p > 0.0]


@dataclass
class DetectorErrorModel:
    """A collection of independent error mechanisms."""

    num_detectors: int
    num_observables: int
    errors: list[DemError] = field(default_factory=list)

    def merged(self) -> "DetectorErrorModel":
        """Combine errors with identical symptoms (see :func:`_fold`)."""
        merged = _errors(_fold(((err.detectors, err.observables) for err in self.errors),
                               (err.probability for err in self.errors)))
        return DetectorErrorModel(self.num_detectors, self.num_observables, merged)

    @property
    def num_errors(self) -> int:
        return len(self.errors)


@dataclass(frozen=True)
class _Mechanisms:
    """Error mechanisms as numpy columns, one row each, in circuit order.

    ``qubits[i]`` / ``paulis[i]`` name up to two single-qubit Paulis
    injected just before instruction ``instruction[i]``; unused slots
    hold Pauli code 0.
    """

    instruction: np.ndarray  # (m,) intp
    qubits: np.ndarray       # (m, 2) intp
    paulis: np.ndarray       # (m, 2) uint8 Pauli codes
    probability: np.ndarray  # (m,) float64

    def __len__(self) -> int:
        return len(self.probability)


def _enumerate_mechanisms(circuit: StabilizerCircuit) -> _Mechanisms:
    """Tabulate every Pauli component of every noise instruction.

    The order is instruction, then target (or target pair), then
    component.  Components that cannot fire (probability 0) are left
    out: they would fold into their symptom as the identity.
    """
    rows = []  # (instruction, qubit a, qubit b, Pauli a, Pauli b, probability)
    for idx, inst in enumerate(circuit.instructions):
        name, targets, args = inst.name, inst.targets, inst.args
        if name == "DEPOLARIZE2" and args[0]:
            p = args[0] / 15.0
            rows.extend((idx, a, b, pa, pb, p) for a, b in zip(targets[::2], targets[1::2])
                        for pa, pb in _DEPOLARIZE2_PAULIS)
        elif name in _ONE_QUBIT_PAULIS:
            if name == "DEPOLARIZE1":
                args = (args[0] / 3.0,) * 3
            components = [(c, p) for c, p in zip(_ONE_QUBIT_PAULIS[name], args) if p]
            rows.extend((idx, q, 0, c, 0, p) for q in targets for c, p in components)
    inst, qa, qb, pa, pb, prob = zip(*rows) if rows else ((),) * 6
    return _Mechanisms(
        np.array(inst, dtype=np.intp),
        np.array([qa, qb], dtype=np.intp).reshape(2, -1).T,
        np.array([pa, pb], dtype=np.uint8).reshape(2, -1).T,
        np.array(prob, dtype=np.float64),
    )


# Frame-acting instructions whose operands are plain qubit lists.
_QUBITWISE = frozenset({"H", "S", "S_DAG", "SQRT_X", "SQRT_X_DAG", "R", "RX"})


def _index(values):
    """Row index for a target list: a bare int when there is one target
    (basic indexing, the cheap case of serialised circuits), else a
    list (fancy indexing)."""
    return values[0] if len(values) == 1 else list(values)


@dataclass(frozen=True)
class _FramePlan:
    """A circuit's frame-acting instructions, operands pre-indexed.

    ``ops[k]`` is ``(name, a, b)``: control and target rows for CX/CZ,
    qubit pairs for SWAP/XX, qubit rows for one-qubit gates and resets,
    and ``(qubit, symptom rows or None)`` reads for measurements.
    Symptom rows ``0 .. num_detectors - 1`` are detectors, the
    observables follow.  Noise and annotations leave the frame alone,
    so an injection just before instruction ``i`` is equally applied
    just before op ``next_op[i]``.
    """

    ops: list[tuple]
    next_op: np.ndarray
    num_qubits: int
    num_rows: int


def _frame_plan(circuit: StabilizerCircuit) -> _FramePlan:
    # Per measurement, the symptom rows whose parity reads it; a record
    # read twice by one parity cancels.
    reads: list[set[int]] = [set() for _ in range(circuit.num_measurements)]
    for d, recs in enumerate(circuit.detector_records()):
        for r in recs:
            reads[r] ^= {d}
    for o, recs in circuit.observable_records().items():
        for r in recs:
            reads[r] ^= {circuit.num_detectors + o}
    ops: list[tuple] = []
    next_op = []
    cursor = 0
    for inst in circuit.instructions:
        next_op.append(len(ops))
        name, targets = inst.name, inst.targets
        if name in ("CX", "CZ"):
            ops.append((name, _index(targets[::2]), _index(targets[1::2])))
        elif name in ("SWAP", "XX"):
            ops.append((name, list(zip(targets[::2], targets[1::2])), None))
        elif name in _QUBITWISE:
            ops.append((name, _index(targets), None))
        elif name in ("M", "MR", "MX"):
            rows = reads[cursor:cursor + len(targets)]
            cursor += len(targets)
            ops.append((name, [(q, _index(sorted(r)) if r else None)
                               for q, r in zip(targets, rows)], None))
    return _FramePlan(ops, np.array(next_op, dtype=np.intp), max(circuit.num_qubits, 1),
                      circuit.num_detectors + circuit.num_observables)


def _injections(plan: _FramePlan, mechs: _Mechanisms, component: int) -> dict:
    """Per op, the ``(qubits, words, bits)`` that set one Pauli component
    (``_X`` or ``_Z``) of the mechanisms injected just before it."""
    row, slot = np.nonzero(mechs.paulis & component)
    # Rows come out in mechanism order, hence in op order.
    op = plan.next_op[mechs.instruction[row]]
    qubit = mechs.qubits[row, slot]
    bit = np.left_shift(np.uint64(1), (row & 63).astype(np.uint64))
    bounds = [0] + (np.flatnonzero(np.diff(op)) + 1).tolist() + [len(op)]
    return {
        int(op[lo]): (qubit[lo:hi], row[lo:hi] >> 6, bit[lo:hi])
        for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    }


def _propagate(plan: _FramePlan, mechs: _Mechanisms) -> np.ndarray:
    """Propagate every mechanism's Pauli through the circuit at once.

    Returns the packed symptoms: ``(num_detectors + num_observables,
    ceil(m / 64))`` uint64, bit ``i`` of row ``r`` set iff mechanism
    ``i`` flips symptom ``r``.
    """
    words = (len(mechs) + 63) // 64
    x = np.zeros((plan.num_qubits, words), dtype=np.uint64)
    z = np.zeros_like(x)
    flips = np.zeros((plan.num_rows, words), dtype=np.uint64)
    inject_x = _injections(plan, mechs, _X)
    inject_z = _injections(plan, mechs, _Z)
    for k, (name, a, b) in enumerate(plan.ops):
        # XOR-at: several mechanisms may share a (qubit, word).
        if k in inject_x:
            np.bitwise_xor.at(x, inject_x[k][:2], inject_x[k][2])
        if k in inject_z:
            np.bitwise_xor.at(z, inject_z[k][:2], inject_z[k][2])
        if name == "CX":
            x[b] ^= x[a]
            z[a] ^= z[b]
        elif name == "H":
            tmp = x[a].copy()
            x[a] = z[a]
            z[a] = tmp
        elif name in ("R", "RX"):
            x[a] = 0
            z[a] = 0
        elif name in ("M", "MR", "MX"):
            frame = z if name == "MX" else x
            for q, rows in a:
                if rows is not None:
                    flips[rows] ^= frame[q]
                if name == "MR":
                    x[q] = 0
                    z[q] = 0
        elif name in ("S", "S_DAG"):
            z[a] ^= x[a]
        elif name in ("SQRT_X", "SQRT_X_DAG"):
            x[a] ^= z[a]
        elif name == "CZ":
            z[b] ^= x[a]
            z[a] ^= x[b]
        elif name == "SWAP":
            for p, q in a:
                x[[p, q]] = x[[q, p]]
                z[[p, q]] = z[[q, p]]
        elif name == "XX":
            # MS entangler, H_p CX(p, q) H_p: each qubit's X component
            # picks up the other's Z component.
            for p, q in a:
                x[p] ^= z[q]
                x[q] ^= z[p]
    return flips


def _tuples(bits: np.ndarray) -> list[tuple[int, ...]]:
    """Set-bit column indices of each row of a boolean matrix."""
    row, col = np.nonzero(bits)
    ends = np.cumsum(np.bincount(row, minlength=len(bits))).tolist()
    col = col.tolist()
    return [tuple(col[start:end]) for start, end in zip([0] + ends, ends)]


def _distinct_symptoms(
    circuit: StabilizerCircuit, plan: _FramePlan, mechs: _Mechanisms
) -> tuple[list[Symptom], np.ndarray]:
    """The distinct ``(detectors, observables)`` symptoms of the
    mechanisms, and each mechanism's index into them."""
    flips = _propagate(plan, mechs)
    num_bits = flips.shape[0]
    # Transpose sparsely: symptoms are a few bits per mechanism, so
    # only the nonzero words are unpacked, and each set bit lands in
    # its mechanism's row of bytes.
    symptom, word = np.nonzero(flips)
    words = flips[symptom, word].view(np.uint8).reshape(-1, 8)
    hit, bit = np.nonzero(np.unpackbits(words, axis=1, bitorder="little"))
    symptom = symptom[hit]
    rows = np.zeros((len(mechs), (num_bits + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(rows, (word[hit] * 64 + bit, symptom >> 3),
                     np.left_shift(1, symptom & 7).astype(np.uint8))
    distinct, inverse = np.unique(
        rows.view(np.dtype((np.void, rows.shape[1]))).ravel(), return_inverse=True
    )
    bits = np.unpackbits(distinct.view(np.uint8).reshape(len(distinct), -1),
                         axis=1, count=num_bits, bitorder="little")
    dets = _tuples(bits[:, :circuit.num_detectors])
    obs = _tuples(bits[:, circuit.num_detectors:])
    return list(zip(dets, obs)), inverse.reshape(-1)


def _decoded_detectors(circuit: StabilizerCircuit) -> list[bool] | None:
    """Per detector, whether the graphlike model keeps it: those whose
    tag names the observables' basis.  ``None`` (keep every detector)
    when the observables share no tag or no detector carries it."""
    observable_tags = {inst.tag for inst in circuit.instructions
                       if inst.name == "OBSERVABLE_INCLUDE"}
    if len(observable_tags) != 1:
        return None
    (basis,) = observable_tags
    keep = [inst.tag == basis for inst in circuit.instructions if inst.name == "DETECTOR"]
    return keep if basis and any(keep) else None


def _graphlike_pieces(symptom: Symptom) -> list[Symptom]:
    """A projected symptom's graphlike stand-ins: the symptom itself
    when it flips at most two detectors, else chain-pairs of its
    detectors in index order (the observables ride on the first pair)."""
    dets, obs = symptom
    if len(dets) <= 2:
        return [symptom] if dets or obs else []
    return [(dets[i:i + 2], obs if i == 0 else ()) for i in range(0, len(dets), 2)]


def _graphlike(errors: list[DemError], keep: list[bool] | None) -> list[DemError]:
    """The graphlike model of exact ``errors``: each symptom projected
    onto the ``keep`` detectors, split into graphlike pieces, and the
    pieces folded in symptom order."""
    keys, weights = [], []
    for err in errors:
        dets = err.detectors if keep is None else tuple(d for d in err.detectors if keep[d])
        for piece in _graphlike_pieces((dets, err.observables)):
            keys.append(piece)
            weights.append(err.probability)
    return _errors(_fold(keys, weights))


def circuit_to_dems(
    circuit: StabilizerCircuit,
) -> tuple[DetectorErrorModel, DetectorErrorModel]:
    """Extract both DEM flavours of a noisy circuit in one pass.

    Returns ``(exact, graphlike)``:

    - ``exact`` keeps every mechanism's full symptom set, hyperedges
      included — the model to *sample* from (``DemSampler``), since
      splitting a mechanism would decorrelate detector flips that fire
      together physically;
    - ``graphlike`` is the model *matching decoders* read: every exact
      symptom projected onto the detectors of the observable's basis
      (every detector when the circuit carries no basis tags), with
      its observables kept.  A projection that still flips more than
      two detectors is chain-paired; pieces keep the full symptom
      probability, the standard independence approximation.  Symptoms
      that project to nothing are dropped.

    Probabilities fold per symptom in mechanism order for ``exact``,
    then per graphlike piece in exact-symptom order.
    """
    exact = DetectorErrorModel(circuit.num_detectors, circuit.num_observables)
    graphlike = DetectorErrorModel(circuit.num_detectors, circuit.num_observables)
    mechs = _enumerate_mechanisms(circuit)
    if not len(mechs) or not circuit.num_detectors + circuit.num_observables:
        return exact, graphlike

    symptoms, inverse = _distinct_symptoms(circuit, _frame_plan(circuit), mechs)
    nonempty = np.array([bool(d or o) for d, o in symptoms])[inverse]
    exact.errors = _errors({
        symptoms[j]: p for j, p in _fold(inverse[nonempty].tolist(),
                                         mechs.probability[nonempty].tolist()).items()
    })
    graphlike.errors = _graphlike(exact.errors, _decoded_detectors(circuit))
    return exact, graphlike


def circuit_to_dem(circuit: StabilizerCircuit, *, decompose: bool = True) -> DetectorErrorModel:
    """Extract the detector error model of a noisy circuit.

    With ``decompose=True``, the graphlike model matching decoders read:
    symptoms projected onto the detectors of the observable's basis,
    and what still flips more than two detectors chain-paired.  With
    ``decompose=False``, the exact model.  See :func:`circuit_to_dems`
    to obtain both flavours from one propagation pass.
    """
    exact, graphlike = circuit_to_dems(circuit)
    return graphlike if decompose else exact
