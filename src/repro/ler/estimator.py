"""Monte-Carlo logical error rate estimation (Sec. 6.4).

Pipeline: noisy circuit -> detector error model -> sample -> dedupe ->
decode -> failure rate.  The estimators here sample one ad-hoc circuit
through :func:`repro.engine.sample_circuit`; design points run as
engine sweeps (:func:`repro.engine.run_sweep`).  Reports both per-shot
and per-round logical error rates; the per-round figure (what the
paper plots) treats the shot as ``rounds`` independent opportunities
to fail:
``p_round = 1 - (1 - p_shot)^(1/rounds)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sim.circuit import StabilizerCircuit


@dataclass(frozen=True)
class LerResult:
    """Outcome of one logical-error-rate estimation."""

    shots: int
    failures: int
    rounds: int

    def __post_init__(self):
        if self.rounds <= 0:
            raise ValueError(f"rounds must be positive, got {self.rounds}")

    @property
    def per_shot(self) -> float:
        """Jeffreys-smoothed failure probability per shot."""
        return (self.failures + 0.5) / (self.shots + 1.0)

    @property
    def per_round(self) -> float:
        p = min(self.per_shot, 1.0 - 1e-12)
        return 1.0 - (1.0 - p) ** (1.0 / self.rounds)

    @property
    def stderr_per_shot(self) -> float:
        """Standard error of ``per_shot``, on the same smoothed denominator."""
        p = self.per_shot
        return math.sqrt(p * (1.0 - p) / (self.shots + 1.0))

    @property
    def rel_stderr(self) -> float:
        """Relative precision of the estimate (``stderr / ler``) — the
        quantity adaptive precision stopping
        (``SweepSpec(target_rel_stderr=...)``) drives below its bound."""
        return self.stderr_per_shot / self.per_shot

    @property
    def observed_any_failure(self) -> bool:
        return self.failures > 0


def _check_rounds(rounds: int) -> None:
    # Checked before sampling: LerResult would reject it only after the
    # whole shot budget had been spent.
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds}")


def estimate_logical_error_rate(
    circuit: StabilizerCircuit,
    rounds: int,
    shots: int = 2000,
    decoder: str = "mwpm",
    seed: int | None = None,
) -> LerResult:
    """Sample-and-decode LER estimate for a noisy memory circuit.

    Runs the engine's fixed-shot plan over ``circuit`` in process:
    syndromes are drawn from its detector error model in shards of
    ``DEFAULT_SHARD_SHOTS`` shots, each on its own ``SeedSequence``
    stream spawned from ``seed``, and decoded with deduplication.
    """
    _check_rounds(rounds)
    from ..engine.runner import sample_circuit  # deferred: engine builds on this module

    shots, failures = sample_circuit(circuit, shots, decoder=decoder, seed=seed)
    return LerResult(shots=shots, failures=failures, rounds=rounds)


def estimate_until_failures(
    circuit: StabilizerCircuit,
    rounds: int,
    min_failures: int | None = 20,
    max_shots: int = 10 ** 6,
    batch: int = 5000,
    decoder: str = "mwpm",
    seed: int | None = None,
    backend=None,
    target_rel_stderr: float | None = None,
) -> LerResult:
    """Adaptive estimation: sample in batches until enough failures.

    Low logical error rates make fixed shot counts wasteful (too many)
    or misleading (too few failures for a stable estimate).  This runs
    the engine's adaptive shard scheduler over one ad-hoc circuit:
    ``batch`` shots per shard (each on its own ``SeedSequence`` stream
    spawned from ``seed``), stopping at ``min_failures`` observed
    failures or at the ``max_shots`` budget, whichever comes first.
    Pass an engine backend (e.g. ``MultiprocessBackend``) to fan the
    shards out over workers.  Syndromes are drawn straight from the
    compiled detector error model.  ``target_rel_stderr`` adds a
    precision stopping rule: sampling also stops once
    ``result.rel_stderr`` falls below the bound — and since
    the *first* satisfied target wins, a precision bound tighter than
    ``1/sqrt(min_failures)`` needs ``min_failures=None``
    (precision-only stopping, up to the ``max_shots`` budget).
    """
    _check_rounds(rounds)
    if min_failures is None and target_rel_stderr is None:
        raise ValueError("need min_failures and/or target_rel_stderr")
    if min_failures is not None and min_failures < 1:
        raise ValueError("min_failures must be positive")
    if batch < 1 or max_shots < batch:
        raise ValueError("need max_shots >= batch >= 1")
    from ..engine.runner import sample_circuit  # deferred: engine builds on this module

    shots, failures = sample_circuit(
        circuit,
        max_shots,
        decoder=decoder,
        target_failures=min_failures,
        target_rel_stderr=target_rel_stderr,
        shard_shots=batch,
        seed=seed,
        backend=backend,
    )
    return LerResult(shots=shots, failures=failures, rounds=rounds)
