"""Monte-Carlo logical error rate estimation (Sec. 6.4).

Pipeline: noisy circuit -> detector error model -> decoder -> sampled
failure rate.  Reports both per-shot and per-round logical error
rates; the per-round figure (what the paper plots) treats the shot as
``rounds`` independent opportunities to fail:
``p_round = 1 - (1 - p_shot)^(1/rounds)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..decoders.graph import DetectorGraph
from ..decoders.mwpm import MwpmDecoder
from ..decoders.union_find import UnionFindDecoder
from ..sim.circuit import StabilizerCircuit
from ..sim.dem import circuit_to_dem
from ..sim.dem_sampler import PackedShard
from ..sim.frame import FrameSimulator


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


def make_decoder(graph: DetectorGraph, name: str):
    if name == "mwpm":
        return MwpmDecoder(graph)
    if name == "union_find":
        return UnionFindDecoder(graph)
    raise ValueError(f"unknown decoder {name!r}; expected mwpm or union_find")


def estimate_logical_error_rate(
    circuit: StabilizerCircuit,
    rounds: int,
    shots: int = 2000,
    decoder: str = "mwpm",
    seed: int | None = None,
) -> LerResult:
    """Sample-and-decode LER estimate for a noisy memory circuit."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    dem = circuit_to_dem(circuit)
    graph = DetectorGraph.from_dem(dem)
    dec = make_decoder(graph, decoder)
    sample = FrameSimulator(circuit, seed=seed).sample(shots)
    # Pack once at the sampler boundary; decode over the packed words
    # (the same flow an engine shard uses).
    packed = PackedShard.from_bool(sample.detectors, sample.observables)
    failures = int(
        dec.logical_failures_packed(packed.det_words, packed.obs_words).sum()
    )
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
    if min_failures is None and target_rel_stderr is None:
        raise ValueError("need min_failures and/or target_rel_stderr")
    if min_failures is not None and min_failures < 1:
        raise ValueError("min_failures must be positive")
    if batch < 1 or max_shots < batch:
        raise ValueError("need max_shots >= batch >= 1")
    from ..engine.runner import sample_adaptive  # deferred: engine builds on this module

    shots, failures = sample_adaptive(
        circuit,
        decoder=decoder,
        target_failures=min_failures,
        target_rel_stderr=target_rel_stderr,
        max_shots=max_shots,
        shard_shots=batch,
        seed=seed,
        backend=backend,
    )
    return LerResult(shots=shots, failures=failures, rounds=rounds)


def estimate_sweep(spec, **runner_options):
    """Engine-backed LER estimation over a whole design-space grid.

    ``spec`` is a :class:`repro.engine.SweepSpec`; ``runner_options``
    are forwarded to :class:`repro.engine.Runner` (``workers``,
    ``cache`` / ``cache_dir``, ``store`` / ``results_path``,
    ``shard_shots``, ``progress``, ...).  Returns the engine's
    :class:`repro.engine.JobResult` list, whose ``ler`` property yields
    a :class:`LerResult` per sampled job.  Unlike
    :func:`estimate_logical_error_rate`, circuits shared between jobs
    are compiled once and shots may be sharded over worker processes.
    """
    from ..engine.runner import run_sweep  # deferred: engine builds on this module

    return run_sweep(spec, **runner_options)
