"""Design-space exploration toolflow (Figure 2).

``DesignSpaceExplorer.evaluate`` runs one design point through the
whole stack: compile -> schedule -> resource model -> (optionally)
noisy-circuit export, DEM extraction, decoding, LER estimate.  The
sweep helpers drive the figure-level experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..arch.wiring import WiringMethod, wiring_by_name
from ..engine.runner import Runner, compile_design_point
from ..engine.sweep import SweepJob
from ..ler.estimator import estimate_logical_error_rate
from ..ler.projection import LerProjection, fit_projection
from ..noise.parameters import DEFAULT_NOISE, NoiseParameters
from .records import EvaluationRecord


_RECORD_FIELDS = frozenset(f.name for f in fields(EvaluationRecord))


def record_from_job_result(result) -> EvaluationRecord:
    """Rebuild an :class:`EvaluationRecord` from an engine
    :class:`repro.engine.JobResult` (fresh or resumed from a store).

    Metrics the record no longer has are dropped: a resumed store line
    may carry one that an older version recorded.
    """
    record = EvaluationRecord(
        **{k: v for k, v in result.metrics.items() if k in _RECORD_FIELDS}
    )
    record.extras.update(result.extras)
    record.extras["decoder"] = result.job.decoder
    record.extras["job_key"] = result.job.key
    ler = result.ler
    if ler is not None:
        record.shots = ler.shots
        record.failures = ler.failures
        record.ler_per_shot = ler.per_shot
        record.ler_per_round = ler.per_round
    return record


@dataclass
class DesignSpaceExplorer:
    """Sweeps QCCD design points for one QEC code family."""

    code_name: str = "rotated_surface"
    noise: NoiseParameters = field(default_factory=lambda: DEFAULT_NOISE)
    seed: int = 2026

    def evaluate(
        self,
        distance: int,
        capacity: int = 2,
        topology: str = "grid",
        wiring: str | WiringMethod = "standard",
        gate_improvement: float = 1.0,
        rounds: int | None = None,
        shots: int = 0,
        decoder: str = "mwpm",
        basis: str = "Z",
        router: str = "greedy",
    ) -> EvaluationRecord:
        """Run one design point through the Figure-2 pipeline."""
        wiring_method = (
            wiring if isinstance(wiring, WiringMethod) else wiring_by_name(wiring)
        )
        rounds = rounds if rounds is not None else distance
        job = SweepJob(
            code=self.code_name,
            distance=distance,
            capacity=capacity,
            topology=topology,
            wiring=wiring_method.name,
            gate_improvement=gate_improvement,
            decoder=decoder,
            rounds=rounds,
            shots=shots,
            basis=basis,
            router=router,
        )
        artifacts = compile_design_point(
            job, self.noise, need_circuit=shots > 0, wiring_method=wiring_method
        )
        record = EvaluationRecord(**artifacts.metrics)

        if shots > 0:
            result = estimate_logical_error_rate(
                artifacts.circuit,
                rounds=rounds,
                shots=shots,
                decoder=decoder,
                seed=self.seed,
            )
            record.shots = result.shots
            record.failures = result.failures
            record.ler_per_shot = result.per_shot
            record.ler_per_round = result.per_round
            record.extras.update(artifacts.extras)
        return record

    # ------------------------------------------------------------------
    # Figure-level sweeps
    # ------------------------------------------------------------------
    def sweep(self, spec, **runner_options) -> list[EvaluationRecord]:
        """Run a :class:`repro.engine.SweepSpec` grid through the engine.

        Unlike :meth:`evaluate` in a loop, the engine compiles each
        unique circuit's DEM / detector graph once, can shard shots
        over worker processes (``workers=N``), and can resume from a
        JSON-lines store (``results_path=...``) — see
        :class:`repro.engine.Runner` for the options.  The explorer's
        noise model is applied; the sweep's ``master_seed`` governs
        sampling.
        """
        if spec.code != self.code_name:
            raise ValueError(
                f"spec.code {spec.code!r} disagrees with this explorer's "
                f"code_name {self.code_name!r}; build the SweepSpec with "
                f"code={self.code_name!r}"
            )
        runner_options.setdefault("noise", self.noise)
        results = Runner(spec, **runner_options).run()
        return [record_from_job_result(r) for r in results]

    def sweep_distances(
        self,
        distances: list[int],
        shots: int = 0,
        **kwargs,
    ) -> list[EvaluationRecord]:
        return [self.evaluate(d, shots=shots, **kwargs) for d in distances]

    def ler_projection(
        self,
        distances: list[int],
        shots: int = 2000,
        **kwargs,
    ) -> tuple[list[EvaluationRecord], LerProjection]:
        """Measure small distances, fit the suppression model (Fig 10)."""
        records = self.sweep_distances(distances, shots=shots, **kwargs)
        points = [
            (r.distance, r.ler_per_round)
            for r in records
            if r.ler_per_round is not None
        ]
        return records, fit_projection(points)
