"""Design-space exploration toolflow (Figure 2).

``DesignSpaceExplorer.evaluate`` runs one design point through the
whole stack: compile -> schedule -> resource model -> (optionally)
noisy-circuit export, DEM extraction, decoding, LER estimate.  Every
estimate, single point or figure-level grid, is an engine sweep
(:class:`repro.engine.Runner`), so a design point's failure count
depends only on its job key and the explorer's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..engine.runner import Runner
from ..engine.sweep import SweepSpec
from ..ler.projection import LerProjection, fit_projection
from ..noise.parameters import DEFAULT_NOISE, NoiseParameters
from .records import EvaluationRecord


_RECORD_FIELDS = frozenset(f.name for f in fields(EvaluationRecord))
# evaluate()'s one-value keywords -> the SweepSpec axes they fill.
_AXES = {
    "capacity": "capacities",
    "topology": "topologies",
    "wiring": "wirings",
    "gate_improvement": "gate_improvements",
    "decoder": "decoders",
    "router": "routers",
}


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
        wiring: str = "standard",
        gate_improvement: float = 1.0,
        rounds: int | None = None,
        shots: int = 0,
        decoder: str = "mwpm",
        basis: str = "Z",
        router: str = "greedy",
    ) -> EvaluationRecord:
        """Run one design point through the Figure-2 pipeline.

        A one-job :meth:`sweep` seeded by the explorer's ``seed``: the
        record, failure count included, is the one a sweep over the
        same point returns.  ``shots=0`` compiles only.
        """
        [record] = self.sweep(self._spec(
            (distance,), shots, capacity=capacity, topology=topology,
            wiring=wiring, gate_improvement=gate_improvement,
            rounds=rounds, decoder=decoder, basis=basis, router=router,
        ))
        return record

    def _spec(self, distances, shots: int, **point) -> SweepSpec:
        """The sweep over ``distances`` of the one design point that
        ``point`` (:meth:`evaluate`'s keywords) names, seeded by the
        explorer's ``seed``."""
        axes = {_AXES.get(k, k): (v,) if k in _AXES else v
                for k, v in point.items()}
        return SweepSpec(code=self.code_name, distances=tuple(distances),
                         shots=shots, master_seed=self.seed, **axes)

    # ------------------------------------------------------------------
    # Figure-level sweeps
    # ------------------------------------------------------------------
    def sweep(self, spec, **runner_options) -> list[EvaluationRecord]:
        """Run a :class:`repro.engine.SweepSpec` grid through the engine.

        The engine compiles each unique circuit's DEM / detector graph
        once, can shard shots over worker processes (``workers=N``),
        and can resume from a JSON-lines store (``results_path=...``)
        — see :class:`repro.engine.Runner` for the options.  The explorer's
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

    def ler_projection(
        self,
        distances: list[int],
        shots: int = 2000,
        **kwargs,
    ) -> tuple[list[EvaluationRecord], LerProjection]:
        """Measure small distances, fit the suppression model (Fig 10).

        ``kwargs`` are :meth:`evaluate`'s design-point keywords; the
        distances run as one sweep, so each circuit compiles once.
        """
        records = self.sweep(self._spec(distances, shots, **kwargs))
        points = [
            (r.distance, r.ler_per_round)
            for r in records
            if r.ler_per_round is not None
        ]
        return records, fit_projection(points)
