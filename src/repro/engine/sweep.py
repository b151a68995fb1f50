"""Declarative Monte-Carlo sweep specifications.

Every figure in the paper is a grid over (code distance x noise point x
topology x decoder x ...).  A :class:`SweepSpec` names that grid once;
``expand()`` turns it into a deterministic, stably-ordered list of
:class:`SweepJob` atoms.  Each job carries a content-derived ``key`` so
result stores can resume across runs and caches can recognise repeated
work, and a ``circuit_params`` tuple identifying which jobs share one
compiled circuit (jobs differing only in decoder or shot count reuse
the same DEM and detector graph).
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, fields

_CODES = ("rotated_surface", "unrotated_surface", "repetition")
_TOPOLOGIES = ("grid", "linear", "switch")
_WIRINGS = ("standard", "wise")
_DECODERS = ("mwpm", "union_find")
_BASES = ("X", "Z")


class ForeignJobRecord(ValueError):
    """A well-formed job record this engine does not sample: one drawn
    by the removed frame sampler, from before the DEM sampler, or
    compiled with a removed placement strategy."""


@dataclass(frozen=True)
class SweepJob:
    """One atomic unit of sweep work: a single design point + decoder.

    A job is fully self-describing and picklable, so it can be shipped
    to worker processes, serialised into a JSON-lines result store, and
    reconstructed on resume.
    """

    code: str
    distance: int
    capacity: int
    topology: str
    wiring: str
    gate_improvement: float
    decoder: str
    rounds: int
    shots: int
    basis: str = "Z"
    # Adaptive shot allocation: when ``target_failures`` and/or
    # ``target_rel_stderr`` is set, ``shots`` is only the *initial
    # tranche* — the scheduler keeps sampling (up to ``max_shots``)
    # until the job has observed ``target_failures`` logical failures
    # or its estimate's relative standard error has fallen below
    # ``target_rel_stderr`` (a *precision* target), and retires it
    # early once it has.  ``None`` for both means classic fixed-shot
    # sampling.
    target_failures: int | None = None
    max_shots: int | None = None
    # Adaptive precision stopping (see above); excluded from the key
    # hash when unset, so keys from before it existed carry over.
    target_rel_stderr: float | None = None
    # Routing strategy (see repro.core.routing_base) used to compile
    # this design point.  Excluded from the key hash when
    # default-valued, so keys from before the strategy layer carry
    # over.
    router: str = "greedy"

    @property
    def adaptive(self) -> bool:
        return (
            self.target_failures is not None
            or self.target_rel_stderr is not None
        )

    @property
    def shot_cap(self) -> int:
        """The most shots this job may ever sample."""
        return self.max_shots if self.adaptive else self.shots

    @property
    def circuit_params(self) -> tuple:
        """The fields that determine the compiled noisy circuit.

        Decoder choice and shot budget do not change the circuit, so
        jobs agreeing on this tuple share one DEM / detector graph.
        """
        return (
            self.code,
            self.distance,
            self.capacity,
            self.topology,
            self.wiring,
            self.gate_improvement,
            self.rounds,
            self.basis,
            self.router,
        )

    @property
    def key(self) -> str:
        """Stable, human-scannable identity: label prefix + content hash.

        The hash covers :meth:`to_dict` (with its fixed ``"sampler":
        "dem"`` entry) minus the optional fields left at their
        defaults, so a job's key — and with it its shard RNG streams
        and stored results — does not move when a field is added.
        """
        content = self.to_dict()
        if not self.adaptive:
            del content["target_failures"], content["max_shots"]
        if self.target_rel_stderr is None:
            del content["target_rel_stderr"]
        if self.router == "greedy":
            del content["router"]
        payload = json.dumps(content, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
        budget = f"n{self.shots}"
        if self.adaptive:
            goals = []
            if self.target_failures is not None:
                goals.append(f"f{self.target_failures}")
            if self.target_rel_stderr is not None:
                goals.append(f"rse{self.target_rel_stderr:g}")
            budget = f"n{self.shots}-{'-'.join(goals)}of{self.max_shots}"
        # A non-default router surfaces in the label (default-router
        # labels — like their hashes — are byte-for-byte pre-strategy).
        strategy = f"-{self.router}" if self.router != "greedy" else ""
        return (
            f"{self.code}-d{self.distance}-c{self.capacity}-{self.topology}"
            f"-{self.wiring}{strategy}-x{self.gate_improvement:g}-{self.decoder}"
            f"-r{self.rounds}-{budget}-{digest}"
        )

    def to_dict(self) -> dict:
        """The job's fields, with the fixed ``"sampler": "dem"`` entry
        after ``max_shots`` (where the field used to sit), so store
        lines and key payloads keep their established layout."""
        data = {}
        for f in fields(self):
            data[f.name] = getattr(self, f.name)
            if f.name == "max_shots":
                data["sampler"] = "dem"
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SweepJob":
        """Rebuild a job from :meth:`to_dict` output.

        Raises :class:`ForeignJobRecord` unless the record says
        ``"sampler": "dem"``: a frame-sampled record (or one from before
        the DEM sampler, which has no sampler field) would otherwise
        come back as a DEM job with the DEM job's key, and resume would
        credit its counts to an experiment that never ran.  For the
        same reason it refuses a record whose ``"placer"`` names a
        removed placement strategy; older records carrying
        ``"placer": "projection"`` load under their old key.
        """
        if data.get("sampler") != "dem":
            raise ForeignJobRecord(
                f"not a DEM-sampled job record (sampler="
                f"{data.get('sampler')!r})")
        if data.get("placer", "projection") != "projection":
            raise ForeignJobRecord(
                f"job record placed by a removed strategy "
                f"(placer={data['placer']!r})")
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of design points to evaluate.

    ``expand()`` iterates the axes in declaration order (distance
    outermost, decoder innermost), which fixes the job order across
    runs — the property resume and progress reporting rely on.
    ``rounds=None`` means "rounds = distance" per job, matching the
    paper's memory experiments.
    """

    distances: tuple[int, ...]
    code: str = "rotated_surface"
    capacities: tuple[int, ...] = (2,)
    topologies: tuple[str, ...] = ("grid",)
    wirings: tuple[str, ...] = ("standard",)
    gate_improvements: tuple[float, ...] = (1.0,)
    decoders: tuple[str, ...] = ("mwpm",)
    rounds: int | None = None
    shots: int = 2000
    basis: str = "Z"
    master_seed: int = 2026
    # Adaptive shot allocation (see SweepJob): sample each design
    # point until it shows ``target_failures`` failures and/or until
    # ``stderr / ler`` drops below ``target_rel_stderr``, spending at
    # most ``max_shots``; ``shots`` is the initial tranche every job is
    # guaranteed before freed budget is reinvested in noisy points.
    # ``max_shots`` defaults to 100 tranches when left unset.
    target_failures: int | None = None
    max_shots: int | None = None
    # Adaptive *precision* stopping: retire a design point once the
    # relative standard error of its per-shot LER estimate falls below
    # this bound (e.g. 0.1 for ~10% error bars).
    target_rel_stderr: float | None = None
    # Routing strategies to grid over (names resolved against the
    # repro.core router registry).
    routers: tuple[str, ...] = ("greedy",)

    def __post_init__(self):
        for name in ("distances", "capacities", "topologies", "wirings",
                     "gate_improvements", "decoders", "routers"):
            value = tuple(getattr(self, name))
            if not value:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, value)
        if self.code not in _CODES:
            raise ValueError(f"unknown code {self.code!r}; expected one of {_CODES}")
        for topo in self.topologies:
            if topo not in _TOPOLOGIES:
                raise ValueError(
                    f"unknown topology {topo!r}; expected one of {_TOPOLOGIES}")
        for wiring in self.wirings:
            if wiring not in _WIRINGS:
                raise ValueError(
                    f"unknown wiring {wiring!r}; expected one of {_WIRINGS}")
        for dec in self.decoders:
            if dec not in _DECODERS:
                raise ValueError(
                    f"unknown decoder {dec!r}; expected one of {_DECODERS}")
        if self.basis not in _BASES:
            raise ValueError(
                f"unknown basis {self.basis!r}; expected one of {_BASES}")
        # Router names validate against the live registry (local
        # import: the spec layer stays cheap to import, and routers
        # registered by user code are honoured).
        from ..core import available_routers

        for router in self.routers:
            if router not in available_routers():
                raise ValueError(
                    f"unknown router {router!r}; expected one of "
                    f"{available_routers()}")
        if any(d < 2 for d in self.distances):
            raise ValueError("distances must be >= 2")
        # Checked here, not when the job compiles: a bad value would
        # otherwise surface mid-sweep, after earlier jobs already ran.
        if any(c < 2 for c in self.capacities):
            raise ValueError("capacities must be >= 2")
        if any(g < 1 for g in self.gate_improvements):
            raise ValueError("gate_improvements must be >= 1")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("rounds must be positive (or None for rounds=distance)")
        if self.shots < 0:
            raise ValueError("shots must be non-negative (0 = compile-only)")
        if not isinstance(self.master_seed, numbers.Integral) or self.master_seed < 0:
            raise ValueError("master_seed must be a non-negative integer")
        adaptive = (
            self.target_failures is not None
            or self.target_rel_stderr is not None
        )
        if not adaptive:
            if self.max_shots is not None:
                raise ValueError(
                    "max_shots requires target_failures or target_rel_stderr "
                    "(adaptive mode)"
                )
        else:
            if self.target_failures is not None and self.target_failures < 1:
                raise ValueError("target_failures must be positive")
            if self.target_rel_stderr is not None and self.target_rel_stderr <= 0:
                raise ValueError("target_rel_stderr must be positive")
            if self.shots < 1:
                raise ValueError("adaptive mode needs shots > 0 (the initial tranche)")
            if self.max_shots is None:
                object.__setattr__(self, "max_shots", 100 * self.shots)
            if self.max_shots < self.shots:
                raise ValueError("max_shots must be >= shots (the initial tranche)")

    @property
    def num_jobs(self) -> int:
        return (
            len(self.distances) * len(self.capacities) * len(self.topologies)
            * len(self.wirings) * len(self.routers)
            * len(self.gate_improvements) * len(self.decoders)
        )

    def expand(self) -> list[SweepJob]:
        """The deterministic job list for this grid."""
        jobs = []
        for d in self.distances:
            for cap in self.capacities:
                for topo in self.topologies:
                    for wiring in self.wirings:
                        for router in self.routers:
                            for improvement in self.gate_improvements:
                                for decoder in self.decoders:
                                    jobs.append(SweepJob(
                                        code=self.code,
                                        distance=d,
                                        capacity=cap,
                                        topology=topo,
                                        wiring=wiring,
                                        gate_improvement=improvement,
                                        decoder=decoder,
                                        rounds=self.rounds if self.rounds is not None else d,
                                        shots=self.shots,
                                        basis=self.basis,
                                        target_failures=self.target_failures,
                                        max_shots=self.max_shots,
                                        target_rel_stderr=self.target_rel_stderr,
                                        router=router,
                                    ))
        return jobs
