"""Content-addressed compilation cache for sweep execution.

DEM extraction and detector-graph construction dominate the fixed
cost of a Monte-Carlo point, and a sweep revisits the same circuit
many times (one circuit per design point, shared by every decoder and
every shot shard).  The cache keys compiled artefacts
by a stable hash of the circuit *text* — the same serialisation that
round-trips through :mod:`repro.sim.text_format` — so identical
circuits hit regardless of how they were built.  Content addressing is
also what keeps the cache correct across routing strategies: jobs
differing in ``router`` compile different circuits and hash to
different keys automatically, while routers that happen to produce
identical circuits share one entry — no strategy field is (or needs
to be) part of the key.

Two layers:

- in-memory: ``circuit key -> CompiledCircuit`` (DEM + detector graph),
  plus memoised decoder instances per (circuit, decoder name) and the
  bit-packed :class:`~repro.sim.dem_sampler.DemSampler` per circuit;
- on-disk (optional ``cache_dir``): both merged DEMs as JSON — the
  graphlike decoder-side model (``.dem.json``) and the exact
  sampler-side model (``.sdem.json``) — so a fresh process (a resumed
  run) skips DEM extraction entirely.

MWPM's all-pairs shortest paths are not cached here: the detector
graph computes them once, on first use
(:meth:`~repro.decoders.graph.DetectorGraph.shortest_paths`), and
every decoder built on the graph shares them.  Distance-matrix
``.npz`` files that older versions wrote into a cache directory are
neither read nor evicted; they can be deleted.

The on-disk layer can be size-bounded (``max_disk_mb``): after every
write the least-recently-used entries are evicted until the directory
fits, and reads refresh an entry's recency, so a long-lived shared
cache keeps the circuits that sweeps actually revisit.

Counters (``hits`` / ``misses`` / ``disk_hits`` / ``evictions``) are
exposed so tests can assert each unique circuit is compiled exactly
once per sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from ..decoders import make_decoder
from ..decoders.graph import DetectorGraph
from ..sim.circuit import StabilizerCircuit
from ..sim.dem import DemError, DetectorErrorModel, circuit_to_dems
from ..sim.dem_sampler import DemSampler
from ..telemetry import span

# Disk-cache entry suffixes, in eviction scope: the graphlike
# (decoder-side) DEM and the exact (sampler-side) DEM.
_DISK_SUFFIXES = (".dem.json", ".sdem.json")


def circuit_key(text: str) -> str:
    """Content hash identifying a circuit by its text serialisation."""
    return hashlib.sha256(text.encode()).hexdigest()


def dem_to_jsonable(dem: DetectorErrorModel) -> dict:
    """JSON-safe representation of a detector error model."""
    return {
        "num_detectors": dem.num_detectors,
        "num_observables": dem.num_observables,
        "errors": [
            [[int(d) for d in err.detectors],
             [int(o) for o in err.observables],
             float(err.probability)]
            for err in dem.errors
        ],
    }


def dem_from_jsonable(data: dict) -> DetectorErrorModel:
    """Inverse of :func:`dem_to_jsonable`."""
    errors = [
        DemError(tuple(dets), tuple(obs), float(p))
        for dets, obs, p in data["errors"]
    ]
    return DetectorErrorModel(
        int(data["num_detectors"]), int(data["num_observables"]), errors
    )


@dataclass
class CompiledCircuit:
    """One circuit's cached compilation artefacts.

    ``dem`` is the graphlike model the decoders consume: every exact
    symptom projected onto the detectors of the observable's basis,
    which the circuit text names in its ``DETECTOR[X]`` /
    ``DETECTOR[Z]`` tags (see :func:`~repro.sim.dem.circuit_to_dems`).
    ``sampling_dem`` is the exact model the DEM-direct sampler draws
    from — splitting or projecting hyperedges before sampling would
    decorrelate detector flips that co-occur physically.  Both are
    keyed on the circuit text, tags included, so a model extracted
    under other tags is never served for this circuit.
    """

    key: str
    circuit: StabilizerCircuit
    dem: DetectorErrorModel
    sampling_dem: DetectorErrorModel
    graph: DetectorGraph


@dataclass
class CompilationCache:
    """In-memory + on-disk cache of DEMs and graphs, plus in-memory
    decoders and DEM samplers."""

    cache_dir: str | None = None
    # On-disk size bound in megabytes (None = unbounded).  Enforced by
    # LRU eviction over the cache files after every write.
    max_disk_mb: float | None = None

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0

    _compiled: dict[str, CompiledCircuit] = field(default_factory=dict, repr=False)
    _decoders: dict[tuple[str, str], object] = field(default_factory=dict, repr=False)
    _samplers: dict[str, DemSampler] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.max_disk_mb is not None and self.max_disk_mb <= 0:
            raise ValueError("max_disk_mb must be positive (or None)")
        if self.cache_dir:
            os.makedirs(self.cache_dir, exist_ok=True)

    # ------------------------------------------------------------------
    def compiled(self, circuit: StabilizerCircuit, text: str | None = None) -> CompiledCircuit:
        """The DEM + detector graph for ``circuit``, compiling at most once."""
        if text is None:
            text = str(circuit)
        key = circuit_key(text)
        entry = self._compiled.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        dem = self._load_dem(key, ".dem.json")
        sampling_dem = self._load_dem(key, ".sdem.json")
        if dem is not None and sampling_dem is not None:
            self.disk_hits += 1
        else:
            self.misses += 1
            with span("dem"):
                sampling_dem, dem = circuit_to_dems(circuit)
            self._store_dem(key, ".dem.json", dem)
            self._store_dem(key, ".sdem.json", sampling_dem)
        entry = CompiledCircuit(
            key=key,
            circuit=circuit,
            dem=dem,
            sampling_dem=sampling_dem,
            graph=DetectorGraph.from_dem(dem),
        )
        self._compiled[key] = entry
        return entry

    def decoder(self, compiled: CompiledCircuit, name: str):
        """A decoder for ``compiled``, constructed at most once per name."""
        memo_key = (compiled.key, name)
        dec = self._decoders.get(memo_key)
        if dec is None:
            dec = make_decoder(compiled.graph, name)
            self._decoders[memo_key] = dec
        return dec

    def dem_sampler(self, compiled: CompiledCircuit) -> DemSampler:
        """The bit-packed DEM-direct sampler, compiled at most once.

        Built from the *exact* DEM: correlations between the detectors
        of one mechanism are physical and must survive sampling.
        """
        sampler = self._samplers.get(compiled.key)
        if sampler is None:
            sampler = DemSampler(compiled.sampling_dem)
            self._samplers[compiled.key] = sampler
        return sampler

    # ------------------------------------------------------------------
    @property
    def unique_circuits(self) -> int:
        return len(self._compiled)

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "unique_circuits": self.unique_circuits,
        }

    # ------------------------------------------------------------------
    def _entry_path(self, key: str, suffix: str) -> str | None:
        if not self.cache_dir:
            return None
        return os.path.join(self.cache_dir, f"{key}{suffix}")

    @staticmethod
    def _touch(path: str) -> None:
        """Refresh an entry's recency so LRU eviction spares it."""
        try:
            os.utime(path)
        except OSError:
            pass

    def _load_dem(self, key: str, suffix: str) -> DetectorErrorModel | None:
        path = self._entry_path(key, suffix)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                dem = dem_from_jsonable(json.load(fh))
        except (OSError, ValueError, KeyError):
            return None  # corrupt entry: fall through to recompilation
        self._touch(path)
        return dem

    def _store_dem(self, key: str, suffix: str, dem: DetectorErrorModel) -> None:
        path = self._entry_path(key, suffix)
        if path is None:
            return
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(dem_to_jsonable(dem), fh)
        os.replace(tmp, path)
        self._evict()

    def _evict(self) -> None:
        """Drop least-recently-used disk entries until under the bound."""
        if not self.cache_dir or self.max_disk_mb is None:
            return
        entries = []
        for name in os.listdir(self.cache_dir):
            if not name.endswith(_DISK_SUFFIXES):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((st.st_mtime_ns, st.st_size, path))
        budget = int(self.max_disk_mb * 1024 * 1024)
        total = sum(size for _, size, _ in entries)
        entries.sort()  # oldest first
        for _, size, path in entries:
            if total <= budget:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            self.evictions += 1
