"""Placement pass: cluster code qubits and map clusters to traps.

Following Sec. 4.2: qubits are partitioned into balanced clusters of
``capacity - 1`` (one slot per trap stays free for visiting ions) by a
top-down regular partition of the code layout, and the clusters are
projected onto the traps: a minimum-cost assignment (Hungarian
algorithm) of cluster centroids to trap sites on normalised geometric
distance.  The shortest-augmenting-path solver in :mod:`.assignment`
(a port of scipy's, returning its assignment) is the polynomial-time
equivalent of the paper's subset-enumeration + Hungarian scheme.

Devices are built to fit the workload: for capacity 2 on a grid the
trap sites exactly tile the code layout (the dedicated logical-qubit
tile a hardware designer would produce); larger clusters get a
near-square band grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..arch.device import QCCDDevice
from ..arch.topologies import grid_device_from_sites, linear_device, switch_device
from ..codes.base import StabilizerCode
from ..codes.rectangular import RectangularRotatedCode
from ..codes.rotated_surface import RotatedSurfaceCode
from .assignment import linear_sum_assignment


@dataclass
class Placement:
    """Result of the placement pass."""

    device: QCCDDevice
    qubit_to_trap: dict[int, int]
    trap_chains: dict[int, list[int]]   # initial chain order per trap


def layout_positions(code: StabilizerCode) -> dict[int, tuple[float, float]]:
    """Code-qubit positions in *router frame* coordinates.

    The rotated surface code's interaction graph is a unit grid only
    after a 45-degree rotation ((x+y)/2, (x-y)/2); other codes already
    live on a unit-ish grid.
    """
    if isinstance(code, (RotatedSurfaceCode, RectangularRotatedCode)):
        return {
            q.index: ((q.pos[0] + q.pos[1]) / 2.0, (q.pos[0] - q.pos[1]) / 2.0)
            for q in code.qubits
        }
    return {q.index: (q.pos[0] / 2.0, q.pos[1] / 2.0) for q in code.qubits}


def partition_qubits(code: StabilizerCode, cluster_size: int) -> list[list[int]]:
    """Top-down regular partition into balanced clusters.

    ``cluster_size == 1`` keeps qubits as singletons (capacity-2
    devices).  Otherwise qubits are sliced into near-square bands by
    the router-frame coordinates — the recursive-bisection equivalent
    for grid-like codes, preserving neighbourhoods (Figure 6).
    """
    if cluster_size < 1:
        raise ValueError("cluster size must be positive")
    pos = layout_positions(code)
    order = sorted(pos, key=lambda q: (pos[q][1], pos[q][0]))
    if cluster_size == 1:
        return [[q] for q in order]
    k = math.ceil(len(order) / cluster_size)

    def build(rows: int) -> list[list[int]]:
        clusters: list[list[int]] = []
        bands = _split_even(order, rows)
        per_band = _spread(k, len(bands))
        for band, n_clusters in zip(bands, per_band):
            band_sorted = sorted(band, key=lambda q: (pos[q][0], pos[q][1]))
            clusters.extend(_split_even(band_sorted, n_clusters))
        return [c for c in clusters if c]

    # Try band counts around sqrt(k) and keep the most balanced tiling
    # (ties broken towards square-ish bands for locality).
    target = max(1, round(math.sqrt(k)))
    best = None
    best_key = None
    for rows in range(1, min(k, target + 2) + 1):
        clusters = build(rows)
        sizes = [len(c) for c in clusters]
        if max(sizes) > cluster_size:
            continue
        key = (max(sizes) - min(sizes), abs(rows - target))
        if best_key is None or key < best_key:
            best, best_key = clusters, key
    assert best is not None  # rows=1 always yields sizes within bounds
    return best


def _split_even(items: list, parts: int) -> list[list]:
    """Split into ``parts`` contiguous chunks differing by at most one."""
    parts = max(1, min(parts, len(items)))
    base, extra = divmod(len(items), parts)
    out = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append(items[start:start + size])
        start += size
    return out

def _spread(total: int, bins: int) -> list[int]:
    base, extra = divmod(total, bins)
    return [base + (1 if i < extra else 0) for i in range(bins)]


def build_device_for(
    code: StabilizerCode, capacity: int, topology: str
) -> tuple[QCCDDevice, list[list[int]]]:
    """Device sized for the code plus the clusters it will host."""
    clusters = partition_qubits(code, capacity - 1)
    k = len(clusters)
    if topology == "linear":
        return linear_device(k, capacity), clusters
    if topology == "switch":
        return switch_device(k, capacity), clusters
    if topology == "grid":
        pos = layout_positions(code)
        if capacity == 2:
            sites = [
                (round(pos[c[0]][0]), round(pos[c[0]][1])) for c in clusters
            ]
            # Degenerate collinear layouts (repetition code) keep a grid
            # of distinct sites automatically.
            if len(set(sites)) == len(sites):
                return grid_device_from_sites(sites, capacity), clusters
        rows = max(1, round(math.sqrt(k)))
        cols = math.ceil(k / rows)
        sites = []
        for i in range(k):
            sites.append((i % cols, i // cols))
        return grid_device_from_sites(sites, capacity), clusters
    raise ValueError(f"unknown topology {topology!r}")


def place(
    code: StabilizerCode,
    capacity: int,
    topology: str,
    device: QCCDDevice | None = None,
) -> Placement:
    """Cluster qubits, build the device, project clusters onto traps."""
    if capacity < 2:
        raise ValueError("trap capacity must be at least 2")
    if device is None:
        device, clusters = build_device_for(code, capacity, topology)
    else:
        clusters = partition_qubits(code, capacity - 1)
    # Validate up front: the failure mode is otherwise an opaque shape
    # error deep inside the assignment solver.
    if len(clusters) > len(device.traps):
        raise ValueError(
            f"cannot place {code.name} code with {code.num_qubits} qubits "
            f"(distance {code.distance}) on a {len(device.traps)}-trap "
            f"device at trap capacity {capacity}: {len(clusters)} clusters "
            f"of up to {capacity - 1} resident ion(s) need "
            f"{len(clusters)} traps"
        )
    pos = layout_positions(code)
    traps = device.traps
    # Normalise both point sets to the unit square so the metric is
    # scale-free, then assign at minimum total squared distance.
    cost = _assignment_cost(
        _centroids(clusters, pos), np.array([t.pos for t in traps])
    )
    rows, cols = linear_sum_assignment(cost)
    qubit_to_trap: dict[int, int] = {}
    trap_chains: dict[int, list[int]] = {}
    for cluster_idx, trap_idx in zip(rows, cols):
        cluster = clusters[cluster_idx]
        trap_id = traps[trap_idx].id
        trap_chains[trap_id] = sorted(cluster, key=lambda q: (pos[q][0], pos[q][1]))
        for q in cluster:
            qubit_to_trap[q] = trap_id
    return Placement(device, qubit_to_trap, trap_chains)


def _centroids(
    clusters: list[list[int]], pos: dict[int, tuple[float, float]]
) -> np.ndarray:
    return np.array(
        [
            [
                sum(pos[q][0] for q in cluster) / len(cluster),
                sum(pos[q][1] for q in cluster) / len(cluster),
            ]
            for cluster in clusters
        ]
    )


def _assignment_cost(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    a = _normalise(points_a)
    b = _normalise(points_b)
    diff = a[:, None, :] - b[None, :, :]
    return (diff ** 2).sum(axis=2)


def _normalise(points: np.ndarray) -> np.ndarray:
    points = points.astype(float)
    span = points.max(axis=0) - points.min(axis=0)
    span[span == 0] = 1.0
    return (points - points.min(axis=0)) / span
