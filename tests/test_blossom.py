"""The in-repo blossom matcher against networkx, the optimum and real traffic.

``repro.decoders.blossom`` ports networkx's ``max_weight_matching``
(float path, maximum cardinality) onto a dense weight matrix, keeping
its iteration orders so weight ties break the same way.  The decoder's
failure counts depend on *which* optimal matching comes back, so these
tests compare matching sets, not weights:

- a differential suite on seeded and hypothesis-drawn clusters against
  the networkx construction the decoder used before (kept here as the
  oracle; networkx is a test-only dependency of ``repro.decoders``);
- an optimality check against the exact subset DP, no networkx;
- every blossom cluster of the ``ler_decode_bound`` perfbench mwpm job,
  whose failure count is pinned here and must pass perfbench's own
  consistency check against ``perfbench/reference.json``;
- a guard that no decoder module imports networkx.
"""

from __future__ import annotations

import ast
import importlib.util
import json
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decoders import mwpm
from repro.decoders.blossom import max_weight_matching
from repro.engine import SweepSpec, run_sweep

REPO = Path(__file__).resolve().parents[1]
INF = float("inf")


def _nx_blossom_match(db: np.ndarray, dd: np.ndarray) -> list[tuple[int, int]]:
    """The decoder's former networkx blossom fallback, verbatim."""
    k = len(db)
    via_boundary = db[:, None] + db[None, :]
    weights = np.minimum(dd, via_boundary)
    match_graph = nx.Graph()
    for i in range(k):
        for j in range(i + 1, k):
            if np.isfinite(weights[i, j]):
                match_graph.add_edge(i, j, weight=-weights[i, j])
        if k % 2 and np.isfinite(db[i]):
            match_graph.add_edge(i, k, weight=-db[i])
    matching = nx.max_weight_matching(match_graph, maxcardinality=True)
    pairs: list[tuple[int, int]] = []
    for a, b in matching:
        if a > b:
            a, b = b, a
        if b == k:
            pairs.append((a, -1))
        elif dd[a, b] <= via_boundary[a, b]:
            pairs.append((a, b))
        else:
            pairs.append((a, -1))
            pairs.append((b, -1))
    return pairs


def _assert_same_pairs(db: np.ndarray, dd: np.ndarray) -> None:
    got = sorted(mwpm._blossom_match(db, dd))
    want = sorted(_nx_blossom_match(db, dd))
    assert got == want, (db.tolist(), dd.tolist())


def _cluster(rng, k: int, mode: str, p_inf: float = 0.0):
    """Random ``(db, dd)``: symmetric pair distances, boundary distances.

    ``mode`` is ``"continuous"`` (uniform floats) or ``"ties"`` (floats
    holding small integers, so many matchings tie on weight).
    ``p_inf`` blanks that share of entries to ``inf``.
    """
    if mode == "continuous":
        db = rng.uniform(0.5, 12.0, k)
        dd = rng.uniform(0.5, 12.0, (k, k))
    else:
        db = rng.integers(1, 5, k).astype(float)
        dd = rng.integers(1, 5, (k, k)).astype(float)
    dd = np.triu(dd, 1)
    dd = dd + dd.T
    if p_inf:
        db[rng.random(k) < p_inf] = INF
        blank = np.triu(rng.random((k, k)) < p_inf, 1)
        dd[blank | blank.T] = INF
    np.fill_diagonal(dd, 0.0)
    return db, dd


class TestDifferential:
    @pytest.mark.parametrize("mode", ["continuous", "ties"])
    def test_seeded_sizes_1_to_30(self, mode):
        rng = np.random.default_rng(2026)
        for k in range(1, 31):
            for p_inf in (0.0, 0.0, 0.3):
                _assert_same_pairs(*_cluster(rng, k, mode, p_inf))

    def test_sparse_inf_clusters(self):
        # Mostly-absent edges: boundary-less nodes whose every pair
        # distance is also infinite drop out of the graph entirely.
        rng = np.random.default_rng(7)
        for k in range(1, 31):
            for mode in ("continuous", "ties"):
                _assert_same_pairs(*_cluster(rng, k, mode, 0.8))

    def test_isolated_nodes(self):
        rng = np.random.default_rng(11)
        for k in (4, 5, 12, 13):
            db, dd = _cluster(rng, k, "ties")
            for i in (0, k // 2):
                db[i] = INF
                dd[i, :] = dd[:, i] = INF
                dd[i, i] = 0.0
            pairs = mwpm._blossom_match(db, dd)
            assert all(0 not in p for p in pairs)
            _assert_same_pairs(db, dd)

    def test_unmatchable_virtual_node(self):
        # Odd cluster with no finite boundary distance: the virtual
        # boundary node has no edge and stays out of the graph.
        rng = np.random.default_rng(13)
        for k in (1, 3, 11, 15, 29):
            for mode in ("continuous", "ties"):
                db, dd = _cluster(rng, k, mode)
                db[:] = INF
                _assert_same_pairs(db, dd)
        assert mwpm._blossom_match(np.array([INF]), np.zeros((1, 1))) == []

    def test_all_equal_weights(self):
        for k in range(1, 21):
            _assert_same_pairs(np.ones(k), np.ones((k, k)))

    @given(
        k=st.integers(1, 14),
        mode=st.sampled_from(["continuous", "ties"]),
        p_inf=st.sampled_from([0.0, 0.2, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_seeded_clusters(self, k, mode, p_inf, seed):
        _assert_same_pairs(*_cluster(np.random.default_rng(seed), k, mode, p_inf))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_drawn_entries(self, data):
        k = data.draw(st.integers(1, 9))
        entry = st.sampled_from([1.0, 2.0, 3.0, 0.5, INF])
        db = np.array(data.draw(st.lists(entry, min_size=k, max_size=k)))
        upper = data.draw(
            st.lists(entry, min_size=k * (k - 1) // 2, max_size=k * (k - 1) // 2)
        )
        dd = np.zeros((k, k))
        dd[np.triu_indices(k, 1)] = upper
        dd = dd + dd.T
        _assert_same_pairs(db, dd)

    def test_matcher_on_raw_matrices(self):
        # The matcher itself, on weights of either sign, against
        # networkx fed the same add_edge sequence.
        rng = np.random.default_rng(3)
        for k in range(1, 25):
            w = rng.integers(-3, 4, (k, k)).astype(float)
            w[rng.random((k, k)) < 0.25] = -INF
            w = np.triu(w, 1)
            w = w + w.T
            graph = nx.Graph()
            for i in range(k):
                for j in range(i + 1, k):
                    if np.isfinite(w[i, j]):
                        graph.add_edge(i, j, weight=w[i, j])
            want = {
                tuple(sorted(e))
                for e in nx.max_weight_matching(graph, maxcardinality=True)
            }
            mate = max_weight_matching(w)
            got = {(v, m) for v, m in enumerate(mate) if m > v}
            assert got == want
            assert all(mate[m] == v for v, m in enumerate(mate) if m >= 0)


def _pairs_weight(pairs, db, dd) -> float:
    return sum(db[i] if j < 0 else dd[i, j] for i, j in pairs)


@pytest.mark.parametrize("mode", ["continuous", "ties"])
def test_blossom_weight_equals_subset_dp_optimum(mode):
    # All boundary distances finite, so the halved construction always
    # has a perfect matching and both solvers see the same problem.
    rng = np.random.default_rng(99)
    for k in range(1, 11):
        for p_inf in (0.0, 0.4):
            for _ in range(6):
                db, dd = _cluster(rng, k, mode, 0.0)
                blank = np.triu(rng.random((k, k)) < p_inf, 1)
                dd[blank | blank.T] = INF
                pairs = mwpm._blossom_match(db, dd)
                assert sorted(i for p in pairs for i in p if i >= 0) == list(
                    range(k)
                )
                best = _pairs_weight(mwpm._dp_match(db, dd), db, dd)
                assert abs(_pairs_weight(pairs, db, dd) - best) <= 1e-9


def _perfbench_run(monkeypatch):
    """perfbench's ``run.py`` as a module (it imports its siblings)."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", REPO / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ler_decode_bound_mwpm_clusters_and_failures(monkeypatch):
    """Every blossom cluster of the near-threshold perfbench mwpm job
    matches as networkx would, and the job's count passes perfbench's
    check against the reference."""
    clusters: list[tuple[np.ndarray, np.ndarray]] = []
    solve = mwpm._blossom_match

    def recording(db, dd):
        clusters.append((db.copy(), dd.copy()))
        return solve(db, dd)

    monkeypatch.setattr(mwpm, "_blossom_match", recording)
    spec = SweepSpec(distances=(5,), gate_improvements=(1.0,),
                     decoders=("mwpm",), shots=1024, master_seed=2026)
    (result,) = run_sweep(spec)
    reference = json.loads((REPO / "perfbench" / "reference.json").read_text())
    assert reference["seed"] == 2026
    ler_consistent = _perfbench_run(monkeypatch).ler_consistent
    assert ler_consistent(result.shots, result.failures,
                          reference["ler_decode_bound"][result.key])
    assert (result.shots, result.failures) == (1024, 20)
    assert len(clusters) == 28
    assert min(len(db) for db, _ in clusters) >= 11
    assert max(len(db) for db, _ in clusters) == 16
    for db, dd in clusters:
        assert sorted(solve(db, dd)) == sorted(_nx_blossom_match(db, dd))


def test_decoders_do_not_import_networkx():
    offenders = []
    for path in sorted((REPO / "src" / "repro" / "decoders").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n == "networkx" or n.startswith("networkx.") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"networkx imported by decoders: {offenders}"
