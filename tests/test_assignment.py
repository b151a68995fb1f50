"""The in-repo assignment solver against scipy's, and the import path it frees.

``repro.core.assignment`` ports scipy's ``rectangular_lsap.cpp`` so
placement does not import ``scipy.optimize``.  A placement depends on
*which* optimal assignment comes back, so these tests compare the
returned ``(rows, cols)`` exactly against scipy (kept here as the
oracle; scipy.optimize is a test-only dependency of ``repro``):

- hypothesis-drawn float, small-integer, constant and partly infinite
  matrices, square and wide;
- the cost matrix of every rotated-surface placement at d=3/5/7 x
  capacity 2/5/12 x grid/switch/linear;
- the errors: tall, NaN, -inf and infeasible matrices;
- a guard that importing the package loads neither networkx nor
  scipy, and that compile-only and sampling sweeps need no scipy at all.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment as scipy_lsa

from repro.codes import RotatedSurfaceCode
from repro.core.assignment import linear_sum_assignment
from repro.core.place import (
    _assignment_cost,
    _centroids,
    build_device_for,
    layout_positions,
)
from repro.engine import Runner, SweepSpec

REPO = Path(__file__).resolve().parents[1]
INF = float("inf")


def _assert_same_as_scipy(cost):
    rows, cols = scipy_lsa(cost)
    assert linear_sum_assignment(cost) == (rows.tolist(), cols.tolist())


@st.composite
def _matrices(draw, elements):
    rows = draw(st.integers(0, 7))
    cols = rows + draw(st.integers(0, 4))
    values = draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=float).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(_matrices(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))
def test_float_matrices(cost):
    _assert_same_as_scipy(cost)


@settings(max_examples=300, deadline=None)
@given(_matrices(st.integers(0, 3)))
def test_small_integer_matrices(cost):
    """Many ties: the free-column tie rule decides the answer."""
    _assert_same_as_scipy(cost)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 8), st.integers(0, 4), st.floats(-10, 10))
def test_constant_matrices(rows, extra, value):
    cost = np.full((rows, rows + extra), value)
    _assert_same_as_scipy(cost)
    # The reverse-order scan assigns the identity.
    assert linear_sum_assignment(cost)[1] == list(range(rows))


@settings(max_examples=200, deadline=None)
@given(_matrices(st.one_of(st.integers(0, 5), st.just(INF))))
def test_partly_infinite_matrices(cost):
    """Infinite entries forbid a pairing; both solvers agree on whether
    any finite assignment is left, and on which one."""
    try:
        rows, cols = scipy_lsa(cost)
    except ValueError:
        with pytest.raises(ValueError):
            linear_sum_assignment(cost)
    else:
        assert linear_sum_assignment(cost) == (rows.tolist(), cols.tolist())


@pytest.mark.parametrize("topology", ["grid", "switch", "linear"])
@pytest.mark.parametrize("capacity", [2, 5, 12])
@pytest.mark.parametrize("distance", [3, 5, 7])
def test_placement_cost_matrices(distance, capacity, topology):
    """The matrices ``place()`` solves, built the way it does."""
    code = RotatedSurfaceCode(distance)
    device, clusters = build_device_for(code, capacity, topology)
    centroids = _centroids(clusters, layout_positions(code))
    cost = _assignment_cost(centroids, np.array([t.pos for t in device.traps]))
    _assert_same_as_scipy(cost)


def test_more_rows_than_columns_rejected():
    # scipy would solve the transpose; placement never has more
    # clusters than traps, so the port refuses instead.
    with pytest.raises(ValueError, match="more rows"):
        linear_sum_assignment(np.zeros((3, 2)))


def test_infeasible_row_rejected():
    cost = np.array([[1.0, 2.0, 3.0], [INF, INF, INF]])
    with pytest.raises(ValueError):
        scipy_lsa(cost)
    with pytest.raises(ValueError, match="infeasible"):
        linear_sum_assignment(cost)


@pytest.mark.parametrize("bad", [float("nan"), -INF])
def test_invalid_entries_rejected(bad):
    cost = np.array([[1.0, bad], [0.0, 1.0]])
    with pytest.raises(ValueError):
        scipy_lsa(cost)
    with pytest.raises(ValueError, match="invalid"):
        linear_sum_assignment(cost)


def _run_script(script: str) -> str:
    path = os.environ.get("PYTHONPATH")
    src = str(REPO / "src")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout


def test_runtime_imports_skip_networkx_and_scipy_optimize():
    """The package, the engine and the CLI start without networkx or
    scipy (each cost ~0.2-0.6 s of start-up), and neither a
    compile-only sweep nor a sampling one that decodes with mwpm and
    union_find loads any scipy module."""
    script = (
        "import sys\n"
        "import repro, repro.engine, repro.toolflow.cli\n"
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('networkx', 'scipy')))\n"
        "from repro.engine import Runner, SweepSpec\n"
        "Runner(SweepSpec(distances=(3,), rounds=2, shots=0)).run()\n"
        "Runner(SweepSpec(distances=(3,), rounds=2, shots=200,\n"
        "                 decoders=('mwpm', 'union_find'))).run()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _run_script(script).splitlines() == ["[]", "[]"]


def test_compile_only_sweep_runs_with_scipy_blocked():
    """With every scipy import refused, a compile-only sweep returns
    the same round time, and a sampling sweep the same shots and
    failures per decoder, as an unblocked run."""
    sampling = dict(distances=(3,), rounds=2, shots=2000,
                    decoders=("mwpm", "union_find"))
    [expected] = Runner(SweepSpec(distances=(3,), rounds=2, shots=0)).run()
    sampled = Runner(SweepSpec(**sampling)).run()
    assert all(r.failures for r in sampled)
    script = (
        "import sys\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'blocked: {name}')\n"
        "sys.meta_path.insert(0, Block())\n"
        "from repro.engine import Runner, SweepSpec\n"
        "[r] = Runner(SweepSpec(distances=(3,), rounds=2, shots=0)).run()\n"
        "print(repr(r.metrics['round_time_us']))\n"
        f"for r in Runner(SweepSpec(**{sampling!r})).run():\n"
        "    print(r.job.decoder, r.shots, r.failures)\n"
    )
    assert _run_script(script).splitlines() == [
        repr(expected.metrics["round_time_us"]),
        *(f"{r.job.decoder} {r.shots} {r.failures}" for r in sampled),
    ]
