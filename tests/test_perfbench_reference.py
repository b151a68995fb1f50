"""The perfbench LER oracle must cover every job its workloads run.

``perfbench/run.py`` checks each sampled job's failure count against
``perfbench/reference.json`` by job key, and skips the check for a key
the reference does not hold.  A change that moved a job key would
therefore switch the oracle off silently; this test fails instead.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, PERFBENCH / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        # Registered before it runs: its dataclass resolves string
        # annotations through sys.modules.
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("workload", ["ler_setup_bound", "ler_decode_bound"])
def test_reference_holds_every_job_key(workload):
    workloads = _workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert reference["seed"] == workloads.DEFAULT_SEED == 2026
    keys = [
        job.key
        for job in workloads.WORKLOADS[workload].spec(2026).expand()
    ]
    assert keys
    missing = [key for key in keys if key not in reference[workload]]
    assert not missing, f"{workload} jobs missing from reference.json: {missing}"
