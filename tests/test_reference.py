"""The benchmark's kam-run workloads against their recorded reference.

Runs the first pool seeds of ``kam_exact`` and ``kam_d2`` with the
benchmark's own flags and checks each step CSV with the benchmark's own
check: every physics column within 1e-12 of ``perfbench/reference.json``.
So a change that moves the physics fails here, before a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS_PER_WORKLOAD = 3


def _load_workloads():
    # loaded by path, since perfbench is a script directory, not a package;
    # its dataclasses look their module up in sys.modules
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", ["kam_d2", "kam_exact"])
@pytest.mark.parametrize("index", range(SEEDS_PER_WORKLOAD))
def test_kam_run_matches_the_benchmark_reference(tmp_path, name, index):
    pool = REFERENCE[name]["pool"]
    seed = workloads.program_seed(index, pool)
    work = workloads.WORKLOADS[name]
    rc = work.run(seed, str(tmp_path))
    values = workloads._kam_outputs(rc, str(tmp_path)).values
    assert workloads._kam_check(values, pool[str(seed)]) == []
