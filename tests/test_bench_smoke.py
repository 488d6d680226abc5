"""The benchmark's workloads run on the library as it stands.

bench/workloads.py calls library names directly (Tensor3.from_function,
one-index reads of a one-column Matrix such as h.unit[a], Matrix indexing,
to_lists, long_braiding_inverse, trivial_module), so one short run of each
workload fails here, with its error output, when one of them stops working.
Three of them are kept in the library for bench/ alone, none exported by
homlong: linalg.Tensor3, a namespace whose from_function gives the
product-like Matrix of a coaction (no class of maps), repmod.HomComodule
and longeq.validate_halpha_dimodule.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["longeq-carriers", "search-grid", "braid-cli"])
def test_benchmark_workload_runs_correct(workload):
    run = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                          "--seconds", "0.1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stderr
