"""The benchmark's output check, run in the test suite: each of the four
workloads in ``perfbench/workloads.py`` makes one call, and its outcome must
be finite and inside ``perfbench/run.py``'s quality tolerance; the two
sub-second workloads run twice and must hash the same both times. A change
that would fail a benchmark run's check fails here first."""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """perfbench/<name>.py as the module perfbench_<name> (registered, as
    ``dataclass`` needs), leaving no bytecode under perfbench/."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    no_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = no_bytecode
    return module


@pytest.fixture(scope="module")
def bench():
    """run.py and workloads.py, loaded without running either. run.py sets
    the BLAS thread variables as it is imported; the environment is put back."""
    saved = os.environ.copy()
    try:
        run = _load("run")
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return run, _load("workloads")


# the workloads that take under a second on the reference problem
TWICE = {"pgnn_tv", "cli_roundtrip"}


@pytest.mark.parametrize("name", ["pgnn_zern", "pgnn_tv", "epie_conv", "cli_roundtrip"])
def test_benchmark_workload_passes_its_output_check(bench, name, tmp_path):
    run, workloads = bench
    w = workloads.make_workloads(str(tmp_path))[name]
    inputs = w.setup(0)
    hashes = []
    for call in range(2 if name in TWICE else 1):
        if call:
            w.prepare(inputs)
        out = w.outcome(inputs, w.call(inputs))
        assert out.finite
        assert np.isfinite(out.rel_err_amp) and np.isfinite(out.loss_ratio)
        assert run.quality_ok(name, out), (
            f"rel_err_amp={out.rel_err_amp:.6g} loss_ratio={out.loss_ratio:.6g} "
            f"against {run.REFERENCE[name]}")
        hashes.append(out.sha256)
    assert len(set(hashes)) == 1
