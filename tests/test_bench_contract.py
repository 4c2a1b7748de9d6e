"""The benchmark's timeline op and its output check, run against the package.

``bench/workloads.py`` is loaded as it is, so a change to what
``simulate_timeline`` or ``events_csv`` return that the benchmark cannot
read fails here, not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import oam_eraser

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", ["timeline", "burst"])
def test_timeline_op_passes_its_own_check(workloads, kind):
    op = workloads.Timeline(seed=7, oe=oam_eraser)._op(2e3, kind=kind)
    result = op.call()
    op.check(result)
    assert op.work(result) == len(result[0]) > 0
