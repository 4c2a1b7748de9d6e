"""The benchmark's ops and their output checks, run against the package.

``bench/workloads.py`` is loaded as it is, so a change to what the package
returns that the benchmark cannot read (an event table it cannot iterate,
a count that is not an ``int``) fails here, not only in a benchmark run.
So does a function that ``bench/spans.py`` times but the package no longer
has, which a traced run would only list as absent.
"""

import importlib.util
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oam_eraser

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
SPANS = WORKLOADS.parent / "spans.py"


@pytest.fixture
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", ["timeline", "burst", "timeline-max"])
def test_timeline_op_passes_its_own_check(workloads, kind):
    # timeline-max is the bench's largest op: many blocks of events_csv per arm
    events, pair_rate = (3e5, 1e6) if kind == "timeline-max" else (2e3, None)
    op = workloads.Timeline(seed=7, oe=oam_eraser)._op(events, pair_rate=pair_rate,
                                                       kind=kind)
    result = op.call()
    op.check(result)
    assert op.work(result) == len(result[0]) > 0


@pytest.mark.parametrize("kind", ["curve", "grid", "calibrate", "complementarity"])
def test_exact_scans_op_passes_its_own_check(workloads, kind):
    scans = workloads.ExactScans(seed=7, oe=oam_eraser)
    op = {"curve": scans._curve,
          "grid": lambda: scans._grid(19, shared=False),
          "calibrate": scans._calibrate,
          "complementarity": scans._complementarity}[kind]()
    assert op.kind == kind
    result = op.call()
    op.check(result)
    assert op.work(result) > 0


@pytest.mark.parametrize("seed", [1, 7, 11, 29, 47, 101])
def test_calibrate_op_passes_its_check_within_twelve_evaluations(workloads, seed):
    # op.work counts 72 theta points per evaluation of the op's builder, so
    # this pins the solver steps a traced run reports under
    # analysis.calibrate_extinction.evals
    op = workloads.ExactScans(seed=seed, oe=oam_eraser)._calibrate()
    leak = op.call()
    op.check(leak)
    assert 0 < op.work(leak) // 72 <= 12


@pytest.mark.parametrize("kind", ["curve", "calibrate", "complementarity"])
def test_exact_scans_op_makes_no_sinusoid_fit(workloads, monkeypatch, kind):
    # exact scans read their fringe in closed form; the least-squares fit
    # is for counted and read-back scans
    fit, calls = oam_eraser.analysis.fit_sinusoid, []

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    for module in (oam_eraser, oam_eraser.analysis):
        monkeypatch.setattr(module, "fit_sinusoid", counted)
    op = getattr(workloads.ExactScans(seed=7, oe=oam_eraser), "_" + kind)()
    op.check(op.call())
    assert calls == []


def test_curve_op_hashes_each_seed_once(workloads, monkeypatch):
    # the op draws six counted scans from one seed; its Philox key is derived
    # once and then read from a cache
    seed_sequence, seeds = np.random.SeedSequence, Counter()

    def counted(seed=None, *args, **kwargs):
        seeds[seed] += 1
        return seed_sequence(seed, *args, **kwargs)

    monkeypatch.setattr(oam_eraser.experiment.np.random, "SeedSequence", counted)
    op = workloads.ExactScans(seed=7, oe=oam_eraser)._curve()
    op.check(op.call())
    assert all(calls <= 1 for calls in seeds.values()), seeds


def test_a_config_holds_at_most_800_bytes():
    # the benchmark keeps every op's config, so their size shows in its
    # peak RSS; configs built alike share their arm-A element specs
    rng = np.random.default_rng(5)

    def build():
        counting = oam_eraser.CountingModel(
            pair_rate=float(rng.uniform(1e3, 1e5)),
            singles_a=float(rng.uniform(1e3, 1e4)),
            singles_b=float(rng.uniform(1e3, 1e4)),
            seed=int(rng.integers(2 ** 31)))
        return oam_eraser.hybrid_eraser_config(
            extinction=float(rng.uniform(0.0, 0.2)), counting=counting,
            l_max=int(rng.integers(1, 11)))

    build()
    kept = []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept.extend(build() for _ in range(1000))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(kept) <= 800


def test_every_span_target_resolves():
    # read the target table only: install() would rebind package functions
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{func}" for module, func, *_ in spans.TARGETS
               if not callable(getattr(importlib.import_module(
                   f"oam_eraser.{module}"), func, None))]
    assert len(spans.TARGETS) > 20 and missing == []
