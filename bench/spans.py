"""Span recording around calls into the public functions of ``oam_eraser``.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces every module-level binding of each listed function inside the
``oam_eraser`` package with a wrapper that records one span per call, so
calls made from inside the package (``from .hilbert import apply_local``,
``el.sector_projector(...)``) are seen too.  Spans stay in memory and are
written once, by ``dump``, when the traced process ends.

A span is ``(layer, start, end, parent, op, n1, n2, error)``; ``n1``/``n2``
carry the layer's work counts (grid points, Poisson draws, events, bytes,
solver evaluations).  ``summarize`` turns span files into per-layer
metrics, with self time = duration minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

OP = "bench.op"
IMPORT = "cli.import"


def _grid_points(args, kwargs, result):
    return result[0].size, 0


def _draws(args, kwargs, result):
    return len(result.counts), 0


def _timeline(args, kwargs, result):
    events, coincidences = result
    return len(events), coincidences


def _text_bytes(args, kwargs, result):
    return len(result.encode("utf-8")), 0


def _written_bytes(args, kwargs, result):
    texts = args[1] if len(args) > 1 else kwargs["named_texts"]
    return sum(len(t.encode("utf-8")) for t in texts.values()), 0


def _count_builder_calls(args, kwargs, rec):
    """Wrap the calibration's config builder so each solver step counts."""
    builder = args[0] if args else kwargs.pop("config_builder")

    def counted(extinction):
        rec[5] += 1
        return builder(extinction)

    return (counted, *args[1:]), kwargs


_COMPILERS = ("qplate_operator", "waveplate_operator", "polarizer_operator",
              "fiber_operator", "sector_projector")
_FORMATTERS = ("scan_csv", "summary_csv", "alpha_csv", "grid_csv",
               "pattern_csv", "line_plot_svg", "polar_plot_svg")

# (module, function, layer, counter, argument hook)
TARGETS = (
    ("hilbert", "apply_local", "hilbert.apply_local", None, None),
    ("hilbert", "postselect_local", "hilbert.postselect_local", None, None),
    *(("elements", name, "elements.compile", None, None) for name in _COMPILERS),
    ("elements", "apply_element", "elements.apply_element", None, None),
    ("experiment", "run_pipeline", "experiment.run_pipeline", None, None),
    ("experiment", "conditional_grid", "experiment.conditional_grid",
     _grid_points, None),
    ("experiment", "simulate_counts", "experiment.simulate_counts", _draws, None),
    ("experiment", "simulate_timeline", "experiment.simulate_timeline",
     _timeline, None),
    ("analysis", "fit_sinusoid", "analysis.fit_sinusoid", None, None),
    ("analysis", "calibrate_extinction", "analysis.calibrate_extinction",
     None, _count_builder_calls),
    ("analysis", "oam_fringe_visibility", "analysis.which_path", None, None),
    ("analysis", "distinguishability", "analysis.which_path", None, None),
    ("output", "events_csv", "output.events_csv", _text_bytes, None),
    ("output", "write_outputs", "output.write_outputs", _written_bytes, None),
    *(("output", name, "output.format", None, None) for name in _FORMATTERS),
    ("configio", "parse_config_file", "configio.parse_config_file", None, None),
    ("cli", "main", "cli.main", None, None),
)

LAYERS = tuple(dict.fromkeys(t[2] for t in TARGETS))
NAMES = (OP, IMPORT) + LAYERS

# names of the n1 / n2 work counts, per layer
COUNT_NAMES = {
    "experiment.conditional_grid": ("points",),
    "experiment.simulate_counts": ("draws",),
    "experiment.simulate_timeline": ("events", "coincidences"),
    "analysis.calibrate_extinction": ("evals",),
    "output.events_csv": ("bytes",),
    "output.write_outputs": ("bytes",),
}


class Recorder:
    """In-memory span store for one traced process."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.op = -1
        self.absent = []

    def wrap(self, name_id, fn, counter=None, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name_id, clock(), 0.0, stack[-1], self.op, 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            if hook is not None:
                args, kwargs = hook(args, kwargs, rec)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec[7] = 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[5], rec[6] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every listed function in every loaded ``oam_eraser`` module.

        A target missing from the package is recorded in ``absent`` and
        reported as such, so a later refactor that deletes it is visible
        without failing the run.
        """
        wrappers = {}
        for module, func, layer, counter, hook in TARGETS:
            try:
                fn = getattr(importlib.import_module(f"oam_eraser.{module}"), func)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{func}")
                continue
            wrappers[id(fn)] = self.wrap(NAMES.index(layer), fn, counter, hook)
        for name, mod in list(sys.modules.items()):
            if name != "oam_eraser" and not name.startswith("oam_eraser."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def span(self, name: str, start: float, end: float) -> None:
        """Record a top-level span timed by the caller (the package import)."""
        self.spans.append([NAMES.index(name), start, end, -1, self.op, 0, 0, 0])

    def begin_op(self, op: int) -> list:
        self.op = op
        rec = [NAMES.index(OP), time.perf_counter(), 0.0, -1, op, 0, 0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end_op(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def dump(self, path) -> None:
        cols = list(zip(*self.spans)) if self.spans else [()] * 8
        np.savez(path,
                 name=np.asarray(cols[0], dtype=np.int16),
                 start=np.asarray(cols[1], dtype=float),
                 end=np.asarray(cols[2], dtype=float),
                 parent=np.asarray(cols[3], dtype=np.int64),
                 op=np.asarray(cols[4], dtype=np.int64),
                 n1=np.asarray(cols[5], dtype=np.int64),
                 n2=np.asarray(cols[6], dtype=np.int64),
                 error=np.asarray(cols[7], dtype=np.int8),
                 absent=np.asarray(self.absent, dtype=str))


def summarize(paths) -> dict:
    """Per-layer metrics over one or more span files.

    Returns ``{"metrics": {name: value}, "absent": [...]}``; every layer
    gets ``calls``, ``self_ms`` and ``errors``, plus its work counts.
    ``experiment.run_pipeline.hit_ratio`` is the share of pipeline calls
    with no child ``elements.apply_element`` span (answered from cache).
    """
    calls = np.zeros(len(NAMES), dtype=np.int64)
    self_s = np.zeros(len(NAMES))
    errors = np.zeros(len(NAMES), dtype=np.int64)
    n1 = np.zeros(len(NAMES), dtype=np.int64)
    n2 = np.zeros(len(NAMES), dtype=np.int64)
    pipeline_hits = 0
    imports = []
    absent = set()
    pipe, apply_el = NAMES.index("experiment.run_pipeline"), NAMES.index(
        "elements.apply_element")
    for path in paths:
        with np.load(path) as data:
            name, parent = data["name"].astype(np.int64), data["parent"]
            dur = data["end"] - data["start"]
            child = parent >= 0
            covered = np.zeros(len(name))
            np.add.at(covered, parent[child], dur[child])
            calls += np.bincount(name, minlength=len(NAMES))
            self_s += np.bincount(name, weights=dur - covered,
                                  minlength=len(NAMES))
            errors += np.bincount(name, weights=data["error"],
                                  minlength=len(NAMES)).astype(np.int64)
            n1 += np.bincount(name, weights=data["n1"],
                              minlength=len(NAMES)).astype(np.int64)
            n2 += np.bincount(name, weights=data["n2"],
                              minlength=len(NAMES)).astype(np.int64)
            missed = np.zeros(len(name), dtype=bool)
            missed[parent[child & (name == apply_el)]] = True
            pipeline_hits += int(np.sum((name == pipe) & ~missed))
            imports.extend(dur[name == NAMES.index(IMPORT)])
            absent.update(str(a) for a in data["absent"])
    metrics = {}
    for i, layer in enumerate(LAYERS, start=2):
        metrics[f"{layer}.calls"] = int(calls[i])
        metrics[f"{layer}.self_ms"] = float(self_s[i] * 1e3)
        metrics[f"{layer}.errors"] = int(errors[i])
        for count_name, totals in zip(COUNT_NAMES.get(layer, ()), (n1, n2)):
            metrics[f"{layer}.{count_name}"] = int(totals[i])
    metrics["experiment.run_pipeline.hit_ratio"] = (
        pipeline_hits / calls[pipe] if calls[pipe] else 0.0)
    if imports:
        metrics["cli.import_ms"] = float(np.median(imports)) * 1e3
    return {"metrics": metrics, "absent": sorted(absent)}
