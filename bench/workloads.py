"""Seeded inputs, operations and output checks for the three workloads.

Each workload yields its operations in rounds.  A round has a fixed
composition (so the mix does not drift with the seed) and seeded
parameters; the same seed always gives the same sequence of rounds.  An
operation is a call into ``oam_eraser`` (or, for ``cli``, one fresh
``python -m oam_eraser`` process) plus a check of its output against a
closed form or an independent reference computed here.

Why these workloads (the end-to-end metrics each one should move):

* ``exact-scans``: analyzer kernel and element compile do nearly all the
  work; the timeline and output layers do none.
* ``timeline``: event generation, coincidence matching and CSV formatting
  do nearly all the work; the analyzer runs once per operation.
* ``cli``: what users run; every layer runs cold once per process and the
  package import is most of each command.
"""

from __future__ import annotations

import importlib
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
BINARY_SCALE = (2.0 / math.pi) ** 2  # matched first-order mask coupling, squared
TOL = 1e-9


class CheckFailed(Exception):
    """An operation returned an output that disagrees with its reference."""


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    work: Callable[[object], int] = lambda result: 0
    config: object = None  # the pipeline config the op reuses, if any
    samples: str | None = None  # where a child process saves its yardstick


def expected_conditional(alpha, theta, extinction, mode):
    """Closed-form conditional probability of the hybrid eraser."""
    scale = BINARY_SCALE if mode == "binary" else 1.0
    tilt = 2.0 * (np.asarray(alpha) + math.atan(extinction))
    return scale * (1.0 + np.sin(tilt) * np.cos(2.0 * np.asarray(theta)
                                               + math.pi / 2)) / 2.0


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def greedy_coincidences(times_a, times_b, gate):
    """Reference matcher: pair clicks of two sorted streams within the gate."""
    i = j = matched = 0
    n_a, n_b = len(times_a), len(times_b)
    while i < n_a and j < n_b:
        dt = times_a[i] - times_b[j]
        if -gate <= dt <= gate:
            matched += 1
            i += 1
            j += 1
        elif dt < 0:
            i += 1
        else:
            j += 1
    return matched


def _physics_params(rng):
    """Source and analyzer settings; any draw gives the same post-selected pair."""
    gaussian = bool(rng.random() < 0.5)
    return dict(
        l_max=int(rng.integers(1, 11)),
        spectrum="gaussian" if gaussian else "flat",
        sigma_ell=float(rng.uniform(0.5, 3.0)) if gaussian else None,
        extinction=float(rng.uniform(0.0, 0.2)),
        hologram_mode=str(rng.choice(["ideal", "binary"])),
    )


# ---------------------------------------------------------------------------
# exact-scans


class ExactScans:
    """In-process exact statistics: grids, visibility curves, calibration,
    complementarity.  Two of the six grid operations per round (the
    smallest and the largest) reuse one shared config, so the pipeline
    cache is hit at a fixed rate."""

    name = "exact-scans"
    work_unit = "points"
    # Thirteen ops per round: four complementarity checks and the three
    # smallest grids below the middle, the n = 31 grid in it, the other
    # grids, two curves and a calibration above it.  So the median op is
    # the n = 31 grid and the tail (about the 98th percentile) a
    # calibration, whatever the seed.
    GRID_SIZES = (19, 25, 31, 37, 43, 49)
    CURVE_POINTS = 36

    def __init__(self, seed, oe):
        self.oe = oe
        self.rng = np.random.default_rng(seed)
        self.shared = self._config(_physics_params(self.rng))

    def _config(self, params):
        rng = self.rng
        counting = self.oe.CountingModel(
            pair_rate=float(10 ** rng.uniform(3.0, 5.0)), integration_time=1.0,
            singles_a=float(rng.uniform(1e3, 1e4)),
            singles_b=float(rng.uniform(1e3, 1e4)),
            seed=int(rng.integers(2 ** 31)))
        return self.oe.hybrid_eraser_config(counting=counting, **params)

    def rounds(self):
        while True:
            sizes = self.GRID_SIZES
            ops = [self._grid(n, shared=n in (sizes[0], sizes[-1]))
                   for n in sizes]
            ops += [self._curve(), self._curve(), self._calibrate()]
            ops += [self._complementarity() for _ in range(4)]
            yield [ops[i] for i in self.rng.permutation(len(ops))]

    def _grid(self, n, shared):
        cfg = self.shared if shared else self._config(_physics_params(self.rng))
        alphas = self.rng.uniform(0.0, math.pi, n)
        thetas = self.rng.uniform(0.0, TWO_PI, n)
        pol = cfg.analyzer_a

        def check(result):
            joint, cond = result
            want = expected_conditional(alphas[:, None], thetas[None, :],
                                        pol.extinction, cfg.analyzer_b.mode)
            err = max(float(np.max(np.abs(cond - want))),
                      float(np.max(np.abs(joint - want / 2.0))))
            _require(err <= TOL, f"grid deviates from closed form by {err:.3g}")

        return Op("grid",
                  lambda: self.oe.conditional_grid(cfg, alphas, thetas),
                  check, lambda result: n * n, cfg)

    def _curve(self):
        cfg = self._config(_physics_params(self.rng))
        alphas = self.rng.uniform(0.0, math.pi / 2, 6)
        points = self.CURVE_POINTS
        experiment = self.oe.experiment

        def call():
            curve = self.oe.visibility_curve(cfg, alphas, theta_points=points)
            counted = []
            for index, alpha in enumerate(alphas):
                at = replace(cfg, analyzer_a=replace(cfg.analyzer_a,
                                                     alpha=float(alpha)))
                series = experiment.theta_scan(at, points=points)
                counted.append(experiment.simulate_counts(at, series,
                                                          repetition=index))
            return curve, counted

        def check(result):
            curve, counted = result
            e = cfg.analyzer_a.extinction
            for point, alpha in zip(curve, alphas):
                want = abs(math.sin(2.0 * (alpha + math.atan(e))))
                _require(abs(point.visibility - want) <= TOL,
                         f"visibility {point.visibility!r} != {want!r}")
            for series in counted:
                _require(len(series.counts) == points
                         and all(isinstance(c, int) and c >= 0
                                 for c in series.counts), "bad counts")

        return Op("curve", call, check,
                  lambda result: 2 * len(alphas) * points, cfg)

    def _calibrate(self):
        params = _physics_params(self.rng)
        del params["extinction"]
        target = float(self.rng.uniform(0.6, 0.98))
        evals = [0]

        def builder(extinction):
            evals[0] += 1
            return self.oe.hybrid_eraser_config(alpha=math.pi / 4,
                                                extinction=extinction, **params)

        def check(leak):
            want = math.tan(math.acos(target) / 2.0)
            _require(abs(leak - want) <= 1e-6,
                     f"calibrated leak {leak!r} != {want!r}")

        return Op("calibrate",
                  lambda: self.oe.analysis.calibrate_extinction(builder, target),
                  check, lambda result: evals[0] * 72)

    def _complementarity(self):
        oe = self.oe
        raw = self.rng.normal(size=4) + 1j * self.rng.normal(size=4)
        raw /= np.linalg.norm(raw)
        h, v = oe.hilbert.POL_H, oe.hilbert.POL_V
        state = oe.joint_ket({(h, 0, h, 1): raw[0], (h, 0, h, -1): raw[1],
                              (v, 0, h, 1): raw[2], (v, 0, h, -1): raw[3]})

        def call():
            vis = oe.oam_fringe_visibility(state, 1)
            dist = oe.distinguishability(state, 1)
            return oe.complementarity_check(vis, dist)

        def check(record):
            _require(not record.violated
                     and abs(record.sum_of_squares - 1.0) <= TOL,
                     f"V^2 + D^2 = {record.sum_of_squares!r}")

        return Op("complementarity", call, check, lambda result: 72)


# ---------------------------------------------------------------------------
# timeline


class Timeline:
    """In-process event timelines, each formatted as CSV into memory.

    Per round: seven ops with expected event counts from 2e3 to 6e4 (five
    at 6e4, so the median op falls in the middle of one class), four at
    the 3e5-event maximum (so every run reaches the same peak working set,
    and the tail, which has ten ops above it, falls among them) and one
    burst op whose singles rate times gate is at least 0.1.  Event counts
    are fixed so the mix does not vary by seed; pair rates are log-uniform
    in [1e4, 1e6] Hz (1e6 Hz for the largest ops), and singles, gates,
    delays and angles are seeded.
    """

    name = "timeline"
    work_unit = "events"
    EVENTS = (2e3, 2e4, 6e4, 6e4, 6e4, 6e4, 6e4)
    MAX_EVENTS = 3e5
    BURST_EVENTS = 1e5

    def __init__(self, seed, oe):
        self.oe = oe
        self.output = importlib.import_module("oam_eraser.output")
        self.rng = np.random.default_rng(seed)

    def rounds(self):
        while True:
            rng = self.rng
            ops = [self._op(events) for events in self.EVENTS]
            ops += [self._op(self.MAX_EVENTS, pair_rate=1e6, kind="timeline-max")
                    for _ in range(4)]
            ops.append(self._op(self.BURST_EVENTS, kind="burst"))
            yield [ops[i] for i in rng.permutation(len(ops))]

    def _op(self, events, pair_rate=None, kind="timeline"):
        rng, oe = self.rng, self.oe
        params = _physics_params(rng)
        if pair_rate is None:
            pair_rate = float(10 ** rng.uniform(4.0, 6.0))
        if kind == "burst":
            gate = float(rng.uniform(0.5e-6, 2e-6))
            singles = [float(rng.uniform(0.1, 0.3)) / gate for _ in range(2)]
        else:
            gate = float(rng.uniform(10e-9, 50e-9))
            singles = [float(rng.uniform(1e3, 5e4)) for _ in range(2)]
        joint = 0.0
        while joint < 0.08:  # keeps the pair count near the event count
            alpha = float(rng.uniform(0.0, math.pi / 2))
            theta = float(rng.uniform(0.0, TWO_PI))
            joint = float(expected_conditional(
                alpha, theta, params["extinction"],
                params["hologram_mode"])) / 2.0
        duration = events / (2.0 * pair_rate * joint + sum(singles))
        counting = oe.CountingModel(pair_rate=pair_rate, gate=gate,
                                    singles_a=singles[0], singles_b=singles[1],
                                    seed=int(rng.integers(2 ** 31)))
        cfg = oe.hybrid_eraser_config(alpha=alpha, counting=counting,
                                      delay_m=float(rng.uniform(0.0, 10.0)),
                                      **params)

        def call():
            events, coincidences = oe.simulate_timeline(cfg, alpha, theta,
                                                        duration)
            return events, coincidences, self.output.events_csv(events)

        def check(result):
            events, coincidences, text = result
            times = {arm: [ev.timestamp for ev in events if ev.arm == arm]
                     for arm in "AB"}
            _require(len(times["A"]) + len(times["B"]) == len(events),
                     "event on an unknown arm")
            pairs = [sum(1 for ev in events if ev.arm == arm
                         and ev.tag == "true_pair") for arm in "AB"]
            _require(pairs[0] == pairs[1], "unpaired true-pair clicks")
            # Poisson counts: true pairs at pair_rate * joint, singles at
            # their rates; 6 standard deviations
            for seen, rate in ((pairs[0], pair_rate * joint),
                               (len(times["A"]) - pairs[0], singles[0]),
                               (len(times["B"]) - pairs[1], singles[1])):
                mean = rate * duration
                _require(abs(seen - mean) <= 6.0 * math.sqrt(mean) + 1.0,
                         f"{seen} clicks where {mean:.1f} are expected")
            for arm_times in times.values():
                _require(bool(np.all(np.diff(arm_times) >= 0.0)),
                         "clicks out of time order")
            want = greedy_coincidences(times["A"], times["B"], gate)
            _require(coincidences == want,
                     f"{coincidences} coincidences, reference {want}")
            _require(text.startswith("arm,timestamp_s,tag\n")
                     and text.count("\n") == len(events) + 1,
                     "events CSV does not hold one line per event")

        return Op(kind, call, check,
                  lambda result: len(result[0]))


# ---------------------------------------------------------------------------
# cli


def derive_config(template: str, overrides: dict) -> str:
    """Copy a config document, replacing or adding ``key = value`` lines.

    ``overrides`` maps ``(section, key)`` to the new value; keys the
    template lacks are inserted right after their section's header.
    """
    pending = dict(overrides)
    lines = template.splitlines()
    headers, section = {}, None
    for i, line in enumerate(lines):
        text = line.strip()
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1]
            headers.setdefault(section, i)
        elif "=" in text and not text.startswith("#"):
            key = text.split("=", 1)[0].strip()
            if (section, key) in pending:
                lines[i] = f"{key} = {pending.pop((section, key))}"
    for (sec, key), value in sorted(pending.items(),
                                    key=lambda item: -headers[item[0][0]]):
        lines.insert(headers[sec] + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


class Cli:
    """Fresh ``python -m oam_eraser`` processes (via ``launch.py``) on
    configs derived from ``demos/eraser.cfg``, one subcommand of each kind
    per round.

    The derived configs keep the template's inclusive theta range and set
    nonzero singles rates.
    """

    name = "cli"
    work_unit = None
    TEMPLATE = os.path.join("demos", "eraser.cfg")
    # ``python -m oam_eraser`` run in-process under the host-speed yardstick
    LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "launch.py")

    def __init__(self, seed, work_dir, shim=None):
        self.rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        self.shim = shim  # (script, spans directory) for traced runs
        with open(self.TEMPLATE, encoding="utf-8") as fh:
            self.template = fh.read()
        self.count = 0
        self.env = dict(os.environ)
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def _write_config(self, op_dir):
        rng = self.rng
        params = _physics_params(rng)
        overrides = {
            ("source", "l_max"): params["l_max"],
            ("source", "spectrum"): params["spectrum"],
            ("analyzers", "alpha_rad"): repr(float(rng.uniform(0, math.pi / 2))),
            ("analyzers", "extinction"): repr(params["extinction"]),
            ("analyzers", "hologram_mode"): params["hologram_mode"],
            ("counting", "pair_rate_hz"): repr(float(10 ** rng.uniform(3.3, 4.3))),
            ("counting", "singles_a_hz"): repr(float(rng.uniform(100, 1e4))),
            ("counting", "singles_b_hz"): repr(float(rng.uniform(100, 1e4))),
            ("counting", "seed"): int(rng.integers(2 ** 31)),
            ("scan", "theta_points"): int(rng.integers(48, 97)),
            ("scan", "alpha_points"): int(rng.integers(5, 13)),
        }
        if params["sigma_ell"] is not None:
            overrides[("source", "sigma_l")] = repr(params["sigma_ell"])
        os.makedirs(op_dir, exist_ok=True)
        path = os.path.join(op_dir, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(derive_config(self.template, overrides))
        return path, params

    def rounds(self):
        while True:
            ids = range(self.count, self.count + 6)
            self.count += 6
            dirs = [os.path.join(self.work_dir, f"op{i}") for i in ids]
            cfgs = [self._write_config(d) for d in dirs[:5]]  # fit takes a CSV
            rng = self.rng
            scan_theta = os.path.join(dirs[0], "scan_theta.csv")
            argvs = [
                ["scan-theta", cfgs[0][0], "--counts", "--svg"],
                ["scan-alpha", cfgs[1][0], "--counts", "--svg"],
                ["scan-grid", cfgs[2][0]],
                ["timeline", cfgs[3][0], "--duration-s",
                 repr(float(rng.uniform(0.5, 1.5)))],
                ["render-pattern", cfgs[4][0], "--ell",
                 str(int(rng.integers(1, 9))), "--grid-n",
                 str(int(rng.integers(256, 1025)))],
                ["fit", scan_theta],
            ]
            files = [["scan_theta.csv", "scan_theta_summary.csv", "scan_theta.svg"],
                     ["scan_alpha.csv", "scan_alpha.svg"],
                     ["scan_grid.csv"],
                     ["timeline_events.csv", "timeline_summary.csv"],
                     ["pattern.csv", "pattern.svg"],
                     ["fit_summary.csv"]]
            yield [self._op(argv, op_id, op_dir, names,
                            cfgs[2][1] if argv[0] == "scan-grid" else None)
                   for argv, op_id, op_dir, names
                   in zip(argvs, ids, dirs, files)]

    def _op(self, argv, op_id, op_dir, files, grid_params):
        argv = argv + ["--out-dir", op_dir]
        samples = os.path.join(op_dir, "hostspeed.json")
        if self.shim is None:
            cmd = [sys.executable, self.LAUNCHER, samples, *argv]
        else:
            script, spans_dir = self.shim
            cmd = [sys.executable, script, samples,
                   os.path.join(spans_dir, f"op{op_id}.npz"), str(op_id), *argv]

        def call():
            return subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=120)

        def check(proc):
            _require(proc.returncode == 0,
                     f"{argv[0]} exited {proc.returncode}: {proc.stderr[-300:]}")
            for name in files:
                _require(os.path.isfile(os.path.join(op_dir, name)),
                         f"{argv[0]} wrote no {name}")
            if grid_params is not None:
                self._check_grid(os.path.join(op_dir, "scan_grid.csv"),
                                 grid_params)

        return Op(argv[0], call, check, samples=samples)

    @staticmethod
    def _check_grid(path, params):
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        alpha, theta, joint, cond = table.T
        want = expected_conditional(alpha, theta, params["extinction"],
                                    params["hologram_mode"])
        err = max(float(np.max(np.abs(cond - want))),
                  float(np.max(np.abs(joint - want / 2.0))))
        _require(err <= TOL,
                 f"scan-grid deviates from closed form by {err:.3g}")


WORKLOADS = {"exact-scans": ExactScans, "timeline": Timeline, "cli": Cli}
