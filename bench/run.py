"""Benchmark of the oam-eraser simulator.

    python3 bench/run.py --workload {exact-scans,timeline,cli,all}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each workload runs in a fresh
interpreter (``bench/worker.py``), one client in a closed loop, inputs
generated from ``--seed``; every output is checked (see
``bench/workloads.py``).

Every time is scaled to one nominal host speed by a reference kernel
timed alongside the work (``bench/hostspeed.py``); raw times are printed
too.  ``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median
over several fresh interpreters of launch -> import -> first op ready),
``ops_per_s``, ``op_ms.p50``, ``op_ms.tail`` (the highest percentile with
at least ten samples above it) and ``peak_rss_mb``; it also prints
``points_per_s`` or ``events_per_s`` and ``ops_failed_ratio``.

``--trace 1`` runs a fixed number of rounds twice, untraced and then with
spans around the package's public functions, and reports per-layer
metrics and ``trace.overhead_ratio`` (traced over untraced ops per second).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics named in ``BENCHMARK.json``.  A
failed check makes the exit code 1.  Details and span files are written
under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("exact-scans", "timeline", "cli")
OUT_DIR = ".bench_out"
SETUP_LAUNCHES = 3
# Rounds per traced run: about 5-7 s of scaled op time per pass at the
# seed commit, so a traced run (both passes) takes about as long as an
# untraced one.  Fixed, so per-layer counts repeat exactly for a seed.
TRACE_ROUNDS = {"exact-scans": 15, "timeline": 2, "cli": 2}
WORKER_TIMEOUT = 170.0


def _worker(workload, seed, work_dir, extra, stdout=subprocess.DEVNULL):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--work-dir", work_dir, *extra]
    return subprocess.Popen(cmd, stdout=stdout, text=True)


def _finish(proc, what):
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{what} timed out") from None
    if code != 0:
        raise RuntimeError(f"{what} exited with code {code}")


def measure_setup(workload, seed, work_dir, yardstick):
    """Seconds from launching a worker until it reports ``ready``.

    Returns the time scaled by the host-speed yardstick and the raw time.
    """
    samples = os.path.join(work_dir, "hostspeed.json")
    start = time.perf_counter()
    proc = _worker(workload, seed, work_dir, ["--setup-only", "--out", samples],
                   stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    ready = time.perf_counter()
    proc.stdout.close()
    _finish(proc, "setup probe")
    if line.strip() != "ready":
        raise RuntimeError("setup probe did not become ready")
    own = ready - start - yardstick.absorb(samples)
    return own * yardstick.factor(start, ready), own


def run_pass(workload, seed, work_dir, limit, spans_path=None):
    out = os.path.join(work_dir, "result.json")
    extra = [*limit, "--out", out]
    if spans_path:
        extra += ["--spans", spans_path]
    _finish(_worker(workload, seed, work_dir, extra), f"{workload} worker")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def tail_latency(latencies):
    """Highest integer percentile with at least ten samples above it.

    Returns ``(percentile, value)`` by nearest rank; with ten or fewer
    samples, the maximum as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1]
    return 100, ordered[-1]


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _git(*args):
    try:
        proc = subprocess.run(["git", *args], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # only the checkout's own repository, never one that encloses it
    in_git = os.path.exists(".git")
    commit = _git("rev-parse", "HEAD") if in_git else None
    status = _git("status", "--porcelain", "--untracked-files=no") if in_git else None
    return {
        "commit": commit or "unknown (not a git checkout)",
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "load_start": os.getloadavg(),
        "seed": seed,
    }


def end_to_end(workload, seed, seconds, work_dir):
    setup_dir = os.path.join(work_dir, "setup")
    os.makedirs(setup_dir)
    yardstick = hostspeed.Yardstick()
    # the first launch compiles bytecode in a fresh checkout; not counted
    setups = [measure_setup(workload, seed, setup_dir, yardstick)
              for _ in range(SETUP_LAUNCHES + 1)][1:]
    res = run_pass(workload, seed, work_dir, ["--seconds", str(seconds)])
    lat = res["latencies"]
    busy = sum(lat)
    pct, tail = tail_latency(lat)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "op_ms.p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms.tail": (tail * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ops_failed_ratio": (len(res["failures"]) / len(lat), "ratio"),
    }
    if res["work_unit"]:
        metrics[f"{res['work_unit']}_per_s"] = (res["work"] / busy, "1/s")
    notes = {"op_ms.tail": f"p{pct} of {len(lat)} ops",
             "setup_s": f"median of {SETUP_LAUNCHES} launches"}
    raw = res["raw_latencies"]
    detail = {"setup_samples_s": [s for s, _ in setups],
              "raw": {"setup_s": statistics.median(r for _, r in setups),
                      "ops_per_s": len(raw) / sum(raw),
                      "op_ms.p50": statistics.median(raw) * 1e3,
                      "op_ms.tail": tail_latency(raw)[1] * 1e3},
              "ops": len(lat),
              "ops_by_kind": _by_kind(res),
              "config_repeat_share": res["config_repeat_share"],
              "tail_percentile": pct, "busy_s": busy}
    return metrics, notes, detail, res["failures"], len(lat)


def traced(workload, seed, work_dir, spans_path):
    rounds = ["--rounds", str(TRACE_ROUNDS[workload])]
    plain_dir = os.path.join(work_dir, "untraced")
    trace_dir = os.path.join(work_dir, "traced")
    os.makedirs(plain_dir)
    os.makedirs(trace_dir)
    plain = run_pass(workload, seed, plain_dir, rounds)
    if workload == "cli":
        os.makedirs(spans_path)
        res = run_pass(workload, seed, trace_dir, rounds, spans_path)
        files = [os.path.join(spans_path, f) for f in sorted(os.listdir(spans_path))]
    else:
        spans_path += ".npz"
        res = run_pass(workload, seed, trace_dir, rounds, spans_path)
        files = [spans_path]
    summary = spans.summarize(files)
    layer = summary["metrics"]
    layer["trace.overhead_ratio"] = sum(plain["latencies"]) / sum(res["latencies"])
    metrics = {name: (value, _layer_unit(name)) for name, value in layer.items()}
    detail = {"ops": len(res["latencies"]), "absent": summary["absent"],
              "rounds": TRACE_ROUNDS[workload], "spans": spans_path,
              "ops_by_kind": _by_kind(res)}
    failures = plain["failures"] + res["failures"]
    return (metrics, {}, detail, failures,
            len(plain["latencies"]) + len(res["latencies"]))


def _layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    return "ratio" if name.endswith("ratio") else "count"


def _by_kind(res):
    """Op count and median latency (ms) per operation kind."""
    groups = {}
    for kind, lat in zip(res["kinds"], res["latencies"]):
        groups.setdefault(kind, []).append(lat)
    return {kind: {"ops": len(lat), "p50_ms": statistics.median(lat) * 1e3}
            for kind, lat in groups.items()}


def run_workload(workload, args, spec):
    info = provenance(args.seed)
    run_dir = os.path.abspath(os.path.join(
        OUT_DIR, f"{workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"))
    scratch = os.path.join(run_dir, "tmp")
    os.makedirs(scratch)
    try:
        if args.trace:
            metrics, notes, detail, failures, attempted = traced(
                workload, args.seed, scratch, os.path.join(run_dir, "spans"))
            wanted = spec["per_layer"]
        else:
            metrics, notes, detail, failures, attempted = end_to_end(
                workload, args.seed, args.seconds, scratch)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    info["load_end"] = os.getloadavg()

    print(f"== {workload} (seed {args.seed}, trace {args.trace})")
    print("provenance: " + json.dumps(info))
    print("detail: " + json.dumps(detail))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        text = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<44} {text:>14} {unit}{note}")
    for line in failures[:10]:
        print(f"FAILED {line}")
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": info, "detail": detail, "failures": failures,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, fh,
                  indent=1)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return not failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("BENCHMARK.json", os.path.join("src", "oam_eraser",
                                                           "__init__.py"),
                           os.path.join("demos", "eraser.cfg"))
               if not os.path.isfile(p)]
    if missing:
        print(f"not a source checkout, missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in names:
        ok = run_workload(workload, args, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
