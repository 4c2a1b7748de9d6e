"""One workload process: import the package, build inputs, run timed ops.

Started by ``run.py`` in a fresh interpreter, so the package's caches
start cold.  It prints ``ready`` once the first operation can be issued;
with ``--setup-only`` it exits there.  Otherwise it runs operations in a
closed loop with one client, in whole rounds, until their summed scaled
latency reaches ``--seconds`` (or for exactly ``--rounds`` rounds), checks
each output outside the timed region, and writes a JSON result to ``--out``:
each op's latency scaled by the host-speed yardstick (``hostspeed.py``),
and its raw latency.  With ``--setup-only`` it saves its yardstick samples
to ``--out`` instead.
With ``--spans`` it records spans and writes them at exit to that file
(for ``cli``, that directory: one file per command process).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_package():
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import oam_eraser

    if not os.path.abspath(oam_eraser.__file__).startswith(src + os.sep):
        raise SystemExit(f"oam_eraser imported from {oam_eraser.__file__}, "
                         f"not from {src}")
    return oam_eraser


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    import hostspeed

    yardstick = hostspeed.Yardstick()
    if args.setup_only:  # the set-up probe scales its own time, see run.py
        yardstick.start()
    oe = _import_package()
    import spans
    import workloads

    recorder = None
    if args.spans and args.workload != "cli":
        recorder = spans.Recorder()
        recorder.install()
    cls = workloads.WORKLOADS[args.workload]
    if args.workload == "cli":
        shim = (os.path.join(HERE, "shim.py"), args.spans) if args.spans else None
        workload = cls(args.seed, args.work_dir, shim)
    else:
        workload = cls(args.seed, oe)
    rounds = workload.rounds()
    pending = list(next(rounds))
    print("ready", flush=True)
    if args.setup_only:
        yardstick.stop()
        yardstick.save(args.out)
        return 0

    intervals, kinds, failures = [], [], []  # intervals: (start, end, own time)
    work = repeats = 0
    seen = set()
    round_no = 0
    measured = 0.0  # scaled op time so far, by the samples taken so far
    # a cli op's samples come from its own process, not from this idle one
    if args.workload != "cli":
        yardstick.start()
    try:
        while True:
            # stop only between rounds, so the mix is whole rounds
            if not pending:
                round_no += 1
                if args.rounds is not None and round_no >= args.rounds:
                    break
                if args.seconds is not None and measured >= args.seconds:
                    break
                pending = list(next(rounds))
            op = pending.pop(0)
            index = len(intervals)
            if op.config is not None:
                repeats += op.config in seen
                seen.add(op.config)
            span = recorder.begin_op(index) if recorder else None
            error = None
            paused = yardstick.paused
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a raising op counts as failed; run goes on
                error = f"raised {exc!r}"
            end = time.perf_counter()
            own = end - start - (yardstick.paused - paused)
            if op.samples is not None:
                own -= yardstick.absorb(op.samples)
            measured += own * yardstick.factor(start, end)
            if span is not None:
                recorder.end_op(span)
            if error is None:
                try:
                    op.check(result)
                    work += op.work(result)
                except workloads.CheckFailed as exc:
                    error = str(exc)
                result = None
            intervals.append((start, end, own))
            kinds.append(op.kind)
            if error is not None:
                failures.append(f"op {index} ({op.kind}): {error}")
    finally:
        if args.workload != "cli":
            yardstick.stop()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli"
                               else resource.RUSAGE_SELF)
    if recorder is not None:
        recorder.dump(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({
            "latencies": [own * yardstick.factor(s, e) for s, e, own in intervals],
            "raw_latencies": [own for _, _, own in intervals],
            "kinds": kinds,
            "failures": failures,
            "work": work,
            "work_unit": workload.work_unit,
            "config_repeat_share": repeats / len(intervals),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
