"""Traced ``oam-eraser`` command: ``shim.py SAMPLES SPANS OP_ID ARGS...``.

Times ``import oam_eraser.cli`` (the ``cli.import`` span), installs the
span wrappers, runs ``cli.main(ARGS)`` with the host-speed yardstick
sampling, and writes the spans to SPANS and the yardstick's samples to
SAMPLES.
"""

import os
import sys
import time

start = time.perf_counter()
import oam_eraser.cli  # noqa: E402  (PYTHONPATH points at the checkout's src)

imported = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hostspeed  # noqa: E402
import spans  # noqa: E402


def main() -> int:
    samples, path, op_id, argv = (sys.argv[1], sys.argv[2], int(sys.argv[3]),
                                  sys.argv[4:])
    recorder = spans.Recorder()
    recorder.op = op_id
    recorder.span(spans.IMPORT, start, imported)
    recorder.install()
    yardstick = hostspeed.Yardstick()
    yardstick.start()
    try:
        return oam_eraser.cli.main(argv)
    finally:
        yardstick.stop()
        yardstick.save(samples)
        recorder.dump(path)


if __name__ == "__main__":
    sys.exit(main())
