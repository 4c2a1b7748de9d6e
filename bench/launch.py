"""Untraced ``oam-eraser`` command: ``launch.py SAMPLES ARGS...``.

Runs ``python -m oam_eraser ARGS...`` in this process with the host-speed
yardstick sampling (see ``hostspeed.py``) and saves its samples to
SAMPLES, so the parent can scale the command's time by the speed of the
CPU the command ran on.
"""

import os
import runpy
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hostspeed  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    sys.argv = ["oam_eraser", *argv]
    yardstick = hostspeed.Yardstick()
    yardstick.start()
    try:
        runpy.run_module("oam_eraser", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code
    finally:
        yardstick.stop()
        yardstick.save(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
