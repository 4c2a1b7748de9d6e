"""The line tracer, opt-in: ``python -m pytest -m linetrace``.

The default run deselects the ``linetrace`` marker (``pyproject.toml``),
since the tracer runs the whole default suite again under ``sys.settrace``.
"""

import subprocess
import sys

import pytest

from line_trace import ROOT


@pytest.mark.linetrace
def test_every_statement_runs_or_is_allowed():
    result = subprocess.run([sys.executable, str(ROOT / "tests" / "line_trace.py")],
                            cwd=ROOT, capture_output=True, text=True)
    report = result.stdout[-4000:] + result.stderr[-4000:]
    assert "\n0 statement(s) of src/oam_eraser never ran" in result.stdout, report
    assert result.returncode == 0, report
