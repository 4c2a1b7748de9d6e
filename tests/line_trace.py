"""Line tracer: run the default test suite under ``sys.settrace`` and list
every executable statement of ``src/oam_eraser`` that never ran.

A statement is executable when the compiler gives it bytecode: docstrings
and bare annotations are not.  A simple statement ran when any of its lines
did; a compound one (``if``, ``for``, ``def``, ...) when its header did, its
decorators included.  Only frames whose code lives in ``src/oam_eraser`` are
traced, so processes the tests start (the CLI and demo subprocesses) are not
followed.  ``ALLOWED`` names the statements that may stay unrun, each with
its reason.

    python tests/line_trace.py             # the default test run
    python tests/line_trace.py PYTEST_ARG...  # those pytest arguments instead

prints one line per unrun statement outside ``ALLOWED`` and exits 1 if there
is any, or with pytest's own status if a test fails.  Only the standard
library is used; ``tests/test_line_trace.py`` runs it under the ``linetrace``
marker, which the default test run deselects.  Tracing about doubles the
run's time.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oam_eraser"

#: ``(file, enclosing function or class, statement's first line, reason)``;
#: ``None`` for the function allows the whole file, for the line the whole function
ALLOWED = (
    ("__main__.py", None, None,
     "runs only as `python -m oam_eraser`, in the CLI tests' subprocesses"),
    ("cli.py", "entry", None,
     "the console script's entry point; runs only in subprocesses"),
    ("cli.py", None, "entry()",
     "the `python cli.py` guard's call; runs only when the module is a script"),
    ("elements.py", "sign_at", "sector = n_sectors - 1",
     "binary_mask_overlap's guard for u == 2 pi: sectors are read at midpoints at "
     "least 5e-14 from every cut, and 300k random angles (|theta| up to 1e6) never "
     "reached it"),
)


def statements(path: Path) -> list:
    """``(first line, lines, enclosing name, first line's text)`` of every
    executable statement in one source file; ``lines`` are the lines whose
    execution counts as the statement's."""
    source = path.read_text(encoding="utf-8")
    code_lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    text = source.splitlines()
    found = []

    def visit(body, scope):
        for i, node in enumerate(body):
            if (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue  # a docstring
            inner = getattr(node, "body", None)
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            last = inner[0].lineno - 1 if inner else node.end_lineno
            lines = set(range(first, max(first, last) + 1))
            if lines & code_lines:
                found.append((node.lineno, lines, scope, text[node.lineno - 1].strip()))
            name = getattr(node, "name", None)
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, ()), name if name and field == "body" else scope)
            for handler in getattr(node, "handlers", ()):
                visit(handler.body, scope)
            for case in getattr(node, "cases", ()):
                visit(case.body, scope)

    visit(ast.parse(source).body, None)
    return found


def allowed(file: str, scope, line: str) -> bool:
    return any(file == f and (s is None or s == scope) and (t is None or t == line)
               for f, s, t, _ in ALLOWED)


def trace(args: list) -> tuple:
    """Run pytest with ``args`` under the tracer; returns ``(exit status,
    {file: lines that ran})`` for the package's files."""
    ran = {str(path.resolve()): set() for path in PACKAGE.glob("*.py")}
    by_name = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        lines = by_name.get(name, by_name)
        if lines is by_name:
            lines = by_name[name] = ran.get(os.path.realpath(name))
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    import pytest  # before tracing starts: its import is not the package's

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def unrun(ran: dict) -> list:
    """``file:line  text`` of each executable statement that did not run and
    that ``ALLOWED`` does not name."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran[str(path.resolve())]
        for first, span, scope, text in statements(path):
            if not span & lines and not allowed(path.name, scope, text):
                out.append(f"{path.relative_to(ROOT)}:{first}  {text}")
    return out


def main(argv: list) -> int:
    os.chdir(ROOT)
    status, ran = trace(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    missed = unrun(ran)
    print(f"\n{len(missed)} statement(s) of src/oam_eraser never ran outside the allowlist")
    for entry in missed:
        print(entry)
    if status:
        print(f"pytest exited {status}: the trace is incomplete")
        return status
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
