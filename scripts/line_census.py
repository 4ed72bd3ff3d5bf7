#!/usr/bin/env python3
"""Line census: the function-body lines of src/graphcake that no test reaches.

Runs pytest in this process with a line tracer limited to frames of
``src/graphcake``, then prints ``module:line: source`` for every line that
``code.co_lines()`` places in a function body (the ``def`` line excluded) and
that never ran, and a total.  Lines reached only through a subprocess, such
as a CLI test that starts ``python -m graphcake``, show up as unreached, and
so may a line that only some of Hypothesis's random draws reach.  The
suite's wall-clock gates fail under the tracer by design, so pytest's exit
code is reported, not returned.

Usage: python scripts/line_census.py [pytest args ...]   (default: tests)
"""

import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = str(SRC / "graphcake")
sys.path.insert(0, str(SRC))


def body_lines(code):
    """Line numbers of every code object nested in ``code``, each one's first
    line (its ``def``, or its first decorator) left out."""
    lines = set()
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= {line for _, _, line in const.co_lines() if line and line != const.co_firstlineno}
            lines |= body_lines(const)
    return lines


def main(args):
    reached, ours = set(), {}

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = str(Path(name).resolve()).startswith(PACKAGE)
        return local if ours[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args or ["tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    seen = {(str(Path(name).resolve()), line) for name, line in reached}
    total = 0
    for path in sorted(Path(PACKAGE).glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for line in sorted(body_lines(compile(source, str(path), "exec"))):
            if (str(path), line) not in seen:
                total += 1
                print(f"{path.relative_to(SRC.parent)}:{line}: {text[line - 1].strip()}")
    print(f"{total} function-body lines unreached; pytest exit code {int(code)}")


if __name__ == "__main__":
    main(sys.argv[1:])
