"""Line reach: every executable line of ``src/`` that the default tests never run.

    python3 mutants/reach.py            # tier-1 under a tracer, about four times slower

It runs the default pytest suite in this process under a ``sys.settrace``
tracer (threads included) and counts the executable lines of each file
under ``src/`` from its code objects' ``co_lines()``.  It prints each line
the suite never ran as ``path:line: source``, then how many ran.  The exit
status is pytest's if the suite failed, else 1 if any line went unrun,
else 0.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def executable(code: types.CodeType) -> set[int]:
    """The lines of ``code`` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}  # a module starts at line 0
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable(const)
    return lines


def main(args: list[str]) -> int:
    files = {str(path): path.read_text() for path in sorted(SRC.rglob("*.py"))}
    wanted = {name: executable(compile(text, name, "exec")) for name, text in files.items()}
    ran: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in wanted:
            return None  # no line events for code outside src/
        ran.add((name, frame.f_lineno))
        return trace

    os.chdir(ROOT)  # the suite's settings live in pyproject.toml
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for name, lines in wanted.items():
        source = files[name].splitlines()
        for line in sorted(lines):
            total += 1
            if (name, line) not in ran:
                missed += 1
                print(f"{Path(name).relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"ran {total - missed} of {total} executable lines of src/")
    return int(status) or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
