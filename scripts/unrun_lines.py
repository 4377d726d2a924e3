#!/usr/bin/env python3
"""List the lines of ``src/arcshoot`` that no tier-1 test executes.

    python scripts/unrun_lines.py [PYTEST_ARGS ...]

Runs the tier-1 suite (``tests/``, plus any extra pytest arguments) in this
process with a line tracer on the frames of ``src/arcshoot``, then prints
``path:line: source`` for every executable line there that no test reached
(the line table is the stdlib ``trace`` module's), and a count.  The suite
runs about twice as long as under plain pytest.

The lines in ``EXPLAINED`` are the ones README gives a reason for.  Each is
named by its file, the text of the line before it and its own text, not by
its number, so an edit elsewhere in the file does not move it; it is listed
with the note ``(explained in README)``.  Exits 1 if a test fails or any
other line is left, 0 otherwise.
"""

import sys
import trace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "arcshoot"
# (file, text of the line before, text of the line) of each unrun line README explains.
EXPLAINED = {
    ("cli.py", 'if __name__ == "__main__":', "sys.exit(main())"),
    ("direct_init.py", "if np.max(np.abs(z - z_old)) == 0.0:", "break"),
}


def main() -> int:
    # trace.Trace caches its ignore decision per module basename, so one
    # ignored stdlib __init__ would hide every package __init__; filter here.
    hit = set()

    def on_line(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    sys.settrace(lambda frame, event, arg:
                 on_line if frame.f_code.co_filename.startswith(str(SRC)) else None)
    try:
        code = pytest.main(["-q", str(ROOT / "tests"), *sys.argv[1:]])
    finally:
        sys.settrace(None)
    unrun = explained = 0
    for path in sorted(SRC.glob("*.py")):
        source = [""] + [line.strip() for line in path.read_text().splitlines()]
        for line in sorted(trace._find_executable_linenos(str(path))):
            if line > 0 and (str(path), line) not in hit:    # 0: the module's own entry
                known = (path.name, source[line - 1], source[line]) in EXPLAINED
                note = " (explained in README)" if known else ""
                print(f"{path.relative_to(ROOT)}:{line}: {source[line]}{note}")
                explained += known
                unrun += not known
    print(f"{unrun} unrun lines, {explained} explained in README; pytest exit code {int(code)}")
    return int(code != 0 or unrun > 0)


if __name__ == "__main__":
    sys.exit(main())
