"""Print the ``src/`` lines that no tier-1 test executes.

    python3 tools/line_reach.py

Runs the tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace``, so no ``coverage`` package is needed. The
executable lines of each module under ``src/latentwire`` are the lines its
code objects map instructions to (``co_lines``, nested code objects
included). The report lists, by file, each executable line that never ran,
then the total. It only reports: the exit status is pytest's.

Tracing makes the suite take about 1.6 times as long, so this is a tool,
not a tier-1 test.
"""

import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latentwire"
TIER1_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def executable_lines(path):
    """Line numbers that the module's code objects map instructions to."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(files):
    """Run pytest with a line tracer on `files`; returns (exit code, {file: lines run})."""
    ran = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        # a code object's first instruction (its `def` line for a function)
        # raises a call event, not a line event
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(TIER1_ARGS + [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main():
    paths = sorted(PACKAGE.glob("*.py"))
    files = {str(p) for p in paths}
    code, ran = traced_run(files)
    missed_total = lines_total = 0
    print()
    for path in paths:
        lines = executable_lines(path)
        missed = sorted(lines - ran[str(path)])
        lines_total += len(lines)
        missed_total += len(missed)
        if not missed:
            continue
        source = path.read_text().splitlines()
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} lines not run")
        for line in missed:
            print(f"  {line:4d}  {source[line - 1].strip()}")
    print(f"total: {lines_total - missed_total} of {lines_total} executable src/ lines run, "
          f"{missed_total} not run")
    return code


if __name__ == "__main__":
    sys.exit(main())
