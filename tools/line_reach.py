"""Print the ``src/`` lines that no tier-1 test executes and check them
against ``NOT_RUN``.

    python3 tools/line_reach.py

Runs the tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace``, so no ``coverage`` package is needed. The
executable lines of each module under ``src/latentwire`` are the lines its
code objects map instructions to (``co_lines``, nested code objects
included). The report lists, by file, each executable line that never ran,
then the total. ``NOT_RUN`` lists each such line by file and stripped
source text, with the reason it stays; the exit status is non-zero when
pytest fails, when a line that did not run is missing from ``NOT_RUN``, or
when an entry names a line that now runs or no longer exists.

Tracing makes the suite take about 1.6 times as long, so this is a tool,
not a tier-1 test.
"""

import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latentwire"
TIER1_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]

# (file, stripped source text, reason) for each src/ line that no test runs.
# A text that stands on several unrun lines of a file is listed once per line.
NOT_RUN = [
    ("cli.py", "sys.exit(main())", "runs only when cli.py is run as a script; tests call main"),
]


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
    not_run = Counter()
    lines_total = 0
    print()
    for path in paths:
        lines = executable_lines(path)
        missed = sorted(lines - ran[str(path)])
        lines_total += len(lines)
        if not missed:
            continue
        source = path.read_text().splitlines()
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} lines not run")
        for line in missed:
            text = source[line - 1].strip()
            not_run[path.name, text] += 1
            print(f"  {line:4d}  {text}")
    missed_total = sum(not_run.values())
    print(f"total: {lines_total - missed_total} of {lines_total} executable src/ lines run, "
          f"{missed_total} not run")
    listed = Counter((name, text) for name, text, _ in NOT_RUN)
    for (name, text), n in sorted((not_run - listed).items()):
        print(f"not run and not in NOT_RUN ({n}x): {name}: {text}")
    for (name, text), n in sorted((listed - not_run).items()):
        print(f"in NOT_RUN but run or gone ({n}x): {name}: {text}")
    return code or int(not_run != listed)


if __name__ == "__main__":
    sys.exit(main())
