"""Print the ``src/`` lines that no tier-1 test executes; with
``--traffic``, print the lines that the benchmark's traffic and two
``latentwire run`` calls never execute.

    python3 tools/line_reach.py
    python3 tools/line_reach.py --traffic

Runs the tier-1 suite (or the traffic) in this process under
``sys.settrace`` and ``threading.settrace``, so no ``coverage`` package is
needed. The executable lines of each module under ``src/latentwire`` are
the lines its code objects map instructions to (``co_lines``, nested code
objects included). The report lists, by file, each executable line that
never ran, then the total. Both modes end with a ``src lines (wc -l): N``
line, the net ``src/`` line count that each change logs.

In the default mode every executable line must run: the exit status is
non-zero when pytest fails or when any line did not run, so a new line
comes with a test. Tracing makes the suite take about 1.6 times as long, so
this is a tool, not a tier-1 test.

``--traffic`` runs what the program does in use, not what the tests reach:
one set-up, pass and check of each workload in ``perfbench/workloads.py`` at
short settings (the grid with one epoch per fit and no accuracy reference,
serve with one classifier epoch, wire with 200 TCP frames and 10 hostile
stream blocks), the same grid with classifier family B, and ``cli.main``
twice into a temporary directory: once with ``--config`` and a ``.json``
report, once with flags and a ``.csv`` report. A line it lists is code that
only tests, error paths or settings these runs leave alone reach. It then
names each cache kind in ``ops._BACKWARD`` that no ``ops.backward`` call of
these runs dispatched: a backward that only tests reach, whose lines the
tier-1 trace counts as run, and last splits the unrun lines in two: those
within a ``raise`` statement's line span, continuation lines included, and
all others. The exit status is non-zero when a workload check or a
``run`` fails, or when a cache kind goes undispatched, as an unrun line
fails the default mode.
"""

import argparse
import ast
import json
import sys
import tempfile
import threading
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

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


def raise_lines(path):
    """Line numbers that fall within a raise statement of the module."""
    return {line for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}


def traced_run(files, run):
    """Call `run` with a line tracer on `files`; returns (what it returned,
    {file: lines run})."""
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
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, ran


def tier1():
    """The tier-1 suite's exit code."""
    return int(pytest.main(TIER1_ARGS + [str(ROOT / "tests")]))


def traffic():
    """Run the benchmark's workloads and two `latentwire run` calls; returns
    one line per failed check or run, and the sorted cache kinds that no
    backward of these runs dispatched. The package is imported here, under
    the tracer, so its module-level lines count as run."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from latentwire import cli, ops
    from workloads import GridWorkload, ServeWorkload, WireWorkload

    dispatched, full_backward = set(), ops.backward

    def backward(cache, grad, need_dx=True):
        dispatched.add(cache.kind)
        return full_backward(cache, grad, need_dx)

    with patch.object(ops, "backward", backward):
        failures = []
        grid = GridWorkload(ae_epochs=1, clf_epochs=1, reference=None)
        serve = ServeWorkload(clf_epochs=1, warmup=0)
        wire = WireWorkload(tcp_frames=200, stream_blocks=10)
        for label, workload, state in (
                ("grid", grid, grid.setup(0)),
                ("grid family=B", grid, replace(grid.setup(0), family="B")),
                ("serve", serve, serve.setup(0)),
                ("wire", wire, wire.setup(0))):
            failures += [f"{label}: {e}" for e in workload.check([workload.run_pass(state)])]

        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "grid.json"
            config.write_text(json.dumps({
                "format": "latentwire-config", "version": 1,
                "synthetic": {"image_size": [16, 16, 3], "samples_per_class": 30},
                "ratios": [1, 4], "n_devices": 2, "ae": {"epochs": 1}, "clf": {"epochs": 1}}))
            # the first call's logging set-up holds for the second, so --verbose
            # goes with the first
            for argv in (["--verbose", "run", "--config", str(config),
                          "--out", f"{tmp}/report.json"],
                         ["run", "--ratios", "1,16", "--family", "A",
                          "--devices", "2", "--seeds", "0,1", "--ae-epochs", "1",
                          "--clf-epochs", "1", "--batch-size", "16", "--jobs", "2",
                          "--out", f"{tmp}/report.csv"]):
                code = cli.main(argv)
                if code:
                    failures.append(f"latentwire {' '.join(argv[:3])}: exit status {code}")
    return failures, sorted(set(ops._BACKWARD) - dispatched)


def print_unrun(paths, ran):
    """Print, by file, each executable line that never ran, then the total;
    returns the number of those lines."""
    lines_total = missed_total = 0
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
    return missed_total


def print_src_lines(paths):
    """Print the package's line count as ``wc -l`` counts it: newlines."""
    lines = sum(path.read_bytes().count(b"\n") for path in paths)
    print(f"src lines (wc -l): {lines}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traffic", action="store_true",
                        help="trace the benchmark's traffic and two runs, not tier-1")
    args = parser.parse_args(argv)
    paths = sorted(PACKAGE.glob("*.py"))
    files = {str(p) for p in paths}
    if args.traffic:
        (failures, undispatched), ran = traced_run(files, traffic)
        print_unrun(paths, ran)
        print(f"cache kinds no backward dispatched: {', '.join(undispatched) or 'none'}")
        unrun = {path: executable_lines(path) - ran[str(path)] for path in paths}
        inside = sum(len(lines & raise_lines(path)) for path, lines in unrun.items())
        outside = sum(map(len, unrun.values())) - inside
        print(f"not run: {inside} lines inside raise statements, {outside} outside")
        for line in failures:
            print(f"failed: {line}")
        print_src_lines(paths)
        return int(bool(failures or undispatched))
    code, ran = traced_run(files, tier1)
    missed = print_unrun(paths, ran)
    print_src_lines(paths)
    return code or int(bool(missed))


if __name__ == "__main__":
    sys.exit(main())
