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
    ("data.py", "raise DatasetFormatError(",
     "images and labels of unequal length; every LabeledDataset in src is built from "
     "one source"),
    ("data.py", 'f"{len(self.images)} images vs {len(self.labels)} labels")',
     "the message of the line above"),
    ("device.py", 'raise NotFittedError(f"device {self.device_id} has no local data")',
     "make_devices refuses a split that would leave a device empty"),
    ("device.py", 'raise ValueError(f"device {self.device_id} holds no {split!r} split")',
     "make_devices gives every device both splits"),
    ("initializers.py", 'raise ValueError("shape must be nonempty")',
     "Network._init_params asks only for conv and dense weight shapes"),
    ("losses.py", 'raise ShapeMismatchError(f"logits must be (B,K), got {lg.shape}")',
     "every classifier ends in a dense layer, so its logits are (B,K)"),
    ("losses.py", 'raise ShapeMismatchError(f"{b} logit rows vs labels {lab.shape}")',
     "_fit slices logits and labels from the same batch indices"),
    ("ops.py",
     'raise ShapeMismatchError(f"expected a rank-{ndim} batch, got shape {x.shape}")',
     "Network feeds each op the rank infer_shapes gives its layer"),
    ("ops.py",
     'raise ShapeMismatchError(f"conv weights must be (K,K,C,F), got {w.shape}")',
     "Network._init_params builds (K,K,C,F) conv weights"),
    ("ops.py", 'raise ShapeMismatchError(f"bias shape {b.shape} != ({f},)")',
     "Network._init_params builds one conv bias per filter"),
    ("ops.py", 'raise ValueError(f"unknown padding {padding!r}")',
     "LayerSpec refuses a padding other than valid or same first"),
    ("ops.py", 'raise ShapeMismatchError(f"bias shape {b.shape} != ({w.shape[1]},)")',
     "Network._init_params builds one dense bias per output"),
    ("ops.py", 'raise ValueError(f"dropout rate must be in [0,1), got {rate}")',
     "LayerSpec refuses a rate outside [0,1) first"),
    ("ops.py", 'raise ValueError("training-mode dropout needs an rng")',
     "_fit, the only caller with training=True, passes its rng"),
    ("optim.py", "raise ShapeMismatchError(",
     "an accumulator of another shape than its parameter; _ensure_slots builds each "
     "zeros_like its parameter, and _fit makes one optimizer per network"),
    ("optim.py", 'f"accumulator {acc.shape} vs parameter {p.shape}"',
     "the message of the line above"),
    ("optim.py", 'raise ShapeMismatchError(f"{len(params)} params vs {len(grads)} grads")',
     "Network.backward returns one gradient per parameter"),
    ("train.py", "raise ShapeMismatchError(",
     "data of another shape than the classifier's input; Hub.train_classifier builds "
     "the spec from the data's shape"),
    ("train.py", 'f"samples {data.sample_shape} vs model input {spec.input_shape}")',
     "the message of the line above"),
    ("zoo.py", 'raise ValueError(f"unknown layer kind {self.kind!r}")',
     "the zoo's layer helpers name only known kinds"),
    ("zoo.py", 'raise ValueError(f"{self.kind} layer needs {name}")',
     "each zoo layer helper sets its kind's fields"),
    ("zoo.py", 'raise ValueError(f"{self.kind} layer does not take {name}")',
     "each zoo layer helper sets only its kind's fields"),
    ("zoo.py", 'raise ValueError(f"unknown activation {self.fn!r}")',
     "the zoo asks only for relu and sigmoid"),
    ("zoo.py", 'raise ValueError(f"conv padding must be valid|same, got {self.padding!r}")',
     "the zoo passes only valid or same"),
    ("zoo.py", 'raise ValueError(f"dropout rate must be in [0,1), got {self.rate}")',
     "the zoo's dropout rates are 0.25 and 0.5"),
    ("zoo.py", "raise InvalidGeometryError(",
     "a spatial layer after flatten; no zoo model has one"),
    ("zoo.py", 'f"layer {index} ({layer.kind}) needs HxWxC input, got {shape}", index)',
     "the message of the line above"),
    ("zoo.py", "raise InvalidGeometryError(",
     "a dense layer before flatten; no zoo model has one"),
    ("zoo.py", 'f"layer {index}: dense needs a flat input, got {shape}", index)',
     "the message of the line above"),
    ("zoo.py",
     'raise UnachievableRatioError(f"compression ratio must be positive, got {cr}")',
     "ExperimentConfig refuses ratios <= 0 first"),
    ("zoo.py", "raise UnachievableRatioError(",
     "build_autoencoder picks the latent channels that give the requested ratio"),
    ("zoo.py", 'f"built ratio {achieved} != requested {requested}")',
     "the message of the line above"),
    ("zoo.py", 'raise ValueError(f"unknown classifier family {family!r}")',
     "ExperimentConfig and the run flags take only FAMILIES"),
    ("zoo.py", 'raise InvalidGeometryError(f"first conv block does not fit {h}x{w}x{c}")',
     "inputs under 3x3 are refused first, and a 3x3 conv fits a 3x3 input"),
    ("zoo.py", "raise InvalidGeometryError(",
     "fewer trunk features than classes; the first conv block leaves at least 32 "
     "features, and a dataset has at most 10 classes"),
    ("zoo.py", 'f"trunk leaves {features} features for {num_classes} classes")',
     "the message of the line above"),
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
