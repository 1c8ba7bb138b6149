"""Print the pinned grid's accuracies and parameter counts, a sha256 of its
data, one sha256 over every network it trains and one over every frame it
pushes; then the same grid's lines with the classifier family set to B, and
a count of subnormal gradients.

    python3 tools/grid_digest.py

Runs the benchmark's pinned grid config (``GridWorkload().setup(0)`` from
``perfbench/workloads.py``) through ``run_experiment`` on the ``latentwire``
in this checkout's ``src``. Each ``cr=`` line holds the cell's accuracy and
its report ``params``, the model-complexity column. ``data_sha256`` hashes
the bytes of ``gen_synthetic(GridWorkload().spec, seed=0)``: train images,
train labels, test images, test labels, in that order, as
``tests/test_data.py`` pins them. Every ``train._fit`` result is hashed: each layer's parameter arrays
by key, then the loss and metric histories as float64. The digest is the
sha256 of the per-network digests in training order. A kernel change that
keeps every GEMM's operands, layout and summation order prints the same
digest as its parent; a data-path change that keeps every byte prints the
same ``data_sha256``. ``frames_sha256`` hashes every LTNT frame that
``encode_record`` builds for the devices' pushes, in push order, so a codec
change that keeps the wire bytes prints the same value.

After ``family=B`` come the ``cr=`` lines, ``networks=`` and ``sha256=`` of
the same config with ``family="B"``, which no benchmark workload trains
(about 20 s more). ``subnormal_grads`` counts the gradients entering
``ops.backward``, over both grids, that hold a nonzero entry below float32's
smallest normal: such operands make a backward several times slower on x86,
and the classifier loss keeps them out, so it reads 0.

Results are bit-reproducible only at a fixed BLAS thread count, so BLAS is
pinned to the benchmark's one thread (``pin_blas_threads`` from
``perfbench/run.py``) before numpy is imported.
"""

import hashlib
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import pin_blas_threads  # noqa: E402

pin_blas_threads()

import numpy as np  # noqa: E402

import latentwire as lw  # noqa: E402
import latentwire.device  # noqa: E402
import latentwire.ops  # noqa: E402
import latentwire.train  # noqa: E402
from workloads import GridWorkload  # noqa: E402


def network_digest(net, hist):
    h = hashlib.sha256()
    for layer in net.params:
        for key in sorted(layer):
            h.update(layer[key].tobytes())
    h.update(np.asarray(hist.losses, np.float64).tobytes())
    h.update(np.asarray(hist.metrics, np.float64).tobytes())
    return h.digest()


@contextmanager
def hashed_fits():
    """While open, append the ``network_digest`` of every ``train._fit``
    result to the list it yields, in training order."""
    digests = []
    fit = lw.train._fit

    def hashed_fit(*args, **kwargs):
        net, hist = fit(*args, **kwargs)
        digests.append(network_digest(net, hist))
        return net, hist

    with patch.object(lw.train, "_fit", hashed_fit):
        yield digests


def data_digest(spec):
    train, test = lw.gen_synthetic(spec, seed=0)
    h = hashlib.sha256()
    for a in (train.images, train.labels, test.images, test.labels):
        h.update(a.tobytes())
    return h.hexdigest()


def digest_grid(cfg):
    """Run the grid of `cfg`, print its ``cr=`` lines and return (whether a
    cell failed, the sha256 of each trained network in training order)."""
    with hashed_fits() as digests:
        report = lw.run_experiment(cfg)
    for row in sorted(report.rows, key=lambda r: r.cr):
        print(f"cr={row.cr:g} accuracy={row.accuracy} params={row.params}"
              + (f" failed: {row.error}" if row.failed else ""))
    return any(row.failed for row in report.rows), digests


def main():
    frames = hashlib.sha256()
    encode = lw.device.encode_record

    def hashed_encode(record):
        frame = encode(record)
        frames.update(frame)
        return frame

    subnormal = 0
    backward = lw.ops.backward
    tiny = np.finfo(np.float32).tiny

    def counted_backward(cache, grad, need_dx=True):
        nonlocal subnormal
        g = np.abs(grad)
        subnormal += bool(((g > 0) & (g < tiny)).any())
        return backward(cache, grad, need_dx=need_dx)

    cfg = GridWorkload().setup(0)
    with patch.object(lw.ops, "backward", counted_backward):
        with patch.object(lw.device, "encode_record", hashed_encode):
            failed, digests = digest_grid(cfg)
        print(f"data_sha256={data_digest(GridWorkload().spec)}")
        print(f"networks={len(digests)}")
        print(f"sha256={hashlib.sha256(b''.join(digests)).hexdigest()}")
        print(f"frames_sha256={frames.hexdigest()}")
        print("family=B")
        failed_b, digests = digest_grid(replace(cfg, family="B"))
    print(f"networks={len(digests)}")
    print(f"sha256={hashlib.sha256(b''.join(digests)).hexdigest()}")
    print(f"subnormal_grads={subnormal}")
    return 1 if failed or failed_b else 0


if __name__ == "__main__":
    sys.exit(main())
