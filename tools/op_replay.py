"""Replay the conv forwards that the serve and pinned grid workloads run
through a parent checkout's ``ops.py`` and this checkout's, in one process,
and print the fastest time of each side.

    python3 tools/op_replay.py PARENT [--repeats N] [--batches 1 25 32]

PARENT is another checkout of the repository, for instance a ``git archive``
of the parent commit unpacked into a directory. Its ``src/latentwire`` is
imported as a second package beside this checkout's, so both kernels run on
the same interpreter, BLAS and CPU. The geometries are every conv that the
benchmark's pinned grid builds (family A at CR 1/4/8/16, autoencoders and
classifiers, on its synthetic image shape), which include the serve
workload's CR=4 encoder and classifier. Each runs at each batch size on the
same seeded float32 operands, with the arguments ``Network.forward`` gives a
training forward, which every checkout accepts.

The two sides alternate, the parent first on even repeats and the change
first on odd ones, so a drift of the machine's speed reaches both. Each
time is the minimum over the repeats, in microseconds. The tool refuses,
with exit code 1, unless the two sides' outputs are byte-equal: it compares
kernels that must keep the bits.

One ``conv`` line per geometry and batch, then one ``total`` line per
batch. BLAS is pinned to the benchmark's one thread and the process to one
CPU, with ``pin_blas_threads`` and ``pin_cpu`` from ``perfbench/run.py``.
"""

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import pin_blas_threads, pin_cpu  # noqa: E402

pin_blas_threads()

import numpy as np  # noqa: E402

import latentwire as lw  # noqa: E402
import latentwire.ops  # noqa: E402
from latentwire.zoo import build_vanilla_classifier, infer_shapes  # noqa: E402
from workloads import GridWorkload  # noqa: E402


def load_ops(root, name="parent_latentwire"):
    """The ``ops`` module of `root`/src/latentwire, imported as package `name`."""
    pkg = Path(root) / "src" / "latentwire"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.ops")


def grid_convs():
    """(input shape, filters, padding, upsample) of every conv the pinned grid
    builds, sorted."""
    grid = GridWorkload()
    image, classes = grid.image_shape, grid.spec.num_classes
    specs, inputs = [], [image]
    for cr in grid.ratios[1:]:
        pair = lw.build_autoencoder(image, cr)
        specs += [pair.encoder, pair.decoder]
        inputs.append(pair.latent_shape)
    specs += [build_vanilla_classifier(shape, "A", classes) for shape in inputs]
    return sorted({(tuple(shape), layer.filters, layer.padding, layer.upsample)
                   for spec in specs
                   for layer, shape in zip(spec.layers, infer_shapes(spec))
                   if layer.kind == "conv2d"})


def replay(parent, change, geometries, batches, repeats):
    """Yield (geometry, batch, parent seconds, change seconds), each the
    minimum over `repeats` alternating calls; raise SystemExit on the first
    geometry whose outputs differ in any byte."""
    for shape, f, padding, upsample in geometries:
        for n in batches:
            r = np.random.default_rng([n, *shape, f])
            x = r.standard_normal((n, *shape)).astype(np.float32)
            w = (0.1 * r.standard_normal((3, 3, shape[2], f))).astype(np.float32)
            b = (0.1 * r.standard_normal(f)).astype(np.float32)
            best = [float("inf"), float("inf")]
            outputs = [None, None]
            for i in range(repeats):
                for side in (0, 1) if i % 2 == 0 else (1, 0):
                    ops = (parent, change)[side]
                    start = perf_counter()
                    y, _ = ops.conv2d(x, w, b, padding=padding, upsample=upsample)
                    best[side] = min(best[side], perf_counter() - start)
                    outputs[side] = y
            if outputs[0].tobytes() != outputs[1].tobytes():
                raise SystemExit(f"refused: outputs differ at {shape} -> {f} {padding} "
                                 f"upsample={upsample} n={n}")
            yield (shape, f, padding, upsample), n, best[0], best[1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="root of the checkout to compare against")
    ap.add_argument("--repeats", type=int, default=100)
    ap.add_argument("--batches", type=int, nargs="+", default=[1, 25, 32])
    args = ap.parse_args(argv)
    pin_cpu()
    totals = {n: [0.0, 0.0] for n in args.batches}
    for (shape, f, padding, upsample), n, t0, t1 in replay(
            load_ops(args.parent), lw.ops, grid_convs(), args.batches, args.repeats):
        totals[n][0] += t0
        totals[n][1] += t1
        geometry = "x".join(map(str, shape)) + f"->{f} {padding}" + (" upsample" * upsample)
        print(f"conv {geometry} n={n} parent_us={t0 * 1e6:.1f} change_us={t1 * 1e6:.1f} "
              f"change/parent={t1 / t0:.3f}")
    for n, (t0, t1) in totals.items():
        print(f"total n={n} parent_us={t0 * 1e6:.1f} change_us={t1 * 1e6:.1f} "
              f"change/parent={t1 / t0:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
