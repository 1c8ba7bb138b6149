"""Replay the conv forwards and backwards that the serve and pinned grid
workloads run through a parent checkout's ``ops.py`` and this checkout's, in
one process, and print the fastest time of each side.

    python3 tools/op_replay.py PARENT [--repeats N] [--batches 1 25 32]

PARENT is another checkout of the repository, for instance a ``git archive``
of the parent commit unpacked into a directory. Its ``src/latentwire`` is
imported as a second package beside this checkout's, so both kernels run on
the same interpreter, BLAS and CPU. The geometries are every conv that the
benchmark's pinned grid builds (family A at CR 1/4/8/16, autoencoders and
classifiers, on its synthetic image shape), which include the serve
workload's CR=4 encoder and classifier. Each runs at each batch size on the
same seeded float32 operands, with the arguments ``Network.forward`` gives a
training forward, which every checkout accepts. The backward replay runs
``ops.backward`` on each side's own fresh caching forward, with ``need_dx``
as ``Network.backward`` sets it in the grid's fits: False at a network's
first layer with weights. A geometry that runs both ways replays both.

The two sides alternate, the parent first on even repeats and the change
first on odd ones, so a drift of the machine's speed reaches both. Each
time is the minimum over the repeats, in microseconds. The tool refuses,
with exit code 1, unless the two sides' outputs (a backward's dx, dW and db)
are byte-equal: it compares kernels that must keep the bits.

One ``conv`` line per geometry and batch, then one ``total conv`` line per
batch; then the same as ``conv_backward`` and ``total conv_backward`` lines.
BLAS is pinned to the benchmark's one thread and the process to one CPU,
with ``pin_blas_threads`` and ``pin_cpu`` from ``perfbench/run.py``.
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
from latentwire.zoo import KERNEL, ModelSpec, build_vanilla_classifier, infer_shapes  # noqa: E402
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


def _grid_specs():
    """The networks the pinned grid trains: each autoencoder as its fit's one
    encoder-decoder chain, and each family-A classifier."""
    grid = GridWorkload()
    image, classes = grid.image_shape, grid.spec.num_classes
    specs, inputs = [], [image]
    for cr in grid.ratios[1:]:
        pair = lw.build_autoencoder(image, cr)
        specs.append(ModelSpec(pair.encoder.layers + pair.decoder.layers, image))
        inputs.append(pair.latent_shape)
    return specs + [build_vanilla_classifier(shape, "A", classes) for shape in inputs]


def grid_backwards():
    """(input shape, filters, padding, upsample, need_dx) of every conv
    backward the pinned grid runs, sorted. need_dx is False at a network's
    first layer with weights, as ``Network.backward`` sets it."""
    convs = set()
    for spec in _grid_specs():
        first = next(i for i, layer in enumerate(spec.layers)
                     if layer.kind in ("conv2d", "dense"))
        convs.update((tuple(shape), layer.filters, layer.padding, layer.upsample, i > first)
                     for i, (layer, shape) in enumerate(zip(spec.layers, infer_shapes(spec)))
                     if layer.kind == "conv2d")
    return sorted(convs)


def grid_convs():
    """(input shape, filters, padding, upsample) of every conv the pinned grid
    builds, sorted."""
    return sorted({conv[:4] for conv in grid_backwards()})


def _operands(shape, f, n):
    """Seeded float32 x, w and b of one conv geometry at batch n."""
    r = np.random.default_rng([n, *shape, f])
    x = r.standard_normal((n, *shape)).astype(np.float32)
    w = (0.1 * r.standard_normal((KERNEL, KERNEL, shape[2], f))).astype(np.float32)
    b = (0.1 * r.standard_normal(f)).astype(np.float32)
    return x, w, b


def _race(sides, run, repeats):
    """Call ``run(ops)`` for the two sides' ops alternately, the parent first
    on even repeats and the change first on odd ones; `run` returns (seconds,
    output bytes). Returns each side's fastest seconds and last bytes."""
    best, outputs = [float("inf"), float("inf")], [None, None]
    for i in range(repeats):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            seconds, outputs[side] = run(sides[side])
            best[side] = min(best[side], seconds)
    return best, outputs


def replay(parent, change, geometries, batches, repeats):
    """Yield (geometry, batch, parent seconds, change seconds), each the
    minimum over `repeats` alternating calls; raise SystemExit on the first
    geometry whose outputs differ in any byte."""
    for shape, f, padding, upsample in geometries:
        for n in batches:
            x, w, b = _operands(shape, f, n)

            def forward(ops):
                start = perf_counter()
                y, _ = ops.conv2d(x, w, b, padding=padding, upsample=upsample)
                return perf_counter() - start, y.tobytes()

            best, outputs = _race((parent, change), forward, repeats)
            if outputs[0] != outputs[1]:
                raise SystemExit(f"refused: outputs differ at {shape} -> {f} {padding} "
                                 f"upsample={upsample} n={n}")
            yield (shape, f, padding, upsample), n, best[0], best[1]


def replay_backward(parent, change, geometries, batches, repeats):
    """As `replay`, for the conv backward of each (shape, f, padding,
    upsample, need_dx) in `geometries`: each call runs a side's
    ``ops.backward`` with that need_dx on the cache of a fresh forward of the
    same side, and only the backward is timed. The tool refuses unless dx,
    dW and db are byte-equal on both sides."""
    for shape, f, padding, upsample, need_dx in geometries:
        for n in batches:
            x, w, b = _operands(shape, f, n)
            y, _ = change.conv2d(x, w, b, padding=padding, upsample=upsample)
            g = np.random.default_rng([n, *shape, f, 1]).standard_normal(y.shape).astype(
                np.float32)

            def backward(ops):
                _, cache = ops.conv2d(x, w, b, padding=padding, upsample=upsample)
                start = perf_counter()
                dx, grads = ops.backward(cache, g, need_dx=need_dx)
                seconds = perf_counter() - start
                return seconds, (dx if dx is None else dx.tobytes(),
                                 grads["w"].tobytes(), grads["b"].tobytes())

            best, outputs = _race((parent, change), backward, repeats)
            if outputs[0] != outputs[1]:
                raise SystemExit(f"refused: backward differs at {shape} -> {f} {padding} "
                                 f"upsample={upsample} need_dx={need_dx} n={n}")
            yield (shape, f, padding, upsample, need_dx), n, best[0], best[1]


def _print_rows(kind, rows, batches):
    """Print one `kind` line per replayed row and one total line per batch."""
    totals = {n: [0.0, 0.0] for n in batches}
    for (shape, f, padding, upsample, *need_dx), n, t0, t1 in rows:
        totals[n][0] += t0
        totals[n][1] += t1
        geometry = "x".join(map(str, shape)) + f"->{f} {padding}" + (" upsample" * upsample)
        geometry += "".join(f" need_dx={flag}" for flag in need_dx)
        print(f"{kind} {geometry} n={n} parent_us={t0 * 1e6:.1f} change_us={t1 * 1e6:.1f} "
              f"change/parent={t1 / t0:.3f}")
    for n, (t0, t1) in totals.items():
        print(f"total {kind} n={n} parent_us={t0 * 1e6:.1f} change_us={t1 * 1e6:.1f} "
              f"change/parent={t1 / t0:.3f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="root of the checkout to compare against")
    ap.add_argument("--repeats", type=int, default=100)
    ap.add_argument("--batches", type=int, nargs="+", default=[1, 25, 32])
    args = ap.parse_args(argv)
    pin_cpu()
    parent = load_ops(args.parent)
    _print_rows("conv", replay(parent, lw.ops, grid_convs(), args.batches, args.repeats),
                args.batches)
    _print_rows("conv_backward", replay_backward(parent, lw.ops, grid_backwards(),
                                                 args.batches, args.repeats), args.batches)
    return 0


if __name__ == "__main__":
    sys.exit(main())
