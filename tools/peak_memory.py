"""Print how much memory each cell of the pinned grid allocates at its peak,
split by stage, then the stage that sets the grid's high-water mark and the
process's max RSS.

    python3 tools/peak_memory.py

Runs the benchmark's pinned grid config (``GridWorkload().setup(0)`` from
``perfbench/workloads.py``) on the ``latentwire`` in this checkout's ``src``
through ``run_experiment`` with ``jobs=1``, so one cell runs at a time, with
``run_cell`` wrapped to mark where each cell begins and ends. Each cell's
line gives its ``tracemalloc`` peak above what was allocated when the cell
began, for each stage and overall: ``ae_fit`` covers the
devices' autoencoder fits, ``export`` their latent exports with the hub's
ingest of every frame, ``clf_fit`` the hub's classifier fit, and ``rest``
all else (partitioning and evaluation). The ``high_water`` line names the
cell and stage with the largest peak: the one a memory change must move to
move the grid's. numpy reports its array buffers to ``tracemalloc``, so the
peaks cover the activations and caches of every fit. The last line is
``ru_maxrss`` of the whole process, which also holds the interpreter, the
libraries and ``tracemalloc``'s own records, so it reads above the
benchmark's untraced ``peak_rss_mb``. MB means 2**20 bytes, as in the
benchmark.

BLAS is pinned to one thread before numpy is imported, by the benchmark's
own ``pin_blas_threads`` from ``perfbench/run.py``.
"""

import resource
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import pin_blas_threads  # noqa: E402

pin_blas_threads()

import latentwire.experiment  # noqa: E402
from latentwire.device import DeviceNode  # noqa: E402
from latentwire.hub import Hub  # noqa: E402
from workloads import GridWorkload  # noqa: E402

MB = 2**20
# (stage, class, method): each call of the method runs in the stage
STAGES = (("ae_fit", DeviceNode, "fit_autoencoder"),
          ("export", DeviceNode, "export_latents"),
          ("clf_fit", Hub, "train_classifier"))
REST = "rest"


def cell_peaks(cfg):
    """(cr, seed, {stage: bytes}) per cell of `cfg` in run order: each
    stage's traced peak above the traced memory at the cell's start."""
    cells = []
    start = 0

    def close(stage):
        # the segment since the last boundary ran in `stage`
        peak = tracemalloc.get_traced_memory()[1] - start
        peaks = cells[-1][2]
        peaks[stage] = max(peaks.get(stage, 0), peak)
        tracemalloc.reset_peak()

    def staged(stage, method):
        def run(*args, **kwargs):
            close(REST)
            try:
                return method(*args, **kwargs)
            finally:
                close(stage)
        return run

    def cell(run_cell):
        def run(name, train, test, cell_cfg, cr, seed):
            nonlocal start
            cells.append((cr, seed, {}))
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            try:
                return run_cell(name, train, test, cell_cfg, cr, seed)
            finally:
                close(REST)
        return run

    # run_experiment looks run_cell up when it calls it. Patched by hand:
    # unittest.mock imports asyncio, which would raise the ru_maxrss printed
    patches = [(cls, attr, staged(stage, getattr(cls, attr))) for stage, cls, attr in STAGES]
    patches.append((latentwire.experiment, "run_cell", cell(latentwire.experiment.run_cell)))
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, wrapped in patches:
        setattr(owner, attr, wrapped)
    tracemalloc.start()
    try:
        report = latentwire.experiment.run_experiment(replace(cfg, jobs=1))
    finally:
        tracemalloc.stop()
        for owner, attr, method in originals:
            setattr(owner, attr, method)
    for row in report.rows:
        if row.failed:
            raise RuntimeError(f"cell cr={row.cr:g} seed={row.seed} failed: {row.error}")
    return cells


def main(cfg=None):
    cells = cell_peaks(cfg or GridWorkload().setup(0))
    order = [stage for stage, _, _ in STAGES] + [REST]
    for cr, seed, peaks in cells:
        stages = " ".join(f"{stage}_mb={peaks.get(stage, 0) / MB:.1f}" for stage in order)
        print(f"cr={cr:g} seed={seed} {stages} traced_peak_mb={max(peaks.values()) / MB:.1f}")
    peak, cr, seed, stage = max((b, cr, seed, stage) for cr, seed, peaks in cells
                                for stage, b in peaks.items())
    print(f"high_water cr={cr:g} seed={seed} stage={stage} traced_peak_mb={peak / MB:.1f}")
    print(f"ru_maxrss_mb={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
