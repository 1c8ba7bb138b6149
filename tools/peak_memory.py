"""Print how much memory each cell of the pinned grid allocates at its peak,
split by stage, then the stage that sets the grid's high-water mark and the
process's max RSS.

    python3 tools/peak_memory.py

Runs the benchmark's pinned grid config (``GridWorkload().setup(0)`` from
``perfbench/workloads.py``) on the ``latentwire`` in this checkout's ``src``,
one cell at a time: the grid's data is made once, then each (ratio, seed)
cell runs through ``run_cell`` in the order ``run_experiment`` runs them.
Each cell's line gives its ``tracemalloc`` peak above what was allocated
when the cell began, for each stage and overall: ``ae_fit`` covers the
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

BLAS is pinned to one thread before numpy is imported, as in the benchmark.
"""

import os
import resource
import sys
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

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
    name, train, test = latentwire.experiment.load_experiment_data(cfg)

    def close(stage):
        # the segment since the last boundary ran in `stage`
        peak = tracemalloc.get_traced_memory()[1] - start
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

    originals = [(cls, attr, getattr(cls, attr)) for _, cls, attr in STAGES]
    for stage, cls, attr in STAGES:
        setattr(cls, attr, staged(stage, getattr(cls, attr)))
    cells = []
    tracemalloc.start()
    try:
        for seed in cfg.seeds:
            for cr in cfg.ratios:
                peaks = {}
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                latentwire.experiment.run_cell(name, train, test, cfg, cr, seed)
                close(REST)
                cells.append((cr, seed, peaks))
    finally:
        tracemalloc.stop()
        for cls, attr, method in originals:
            setattr(cls, attr, method)
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
