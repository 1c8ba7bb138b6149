"""Print how much memory each cell of the pinned grid allocates at its peak,
then the process's max RSS.

    python3 tools/peak_memory.py

Runs the benchmark's pinned grid config (``GridWorkload().setup(0)`` from
``perfbench/workloads.py``) on the ``latentwire`` in this checkout's ``src``,
one cell at a time: the grid's data is made once, then each (ratio, seed)
cell runs through ``run_cell`` in the order ``run_experiment`` runs them.
Each line gives a cell's ``tracemalloc`` peak above what was allocated when
the cell began, so it names the cell that sets the grid's high-water mark
and the one a memory change moves. numpy reports its array buffers to
``tracemalloc``, so the peak covers the activations and caches of every fit.
The last line is ``ru_maxrss`` of the whole process, which also holds the
interpreter, the libraries and ``tracemalloc``'s own records, so it reads
above the benchmark's untraced ``peak_rss_mb``. MB means 2**20 bytes, as in
the benchmark.

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
from workloads import GridWorkload  # noqa: E402

MB = 2**20


def cell_peaks(cfg):
    """(cr, seed, bytes) per cell of `cfg` in run order: the cell's traced
    peak above the traced memory at its start."""
    name, train, test = latentwire.experiment.load_experiment_data(cfg)
    peaks = []
    tracemalloc.start()
    try:
        for seed in cfg.seeds:
            for cr in cfg.ratios:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                latentwire.experiment.run_cell(name, train, test, cfg, cr, seed)
                peaks.append((cr, seed, tracemalloc.get_traced_memory()[1] - start))
    finally:
        tracemalloc.stop()
    return peaks


def main(cfg=None):
    for cr, seed, peak in cell_peaks(cfg or GridWorkload().setup(0)):
        print(f"cr={cr:g} seed={seed} traced_peak_mb={peak / MB:.1f}")
    print(f"ru_maxrss_mb={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
