#!/usr/bin/env python3
"""latentwire benchmark.

    python3 perfbench/run.py --workload {grid,serve,wire} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The program is imported from ``src/``. With
``--trace 0`` the run times set-up and passes of the workload and prints
the end-to-end metrics; with ``--trace 1`` it runs the workload's fixed
number of passes, each once untraced and once traced, and prints the
per-layer metrics with the tracing overhead. Workload
details (latency percentiles, throughputs, accuracies) and the environment
are printed first; the last line of standard output is the JSON result.
Results and span traces are also written under ``perfbench/out/``.
A failed correctness check exits with code 1.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BLAS_THREADS = 1  # pinned: OpenBLAS would take every core, and the wire
# workload's server thread shares them


def pin_blas_threads():
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def pin_cpu():
    """Run the whole process on one CPU, the last it may use, and return it.
    The wire workload's client and server threads then hand each frame and
    ack over on one core instead of waking each other across virtual CPUs,
    which on a shared 2-core VM doubled the ack latency and made it vary
    from run to run. The other workloads run on one thread either way."""
    if not hasattr(os, "sched_setaffinity"):  # not Linux
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_program():
    """Put the checkout's ``src`` first on the path; fail if it is absent."""
    src = ROOT / "src"
    if not (src / "latentwire" / "__init__.py").is_file():
        raise SystemExit(f"error: no latentwire package under {src}")
    sys.path.insert(0, str(src))
    import latentwire

    if Path(latentwire.__file__).resolve().parent != src / "latentwire":
        raise SystemExit(f"error: imported latentwire from {latentwire.__file__}")


def blas_threads_in_effect():
    """Thread count OpenBLAS reports, when its library exposes the query."""
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed, cpu):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads_pinned": BLAS_THREADS,
            "blas_threads": blas_threads_in_effect(), "machine": platform.machine(),
            "cpu_pinned": cpu, "seed": seed}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _static_frame_bytes(lw, image_shape):
    """Frame size per sample for each reported ratio, from the codec itself."""
    import numpy as np

    out = {}
    for cr in (1, 4, 8, 16):
        shape = lw.build_autoencoder(image_shape, cr).latent_shape
        rec = lw.LatentRecord(0, 0, 0, shape, np.zeros(math.prod(shape), np.float32))
        out[cr] = len(lw.encode_record(rec))
    return out


def release_memory():
    """Between passes, outside the timing: collect garbage and hand freed
    heap pages back, so each pass's peak reflects its own live memory and
    not what earlier passes (on other threads' malloc arenas) left free."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except AttributeError:  # not glibc
        pass


def step_floor_s(passes):
    """The pass time with each of its steps at its fastest over the passes.

    On a shared 2-core VM CPU speed comes and goes in bursts shorter than a
    pass, so whole passes are rarely fast from end to end; each step (one
    request, one push, one chunk of the stream) finds its quiet moment far
    more often. Over five seeds the sum varied less from run to run than
    the fastest pass on serve and wire, and less than the median pass on
    wire."""
    if len({len(p.steps) for p in passes}) != 1:
        raise ValueError("passes timed different numbers of steps")
    return sum(map(min, zip(*(p.steps for p in passes))))


def measure(wl, seed, seconds):
    """Untraced run: repeated set-up, warm-up, then passes for `seconds`."""

    setup_times = []
    for _ in range(wl.setup_repeats):
        state = None  # one state alive at a time, so the peak is one set-up's
        release_memory()
        start = perf_counter()
        state = wl.setup(seed)
        setup_times.append(perf_counter() - start)
    phases = {"peak_rss_after_setup_mb": (peak_rss_mb(), "MB", wl.setup_repeats)}
    for _ in range(wl.warmup):
        wl.run_pass(state)
        release_memory()
    passes, begin, last = [], perf_counter(), 0.0
    while not passes or perf_counter() - begin + last <= seconds:
        start = perf_counter()
        passes.append(wl.run_pass(state))
        release_memory()
        last = perf_counter() - start
    metrics = {"setup_s": (statistics.median(setup_times), "s"),
               "job_min_s": (step_floor_s(passes), "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    return passes, metrics, None, phases


def measure_traced(wl, seed):
    """Traced run: set-up once, traced; then the workload's fixed number of
    passes, alternating an untraced and a traced copy of each. The time the
    traced copies take beyond the untraced ones is the tracing overhead."""
    import latentwire as lw
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    with tracer.installed():
        state = wl.setup(seed)
    phases = {"peak_rss_after_setup_mb": (peak_rss_mb(), "MB", 1)}
    for _ in range(wl.warmup):
        wl.run_pass(state)
    passes, windows, untraced_s = [], [], 0.0
    for _ in range(wl.traced_passes):
        start = perf_counter()
        passes.append(wl.run_pass(state))
        untraced_s += perf_counter() - start
        release_memory()
        with tracer.installed():
            start = perf_counter()
            passes.append(wl.run_pass(state))
            windows.append((start, perf_counter()))
        release_memory()
    overhead = sum(end - start for start, end in windows) - untraced_s
    metrics = layer_metrics(tracer, math.prod(wl.image_shape),
                            _static_frame_bytes(lw, wl.image_shape),
                            overhead, overhead / untraced_s, tracer.coverage(windows))
    return passes, metrics, tracer, phases


def run(wl, seed, seconds, trace):
    """Measure, check and summarise one run; returns (result, detail, tracer)."""
    if trace:
        passes, metrics, tracer, phases = measure_traced(wl, seed)
    else:
        passes, metrics, tracer, phases = measure(wl, seed, seconds)
    errors = wl.check(passes)
    result = {"correct": not errors,
              "attempted": sum(p.attempted for p in passes),
              "failed": sum(p.failed for p in passes),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = {"errors": errors, "passes": len(passes),
              "workload": {k: {"value": v, "unit": u, "n": n}
                           for k, (v, u, n) in {**wl.detail(passes), **phases}.items()}}
    return result, detail, tracer


def write_outputs(stem, result, detail, tracer):
    OUT.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.jsonl.gz")
        detail["trace_missing"] = tracer.missing
    (OUT / f"{stem}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grid", "serve", "wire"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    cpu = pin_cpu()
    import_program()
    from workloads import WORKLOADS

    env = environment(args.seed, cpu)
    wl = WORKLOADS[args.workload]()
    result, detail, tracer = run(wl, args.seed, args.seconds, bool(args.trace))
    detail["env"] = env
    write_outputs(f"{wl.name}-seed{args.seed}-trace{args.trace}", result, detail, tracer)
    print("env " + json.dumps(env))
    for name, m in detail["workload"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} (n={m['n']})")
    if tracer is not None and tracer.missing:
        print(f"trace: not wrapped (absent): {', '.join(tracer.missing)}", file=sys.stderr)
    for err in detail["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
