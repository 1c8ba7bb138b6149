"""Tests of the benchmark itself: tiny runs of each workload, the tracer's
install/uninstall and span nesting, and the checks the runs make.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latentwire as lw
import latentwire.hub
import run
import workloads
from tracer import CHILD_S, END, ID, PARENT, START, Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = lw.SyntheticSpec(image_size=(16, 16, 3), samples_per_class=12)


def tiny(name, **kw):
    if name == "grid":
        return workloads.GridWorkload(spec=TINY, ae_epochs=1, clf_epochs=1,
                                      reference=None, setup_repeats=1, **kw)
    if name == "serve":
        return workloads.ServeWorkload(spec=TINY, clf_epochs=1, setup_repeats=1,
                                       warmup=0, traced_passes=2, **kw)
    return workloads.WireWorkload(image_shape=(16, 16, 3), tcp_frames=20,
                                  stream_blocks=2, setup_repeats=1, warmup=0,
                                  traced_passes=1, **kw)


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", ["grid", "serve", "wire"])
def test_untraced_smoke(name):
    result, detail, tracer = run.run(tiny(name), seed=3, seconds=0.2, trace=False)
    assert result["correct"], detail["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert tracer is None and detail["workload"]


@pytest.mark.parametrize("name", ["grid", "serve", "wire"])
def test_traced_smoke_reports_every_layer_metric(name):
    result, detail, tracer = run.run(tiny(name), seed=3, seconds=0.2, trace=True)
    assert result["correct"], detail["errors"]
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == units("per_layer")
    assert tracer.missing == []


def test_job_min_sums_each_steps_fastest_time():
    passes = [workloads.PassResult(6.0, 1, 0, [1.0, 5.0]),
              workloads.PassResult(5.0, 1, 0, [2.0, 3.0])]
    assert run.step_floor_s(passes) == 4.0
    with pytest.raises(ValueError):
        run.step_floor_s(passes + [workloads.PassResult(1.0, 1, 0, [1.0])])


def test_grid_check_rejects_wrong_accuracy():
    wl = tiny("grid")
    passes = [wl.run_pass(wl.setup(seed=0))]
    rows = passes[0].data["rows"]
    wl.reference = {r.cr: r.accuracy for r in rows}
    assert wl.check(passes) == []
    wl.reference = {r.cr: r.accuracy + 2 * workloads.GRID_ACC_TOL for r in rows}
    assert len(wl.check(passes)) == len(rows)


def _bindings():
    """Every attribute of the latentwire modules and of their classes."""
    seen = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "latentwire" or mod_name.startswith("latentwire.")):
            continue
        for key, value in vars(mod).items():
            seen[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    seen[(mod_name, key, attr)] = member
    return seen


def test_wrappers_are_removed_after_traced_run():
    before = _bindings()
    _, _, tracer = run.run(tiny("serve"), seed=1, seconds=0.2, trace=True)
    assert tracer.spans
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_wrappers_are_removed_when_the_traced_code_raises():
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.installed():
            assert lw.Hub.ingest is not before[("latentwire.hub", "Hub", "ingest")]
            lw.SyntheticSpec(num_classes=1)  # raises inside the traced region
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


def test_span_self_times_and_nesting():
    _, _, tracer = run.run(tiny("grid"), seed=0, seconds=0.2, trace=True)
    by_id = {s[ID]: s for s in tracer.spans}
    children = {}
    for s in tracer.spans:
        assert s[END] >= s[START]
        assert s[END] - s[START] - s[CHILD_S] >= -1e-9  # self time
        if s[PARENT]:
            parent = by_id[s[PARENT]]
            assert parent[START] <= s[START] and s[END] <= parent[END]
            children[s[PARENT]] = children.get(s[PARENT], 0.0) + s[END] - s[START]
    for pid, child_s in children.items():
        p = by_id[pid]
        assert child_s <= p[END] - p[START] + 1e-9
        assert child_s == pytest.approx(p[CHILD_S], abs=1e-9)


def test_tracer_counts_flops_of_a_conv():
    tracer = Tracer()
    x = np.ones((2, 6, 6, 3), np.float32)
    w = np.ones((3, 3, 3, 4), np.float32)
    with tracer.installed():
        y, cache = lw.ops.conv2d(x, w, np.zeros(4, np.float32))
        lw.ops.backward(cache, np.ones_like(y))
    assert tracer.counters["ops.conv2d.fwd_flop"] == 2 * 2 * 4 * 4 * 4 * 27
    assert tracer.counters["ops.conv2d.bwd_flop"] == 2 * tracer.counters["ops.conv2d.fwd_flop"]
    assert [s[2] for s in tracer.spans] == ["ops.conv2d.fwd", "ops.conv2d.bwd"]


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_hostile_stream_draws_the_expected_acks(chunk):
    wl = tiny("wire")
    st = wl.setup(seed=5)
    stream = b"".join(st.chunks)
    hub = lw.Hub()
    acks = bytearray()
    chunks = [stream[i:i + chunk] for i in range(0, len(stream), chunk)]
    accepted, _ = lw.hub.serve_stream(hub, chunks, "train", ack_writer=acks.extend)
    assert bytes(acks) == st.expected_acks
    assert accepted == len(st.intact)
    assert hub.records("train") == st.intact
    kinds = set(st.expected_acks)
    assert kinds == {lw.wire.ACK_ACCEPTED, lw.wire.ACK_BAD_CRC, lw.wire.ACK_BAD_VERSION}


def test_same_seed_same_inputs():
    wl = tiny("wire")
    a, b, c = wl.setup(seed=9), wl.setup(seed=9), wl.setup(seed=10)
    assert a.chunks == b.chunks and a.tcp_records == b.tcp_records
    assert a.chunks != c.chunks
    assert a.stream_bytes == c.stream_bytes  # seeds differ in content only


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "wire", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
