import csv
import importlib.util
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import latentwire.experiment as experiment
import latentwire.train as train
from latentwire.data import SyntheticSpec
from latentwire.device import DeviceNode
from latentwire.errors import LatentWireError
from latentwire.experiment import (
    CONFIG_FORMAT,
    CONFIG_VERSION,
    DATA_DIR_ENV,
    REPORT_FORMAT,
    REPORT_VERSION,
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    config_from_dict,
    emit_report,
    load_config,
    load_experiment_data,
    normalize_metrics,
    run_experiment,
)
from latentwire.train import TrainConfig
from latentwire.zoo import build_autoencoder, build_vanilla_classifier

from oracles import count_parameters_oracle

HEADER = {"format": CONFIG_FORMAT, "version": CONFIG_VERSION}


# --- config files ---------------------------------------------------------------

def test_config_roundtrip_with_nested_values(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        **HEADER, "cifar_dir": "/data/cifar", "cifar_subset": "2x100",
        "synthetic": {"image_size": [16, 16, 3], "num_classes": 3,
                      "samples_per_class": 12, "noise": 0.1},
        "ratios": [1, 2.5, 8], "family": "B", "n_devices": 3, "partition": "iid",
        "ae": {"epochs": 2, "batch_size": 8, "lr": 0.01, "seed": 0},
        "clf": {"epochs": 4, "batch_size": 32, "lr": None},
        "seeds": [1, 2], "jobs": 2}))
    assert load_config(path) == ExperimentConfig(
        cifar_dir="/data/cifar", cifar_subset="2x100",
        synthetic=SyntheticSpec(image_size=(16, 16, 3), num_classes=3,
                                samples_per_class=12, noise=0.1),
        ratios=(1, 2.5, 8), family="B", n_devices=3,
        ae=TrainConfig(epochs=2, batch_size=8, lr=0.01),
        clf=TrainConfig(epochs=4),
        seeds=(1, 2), jobs=2)


def test_partial_config_keeps_defaults():
    cfg = config_from_dict({**HEADER, "ratios": [1, 4], "ae": {"batch_size": 8}})
    default = ExperimentConfig()
    assert cfg.ratios == (1, 4)
    assert cfg.ae.epochs == 12
    assert cfg.ae == replace(default.ae, batch_size=8)
    assert cfg.clf == default.clf
    assert cfg.synthetic == default.synthetic
    assert config_from_dict(dict(HEADER)) == default


@pytest.mark.parametrize("doc", [
    {"ratio": [1, 4]},
    {"ae": {"epoch": 3}},
    {"synthetic": {"classes": 3}},
    {"ae": {"patience": 3}},
    {"synthetic": {"jitter": 0.5}},
    {"synthetic": {"margin": 1.5}},
    {"synthetic": {"ratio": [3, 1]}},
    {"dataset": "mnist"},
    {"ae": {"optimizer": "sgd-momentum"}},
    {"clf": {"augment": True}},
    {"out": "report.csv"},
], ids=["top", "ae", "synthetic", "ae-patience", "synthetic-jitter",
        "synthetic-margin", "synthetic-ratio", "dataset", "ae-optimizer",
        "clf-augment", "out"])
def test_unknown_config_key_rejected(doc):
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_dict({**HEADER, **doc})


@pytest.mark.parametrize("doc", [{"ae": 5}, {"synthetic": [8, 8, 3]}])
def test_nested_config_must_be_object(doc):
    with pytest.raises(ValueError, match="must be an object"):
        config_from_dict({**HEADER, **doc})


@pytest.mark.parametrize("doc", [
    {"seeds": []},
    {"ratios": []},
    {"ae": {"epochs": -1}},
    {"ae": {"batch_size": 0}},
    {"synthetic": {"num_classes": 1}},
    {"ratios": [1, 0]},
    {"clf": {"lr": -1.0}},
    {"ae": {"lr": 0.0}},
    {"synthetic": {"image_size": [32, 32]}},
    {"synthetic": {"image_size": [32, 32, 1]}},
    {"synthetic": {"samples_per_class": 0}},
    {"synthetic": {"noise": -0.05}},
    {"synthetic": {"num_classes": 9}},  # class 8 would repeat class 0's family and colour
    {"synthetic": {"num_classes": 4.0}},
    {"synthetic": {"samples_per_class": 12.0}},
    {"cifar_subset": 5},  # values of the wrong JSON type
    {"jobs": True},
    {"seeds": [1.5]},
    {"clf": {"lr": "0.1"}},
    {"synthetic": {"image_size": "32x32x3"}},
    {"ratios": [1, math.inf]},  # what json.loads makes of Infinity and NaN
    {"ratios": [math.nan]},
])
def test_config_values_still_checked(doc):
    with pytest.raises(ValueError):
        config_from_dict({**HEADER, **doc})


@pytest.mark.parametrize("doc", [{"family": "C"}, {"partition": "shuffled"},
                                 {"partition": "label-shard"}],
                         ids=["family", "partition", "partition-label-shard"])
def test_unknown_choice_rejected_on_load(doc):
    (name,) = doc
    with pytest.raises(ValueError, match=f"{name} must be one of"):
        config_from_dict({**HEADER, **doc})


@pytest.mark.parametrize("header", [
    {"format": "other", "version": CONFIG_VERSION},
    {"format": CONFIG_FORMAT, "version": CONFIG_VERSION + 1},
    {},
    {"format": CONFIG_FORMAT, "version": True},
    {"format": CONFIG_FORMAT, "version": float(CONFIG_VERSION)},
    [],
])
def test_config_envelope_checked(header):
    with pytest.raises(ValueError):
        config_from_dict(header)


# --- report files ---------------------------------------------------------------

ROWS = [
    ReportRow("synthetic", 1.0, 0, 0.875, 12386, 1.25, 0.0625, 1.0, 1.0, 1.0, 1.0),
    ReportRow("synthetic", 4.0, 0, 0.8123456789012345, 3138, 0.1 + 0.2, 0.03,
              0.8123456789012345 / 0.875, 3138 / 12386, (0.1 + 0.2) / 1.25, 0.48),
    ReportRow("synthetic", 8.0, 0, error="sink failed after 3 records: boom"),
]


def test_csv_report_is_pinned(tmp_path):
    # the header is the ReportRow fields in order; None is an empty cell
    path = tmp_path / "report.csv"
    emit_report(ExperimentReport(list(ROWS)), path)
    with path.open(newline="") as fh:
        assert list(csv.reader(fh)) == [
            ["dataset", "cr", "seed", "accuracy", "params", "train_s", "test_s",
             "acc_norm", "params_norm", "train_norm", "test_norm", "error"],
            ["synthetic", "1.0", "0", "0.875", "12386", "1.25", "0.0625",
             "1.0", "1.0", "1.0", "1.0", ""],
            ["synthetic", "4.0", "0", "0.8123456789012345", "3138", "0.30000000000000004",
             "0.03", "0.9283950616014109", "0.25335055708057486", "0.24000000000000005",
             "0.48", ""],
            ["synthetic", "8.0", "0", "", "", "", "", "", "", "", "",
             "sink failed after 3 records: boom"],
        ]


def test_json_report_is_pinned(tmp_path):
    path = tmp_path / "report.json"
    emit_report(ExperimentReport(list(ROWS)), path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["format", "version", "rows"]
    assert (doc["format"], doc["version"]) == (REPORT_FORMAT, REPORT_VERSION) == (
        "latentwire-report", 1)
    assert doc["rows"] == [
        {"dataset": "synthetic", "cr": 1.0, "seed": 0, "accuracy": 0.875, "params": 12386,
         "train_s": 1.25, "test_s": 0.0625, "acc_norm": 1.0, "params_norm": 1.0,
         "train_norm": 1.0, "test_norm": 1.0, "error": None},
        {"dataset": "synthetic", "cr": 4.0, "seed": 0, "accuracy": 0.8123456789012345,
         "params": 3138, "train_s": 0.30000000000000004, "test_s": 0.03,
         "acc_norm": 0.9283950616014109, "params_norm": 0.25335055708057486,
         "train_norm": 0.24000000000000005, "test_norm": 0.48, "error": None},
        {"dataset": "synthetic", "cr": 8.0, "seed": 0, "accuracy": None, "params": None,
         "train_s": None, "test_s": None, "acc_norm": None, "params_norm": None,
         "train_norm": None, "test_norm": None, "error": "sink failed after 3 records: boom"},
    ]


def test_a_report_path_not_ending_in_json_gets_csv(tmp_path):
    emit_report(ExperimentReport(list(ROWS)), tmp_path / "report.csv")
    for name in ("report.txt", "report", "report.json.csv"):
        emit_report(ExperimentReport(list(ROWS)), tmp_path / name)
        assert (tmp_path / name).read_text() == (tmp_path / "report.csv").read_text()


# --- normalization ----------------------------------------------------------------

def _row(cr, seed=0, accuracy=0.8, params=100, train_s=2.0, test_s=0.5):
    return ReportRow("synthetic", float(cr), seed, accuracy, params, train_s, test_s)


def test_normalize_divides_by_baseline():
    report = ExperimentReport([_row(1), _row(4, accuracy=0.6, params=25,
                                             train_s=1.0, test_s=0.25)])
    normalize_metrics(report)
    r = report.rows[1]
    assert (r.acc_norm, r.params_norm, r.train_norm, r.test_norm) == pytest.approx(
        (0.75, 0.25, 0.5, 0.5))


def test_normalize_zero_baseline_accuracy(caplog):
    report = ExperimentReport([_row(1, accuracy=0.0), _row(4, accuracy=0.5, params=25)])
    with caplog.at_level(logging.WARNING, logger="latentwire"):
        normalize_metrics(report)
    r = report.rows[1]
    assert r.accuracy == 0.5 and r.acc_norm is None
    assert (r.params_norm, r.train_norm, r.test_norm) == (0.25, 1.0, 1.0)
    assert "ratio-1 accuracy" in caplog.text


def test_normalize_failed_baseline(caplog):
    report = ExperimentReport([ReportRow("synthetic", 1.0, 0, error="boom"), _row(4)])
    with caplog.at_level(logging.WARNING, logger="latentwire"):
        normalize_metrics(report)
    r = report.rows[1]
    assert (r.accuracy, r.params, r.train_s, r.test_s) == (0.8, 100, 2.0, 0.5)
    assert (r.acc_norm, r.params_norm, r.train_norm, r.test_norm) == (None,) * 4
    assert "no ratio-1 baseline" in caplog.text


def test_normalize_missing_baseline_leaves_other_groups(caplog):
    report = ExperimentReport([_row(1, seed=0), _row(4, seed=0, accuracy=0.4),
                               _row(4, seed=1, accuracy=0.4)])
    with caplog.at_level(logging.WARNING, logger="latentwire"):
        normalize_metrics(report)
    assert report.rows[1].acc_norm == pytest.approx(0.5)
    assert report.rows[2].accuracy == 0.4 and report.rows[2].acc_norm is None
    assert "seed 1" in caplog.text


# --- CIFAR-10 ----------------------------------------------------------------------

def test_load_experiment_data_reads_cifar10(cifar_dir):
    cfg = ExperimentConfig(cifar_dir=str(cifar_dir))
    name, train, test = load_experiment_data(cfg)
    assert (name, len(train), len(test)) == ("cifar10", 50, 10)
    assert train.sample_shape == (32, 32, 3) and train.num_classes == 10
    name, train, test = load_experiment_data(replace(cfg, cifar_subset="2x3"))
    assert name == "cifar10-2x3"
    assert train.num_classes == test.num_classes == 2
    assert np.bincount(train.labels).tolist() == [3, 3]
    assert np.bincount(test.labels).tolist() == [1, 1]  # 3 // 5, at least 1


def test_cifar10_needs_a_directory_at_run_time(tmp_path, monkeypatch):
    # cifar_dir alone selects CIFAR-10; a directory without the batches
    # fails when the data loads, not silently on synthetic data
    with pytest.raises(LatentWireError, match="missing batch file"):
        load_experiment_data(ExperimentConfig(cifar_dir=str(tmp_path)))
    # a relative directory found nowhere, $LATENTWIRE_DATA_DIR included, is named as given
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(LatentWireError, match="missing batch file no-such-dir/"):
        load_experiment_data(ExperimentConfig(cifar_dir="no-such-dir"))
    assert load_experiment_data(ExperimentConfig())[0] == "synthetic"


@pytest.mark.parametrize("subset", ["2", "0x5", "12x3", "2x0", "", "2x3x1", "twoxten"])
def test_cifar_subset_checked_when_the_config_is_built(subset):
    with pytest.raises(ValueError, match="cifar_subset"):
        ExperimentConfig(cifar_subset=subset)
    with pytest.raises(ValueError, match="cifar_subset"):
        config_from_dict({**HEADER, "cifar_subset": subset})


@pytest.mark.parametrize("name,value", [("cifar_subset", "2x3"), ("cifar_dir", "/data/cifar")])
def test_cifar_fields_need_the_cifar10_dataset(name, value):
    # the dataset is CIFAR-10 exactly when cifar_dir is set, so a subset
    # needs a directory and a directory needs nothing else
    fields = {name: value}
    if name == "cifar_subset":
        with pytest.raises(ValueError, match="^cifar_subset needs cifar_dir"):
            ExperimentConfig(**fields)
        with pytest.raises(ValueError, match="^cifar_subset needs cifar_dir"):
            config_from_dict({**HEADER, **fields})
        fields["cifar_dir"] = "/data/cifar"
    assert getattr(ExperimentConfig(**fields), name) == value
    assert config_from_dict({**HEADER, **fields}) == ExperimentConfig(**fields)


@pytest.mark.parametrize("name", ["ae", "clf"])
def test_train_seeds_are_refused_for_the_grid_seeds(name):
    # run_cell trains each cell from its own seed, so a train seed would
    # be ignored without a word
    with pytest.raises(ValueError, match=f"^{name}.seed .* seeds"):
        ExperimentConfig(**{name: TrainConfig(seed=5)})
    with pytest.raises(ValueError, match=f"^{name}.seed .* seeds"):
        config_from_dict({**HEADER, name: {"seed": 5}})
    assert config_from_dict({**HEADER, name: {"seed": 0}}) == ExperimentConfig()


@pytest.mark.parametrize("seeds", [(0, -1), (-3,)])
def test_negative_seeds_refused_when_the_config_is_built(seeds):
    # a negative seed would fail in SeedSequence after the other seeds' cells
    # trained, and that error would lose the whole grid
    with pytest.raises(ValueError, match="^seeds must be one or more ints >= 0"):
        ExperimentConfig(seeds=seeds)
    with pytest.raises(ValueError, match="^seeds must be one or more ints >= 0"):
        config_from_dict({**HEADER, "seeds": list(seeds)})


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("name", ["n_devices", "jobs"])
def test_counts_checked_when_the_config_is_built(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
        ExperimentConfig(**{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
        config_from_dict({**HEADER, name: value})


# --- determinism -------------------------------------------------------------------

TINY_GRID = ExperimentConfig(
    synthetic=SyntheticSpec(image_size=(8, 8, 3), num_classes=2, samples_per_class=12),
    ratios=(1, 4), n_devices=2, ae=TrainConfig(epochs=1), clf=TrainConfig(epochs=1),
    seeds=(0, 1))


def _cells(report):
    return [(r.cr, r.seed, r.accuracy, r.params, r.acc_norm, r.params_norm)
            for r in report.rows]


def test_run_experiment_is_deterministic():
    first = _cells(run_experiment(TINY_GRID))
    assert len(first) == 4 and all(cell[2] is not None for cell in first)
    assert _cells(run_experiment(TINY_GRID)) == first
    assert _cells(run_experiment(replace(TINY_GRID, jobs=2))) == first


@pytest.mark.parametrize("family", ["A", "B"])
def test_each_row_counts_the_parameters_of_its_classifier(family):
    rows = run_experiment(replace(TINY_GRID, family=family, seeds=(0,))).rows
    assert [r.cr for r in rows] == [1.0, 4.0] and not any(r.failed for r in rows)
    for row in rows:
        latent = build_autoencoder((8, 8, 3), row.cr).latent_shape
        spec = build_vanilla_classifier(latent, family, 2)
        assert row.params == count_parameters_oracle(spec)


def test_per_device_accuracy_logged_only_at_info(caplog):
    with caplog.at_level(logging.WARNING, logger="latentwire"):
        run_experiment(replace(TINY_GRID, seeds=(0,)))
    assert not [r for r in caplog.records if "device=" in r.getMessage()]
    with caplog.at_level(logging.INFO, logger="latentwire"):
        run_experiment(replace(TINY_GRID, seeds=(0,)))
    logged = [r.args for r in caplog.records if "device=" in r.getMessage()]
    assert sorted((cr, device) for cr, _, device, _ in logged) == [
        (1, 0), (1, 1), (4, 0), (4, 1)]
    assert all(0.0 <= acc <= 1.0 for *_, acc in logged)


def test_a_cell_drops_its_devices_before_the_classifier_fit(monkeypatch):
    # the hub's classifier fit must not share memory with the device shards
    make_devices, shards, alive = experiment.make_devices, [], []

    def recorded(*args):
        devices = make_devices(*args)
        shards.extend(weakref.ref(dev.data[split].images)
                      for dev in devices for split in ("train", "test"))
        return devices

    def train_classifier(self, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in shards))
        return hub_train_classifier(self, *args, **kwargs)

    hub_train_classifier = experiment.Hub.train_classifier
    monkeypatch.setattr(experiment, "make_devices", recorded)
    monkeypatch.setattr(experiment.Hub, "train_classifier", train_classifier)
    rows = run_experiment(replace(TINY_GRID, seeds=(0,))).rows
    assert not any(r.failed for r in rows)
    assert len(shards) == 2 * 2 * TINY_GRID.n_devices and alive == [0, 0]


def test_test_split_smaller_than_devices_fails_every_cell():
    # 6 samples per class at 5:1 leave 2 test samples for 4 devices
    cfg = replace(TINY_GRID, n_devices=4, seeds=(0,), synthetic=SyntheticSpec(
        image_size=(8, 8, 3), num_classes=2, samples_per_class=6))
    rows = run_experiment(cfg).rows
    assert len(rows) == 2
    assert all(r.failed and "4 devices" in r.error for r in rows)


@pytest.mark.parametrize("change, error", [
    ({"ratios": (5,)}, "UnachievableRatioError: no stage count realizes ratio 5 on (8, 8, 3)"),
    ({"ratios": (16,)}, "InvalidGeometryError: input spatial dims must be >= 3, got 2x2"),
    ({"n_devices": 9, "synthetic": SyntheticSpec(image_size=(8, 8, 3), num_classes=2,
                                                 samples_per_class=24)},
     "TooManyDevicesError: cannot split 8 samples across 9 devices"),
], ids=["ratio", "geometry", "devices"])
def test_a_failed_cell_row_names_the_refusal_type(change, error):
    # the row's type name is what tells these refusals apart in a report
    rows = run_experiment(replace(TINY_GRID, **{"ratios": (1,), "seeds": (0,), **change})).rows
    assert [r.error for r in rows] == [error]


@pytest.mark.parametrize("jobs", [1, 2])
def test_any_exception_in_a_cell_fails_that_cell_only(jobs, monkeypatch, caplog):
    # a cell that runs out of memory must not throw away the finished rows
    run_cell = experiment.run_cell

    def out_of_memory_at_cr4(name, train, test, cfg, cr, seed):
        if cr == 4:
            raise MemoryError
        return run_cell(name, train, test, cfg, cr, seed)

    monkeypatch.setattr(experiment, "run_cell", out_of_memory_at_cr4)
    with caplog.at_level(logging.WARNING, logger="latentwire"):
        rows = run_experiment(replace(TINY_GRID, jobs=jobs)).rows
    assert [(r.cr, r.seed, r.error) for r in rows] == [
        (1.0, 0, None), (4.0, 0, "MemoryError"), (1.0, 1, None), (4.0, 1, "MemoryError")]
    assert all(r.acc_norm == 1.0 for r in rows if r.cr == 1)
    logged = [r for r in caplog.records if r.exc_info]
    assert len(logged) == 2 and all(r.exc_info[0] is MemoryError for r in logged)


def test_interrupt_in_a_cell_ends_the_run(monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(experiment, "run_cell", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(TINY_GRID)


# --- bits --------------------------------------------------------------------

# Run in a fresh interpreter with BLAS on one thread, since the float32 bits
# depend on the BLAS thread count. 16x16x3 images at CR 1, 4 and 16 reach
# the truncated trunks: family A keeps two blocks on the image, a block and
# a conv with its relu on the 8x8x3 latent and one block on the 4x4x3
# latent, and family B runs its second block on 2x2 maps.
BITS_SCRIPT = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from grid_digest import hashed_fits
import latentwire as lw

spec = lw.SyntheticSpec(image_size=(16, 16, 3), samples_per_class=30)
with hashed_fits() as digests:
    for family in ("A", "B"):
        report = lw.run_experiment(lw.ExperimentConfig(
            synthetic=spec, ratios=(1, 4, 16), family=family, n_devices=2,
            ae=lw.TrainConfig(epochs=1), clf=lw.TrainConfig(epochs=1)))
        assert not any(row.failed for row in report.rows), report.rows
print(len(digests), hashlib.sha256(b"".join(digests)).hexdigest())
"""
# recorded when each block ran its relu before its pool; a kernel or zoo
# change that keeps the math prints it unchanged
BITS_PIN = "4db2445d144e43a51fba12678d8454b15799d2e6fa38bf271a2af84775c53512"


def test_both_families_train_the_pinned_networks():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", BITS_SCRIPT, str(root / "tools")],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["18", BITS_PIN]


# --- tools -------------------------------------------------------------------


def _tool(monkeypatch, name):
    """tools/`name`.py, loaded as a module."""
    monkeypatch.setattr(sys, "path", sys.path[:])  # the tools prepend src and perfbench
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_peak_memory_tool_prints_each_cell(monkeypatch, capsys):
    assert _tool(monkeypatch, "peak_memory").main(TINY_GRID) == 0
    *cells, high, rss = capsys.readouterr().out.splitlines()
    fields = [dict(f.split("=") for f in line.split()) for line in cells]
    assert [(f["cr"], f["seed"]) for f in fields] == [("1", "0"), ("4", "0"), ("1", "1"), ("4", "1")]
    stages = ["ae_fit_mb", "export_mb", "clf_fit_mb", "rest_mb"]
    assert all(list(f)[2:] == stages + ["traced_peak_mb"] for f in fields)
    assert all(float(f["traced_peak_mb"]) == max(float(f[s]) for s in stages) > 0 for f in fields)
    label, *pairs = high.split()
    top = dict(f.split("=") for f in pairs)
    cell = next(f for f in fields if (f["cr"], f["seed"]) == (top["cr"], top["seed"]))
    assert label == "high_water" and f"{top['stage']}_mb" in stages
    assert cell[f"{top['stage']}_mb"] == cell["traced_peak_mb"] == top["traced_peak_mb"]
    assert float(top["traced_peak_mb"]) == max(float(f["traced_peak_mb"]) for f in fields)
    assert rss.startswith("ru_maxrss_mb=") and float(rss.split("=")[1]) > 0


def test_the_tools_leave_nothing_patched(monkeypatch):
    # the tools wrap pipeline functions and methods for one run; a wrapper left
    # in place would time, trace or hash every later run in the process
    def current():
        return [experiment.run_cell, train._fit, DeviceNode.fit_autoencoder,
                DeviceNode.export_latents, experiment.Hub.train_classifier]

    originals = current()
    assert _tool(monkeypatch, "peak_memory").main(TINY_GRID) == 0
    with _tool(monkeypatch, "grid_digest").hashed_fits() as digests:
        rows = run_experiment(replace(TINY_GRID, seeds=(0,))).rows
    assert not any(r.failed for r in rows) and len(digests) == 2 * (TINY_GRID.n_devices + 1)
    assert all(a is b for a, b in zip(current(), originals, strict=True))
    assert not tracemalloc.is_tracing()


def test_op_replay_times_both_sides_and_refuses_unequal_bytes(monkeypatch):
    tool = _tool(monkeypatch, "op_replay")
    convs = tool.grid_convs()
    assert ((32, 32, 3), 32, "same", False) in convs  # every encoder's first conv
    assert any(upsample for *_, upsample in convs)
    root = Path(__file__).resolve().parents[1]
    replayed = tool.load_ops(root, "replayed_latentwire")
    try:
        assert replayed is not tool.lw.ops
        rows = list(tool.replay(replayed, tool.lw.ops, convs[:2], [1, 3], 2))
    finally:
        for name in [m for m in sys.modules if m.startswith("replayed_latentwire")]:
            del sys.modules[name]
    assert [(geometry, n) for geometry, n, _, _ in rows] == [
        (geometry, n) for geometry in convs[:2] for n in (1, 3)]
    assert all(t0 > 0 and t1 > 0 for *_, t0, t1 in rows)

    class Off:  # a kernel one ulp away from the library's
        @staticmethod
        def conv2d(*args, **kwargs):
            y, cache = tool.lw.ops.conv2d(*args, **kwargs)
            return np.nextafter(y, np.inf), cache

    with pytest.raises(SystemExit, match=r"^refused: outputs differ at \(3, 3, 32\)"):
        list(tool.replay(tool.lw.ops, Off, convs[:1], [1], 1))
