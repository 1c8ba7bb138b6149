import json
import logging
from dataclasses import replace

import pytest

from latentwire.data import SyntheticSpec
from latentwire.experiment import (
    CONFIG_FORMAT,
    CONFIG_VERSION,
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    config_from_dict,
    emit_report,
    load_config,
    normalize_metrics,
    parse_report,
    run_experiment,
    save_config,
)
from latentwire.train import TrainConfig

HEADER = {"format": CONFIG_FORMAT, "version": CONFIG_VERSION}


# --- config files ---------------------------------------------------------------

def test_config_roundtrip_with_nested_values(tmp_path):
    cfg = ExperimentConfig(
        dataset="cifar10", cifar_dir="/data/cifar", cifar_subset="2x100",
        synthetic=SyntheticSpec(image_size=(16, 16, 3), num_classes=3,
                                samples_per_class=12, noise=0.1),
        ratios=(1, 2.5, 8), family="B", n_devices=3,
        ae=TrainConfig(epochs=2, batch_size=8, optimizer="sgd-momentum", lr=0.01, seed=5),
        clf=TrainConfig(epochs=4, augment=True),
        seeds=(1, 2), jobs=2, out="report.csv")
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


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
], ids=["top", "ae", "synthetic", "ae-patience", "synthetic-jitter",
        "synthetic-margin", "synthetic-ratio"])
def test_unknown_config_key_rejected(doc):
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_dict({**HEADER, **doc})


@pytest.mark.parametrize("doc", [{"ae": 5}, {"synthetic": [8, 8, 3]}])
def test_nested_config_must_be_object(doc):
    with pytest.raises(ValueError, match="must be an object"):
        config_from_dict({**HEADER, **doc})


@pytest.mark.parametrize("doc", [
    {"seeds": []},
    {"ae": {"epochs": -1}},
    {"synthetic": {"num_classes": 1}},
    {"ae": {"optimizer": "sgd"}},
    {"clf": {"lr": -1.0}},
    {"ae": {"lr": 0.0}},
    {"ae": {"augment": True}},
])
def test_config_values_still_checked(doc):
    with pytest.raises(ValueError):
        config_from_dict({**HEADER, **doc})


@pytest.mark.parametrize("doc", [{"family": "C"}, {"partition": "shuffled"},
                                 {"partition": "label-shard"}, {"dataset": "mnist"}],
                         ids=["family", "partition", "partition-label-shard", "dataset"])
def test_unknown_choice_rejected_on_load(doc):
    (name,) = doc
    with pytest.raises(ValueError, match=f"{name} must be one of"):
        config_from_dict({**HEADER, **doc})


@pytest.mark.parametrize("header", [
    {"format": "other", "version": CONFIG_VERSION},
    {"format": CONFIG_FORMAT, "version": CONFIG_VERSION + 1},
    {},
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_roundtrip_keeps_failed_rows(tmp_path, fmt):
    path = tmp_path / f"report.{fmt}"
    emit_report(ExperimentReport(list(ROWS)), path, fmt=fmt)
    back = parse_report(path, fmt=fmt).rows
    assert back == ROWS
    assert [r.failed for r in back] == [False, False, True]


def test_csv_report_rejects_ragged_row(tmp_path):
    path = tmp_path / "report.csv"
    emit_report(ExperimentReport(ROWS[:1]), path)
    path.write_text(path.read_text() + "synthetic,4.0,0\n")
    with pytest.raises(ValueError, match="cells"):
        parse_report(path)


def _edited_json_report(tmp_path, edit):
    path = tmp_path / "report.json"
    emit_report(ExperimentReport(ROWS[:1]), path, fmt="json")
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def test_json_report_version_checked(tmp_path):
    path = _edited_json_report(tmp_path, lambda doc: doc.update(version=7))
    with pytest.raises(ValueError, match="version"):
        parse_report(path, fmt="json")


@pytest.mark.parametrize("edit", [
    lambda doc: doc["rows"][0].update(acc=0.5),
    lambda doc: doc["rows"][0].pop("seed"),
    lambda doc: doc.update(notes="x"),
    lambda doc: doc.pop("rows"),
], ids=["unknown-row-key", "missing-row-key", "unknown-key", "missing-rows"])
def test_json_report_keys_checked(tmp_path, edit):
    path = _edited_json_report(tmp_path, edit)
    with pytest.raises(ValueError, match="keys|fields"):
        parse_report(path, fmt="json")


def test_unknown_report_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        emit_report(ExperimentReport(list(ROWS)), tmp_path / "r.txt", fmt="structured-text")


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


def test_test_split_smaller_than_devices_fails_every_cell():
    # 6 samples per class at 5:1 leave 2 test samples for 4 devices
    cfg = replace(TINY_GRID, n_devices=4, seeds=(0,), synthetic=SyntheticSpec(
        image_size=(8, 8, 3), num_classes=2, samples_per_class=6))
    rows = run_experiment(cfg).rows
    assert len(rows) == 2
    assert all(r.failed and "4 devices" in r.error for r in rows)
