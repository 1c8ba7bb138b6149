import argparse
import json
import re
import socket
from dataclasses import replace

import pytest

import latentwire.cli as cli
from latentwire.cli import DATA_DIR_ENV, _experiment_config, build_parser, main
from latentwire.experiment import (
    CONFIG_FORMAT,
    CONFIG_VERSION,
    ExperimentConfig,
    parse_report,
)


def test_cli_smoke(tmp_path):
    data = str(tmp_path / "data.npz")
    assert main(["gen-data", "--out", data, "--classes", "2",
                 "--samples-per-class", "12", "--image-size", "8"]) == 0
    assert main(["train-ae", "--data", data, "--cr", "4", "--ae-epochs", "1",
                 "--out", str(tmp_path / "ae")]) == 0
    assert (tmp_path / "ae" / "encoder.weights.npz").is_file()
    assert (tmp_path / "ae" / "decoder.model.json").is_file()
    assert main(["train-classifier", "--data", data, "--clf-epochs", "1",
                 "--out", str(tmp_path / "clf")]) == 0
    assert (tmp_path / "clf" / "classifier.weights.npz").is_file()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "format": CONFIG_FORMAT, "version": CONFIG_VERSION,
        "synthetic": {"image_size": [8, 8, 3], "num_classes": 2, "samples_per_class": 12},
        "ratios": [1, 4], "n_devices": 2, "ae": {"epochs": 1}, "clf": {"epochs": 1}}))
    report_json = tmp_path / "report.json"
    # the file sets no out, so --out applies
    assert main(["run", "--config", str(cfg), "--out", str(report_json),
                 "--format", "json"]) == 0
    report_csv = tmp_path / "report.csv"
    assert main(["report", "--input", str(report_json), "--out", str(report_csv)]) == 0

    rows = parse_report(report_csv).rows
    assert rows == parse_report(report_json, fmt="json").rows
    assert [(r.cr, r.failed) for r in rows] == [(1.0, False), (4.0, False)]
    assert rows[0].acc_norm == 1.0


def test_cli_error_is_one_line_and_status_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": CONFIG_FORMAT, "version": CONFIG_VERSION,
                               "ratio": [1, 4]}))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("latentwire: error: ") and "ratio" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_run_flags_set_the_config(tmp_path, monkeypatch):
    (tmp_path / "batches").mkdir()
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    args = build_parser().parse_args([
        "run", "--cifar10-dir", "batches", "--batch-size", "8", "--augment",
        "--family", "B", "--jobs", "3"])
    cfg = _experiment_config(args)
    default = ExperimentConfig()
    assert (cfg.dataset, cfg.cifar_dir) == ("cifar10", str(tmp_path / "batches"))
    assert cfg.ae == replace(default.ae, batch_size=8)
    assert cfg.clf == replace(default.clf, batch_size=8, augment=True)
    assert (cfg.family, cfg.jobs) == ("B", 3)


def _subparser(name):
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


# one non-default value per `run` grid flag; a flag missing here fails below
RUN_FLAG_VALUES = {
    "--dataset": "cifar10", "--cifar10-dir": "batches", "--cifar10-subset": "2x10",
    "--ratios": "1,2", "--family": "B", "--devices": "3", "--seeds": "1,2",
    "--ae-epochs": "1", "--clf-epochs": "1", "--batch-size": "8", "--augment": None,
    "--jobs": "2",
}
RUN_FLAGS = [a.option_strings[-1] for a in _subparser("run")._actions
             if a.option_strings[-1] not in ("--help", "--config", "--out", "--format")]


@pytest.mark.parametrize("flag", RUN_FLAGS)
def test_every_run_flag_changes_the_config(flag):
    value = RUN_FLAG_VALUES[flag]
    argv = ["run", flag] + ([] if value is None else [value])
    unflagged = _experiment_config(build_parser().parse_args(["run"]))
    assert unflagged == replace(ExperimentConfig(), out="report.csv")
    assert _experiment_config(build_parser().parse_args(argv)) != unflagged


@pytest.mark.parametrize("argv", [
    ["train-ae", "--data", "d.npz", "--out", "o", "--ae-optimizer", "sgd"],
    ["train-classifier", "--data", "d.npz", "--out", "o", "--clf-optimizer", "sgd"],
])
def test_optimizer_flags_take_only_known_algorithms(argv, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert "invalid choice: 'sgd'" in capsys.readouterr().err


def test_serve_stops_cleanly_on_interrupt(monkeypatch, capsys):
    def interrupt(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.time, "sleep", interrupt)
    assert main(["serve", "--split", "test"]) == 0
    out = capsys.readouterr().out
    host, port = re.search(r"ingesting test latents on (\S+):(\d+) ", out).groups()
    assert out.endswith("stored 0 records\n")
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((host, int(port)), timeout=5).close()
