import argparse
import csv
import json
import logging
from dataclasses import replace

import pytest

import latentwire.experiment as experiment
from latentwire.cli import _experiment_config, build_parser, main
from latentwire.errors import DivergenceError
from latentwire.experiment import (
    CONFIG_FORMAT,
    CONFIG_VERSION,
    DATA_DIR_ENV,
    ExperimentConfig,
    load_config,
)


def _small_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "format": CONFIG_FORMAT, "version": CONFIG_VERSION,
        "synthetic": {"image_size": [8, 8, 3], "num_classes": 2, "samples_per_class": 12},
        "ratios": [1, 4], "n_devices": 2, "ae": {"epochs": 1}, "clf": {"epochs": 1}}))
    return cfg


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_cli_smoke(tmp_path):
    cfg = _small_config(tmp_path)
    out = tmp_path / "report.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _csv_rows(out)
    assert [(r["cr"], r["error"]) for r in rows] == [("1.0", ""), ("4.0", "")]
    assert rows[0]["acc_norm"] == "1.0"


@pytest.fixture(autouse=True)
def package_log_level():
    """Restore the package logger's level, which ``main`` sets."""
    logger = logging.getLogger("latentwire")
    level = logger.level
    yield
    logger.setLevel(level)


def test_only_a_verbose_run_logs_each_device(tmp_path, caplog):
    # two calls in one process: the second's --verbose must hold, though the
    # root logger already has a handler by then
    cfg = _small_config(tmp_path)

    def device_lines(*flags):
        caplog.clear()
        argv = [*flags, "run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 0
        return [r.getMessage() for r in caplog.records if "device=" in r.getMessage()]

    assert device_lines() == []
    assert len(device_lines("--verbose")) == 4  # 2 devices at each of 2 ratios
    assert device_lines() == []


def test_run_out_json_writes_a_json_report(tmp_path, monkeypatch, capsys):
    cfg = _small_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", "report.json"]) == 0
    assert capsys.readouterr().out.endswith("report written to report.json\n")
    doc = json.loads((tmp_path / "report.json").read_text())
    assert [row["cr"] for row in doc["rows"]] == [1.0, 4.0]
    assert not (tmp_path / "report.csv").exists()


def test_run_prints_every_cell_when_the_report_cannot_be_written(tmp_path, capsys):
    # --out names a directory: the rows are printed before the write fails
    assert main(["run", "--config", str(_small_config(tmp_path)), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()] == [
        "cr=1 seed=0", "cr=4 seed=0"]
    assert captured.err.startswith("latentwire: error: ") and captured.err.count("\n") == 1


def test_run_family_is_checked_by_the_config(capsys):
    assert main(["run", "--family", "C"]) == 2
    assert capsys.readouterr().err == (
        "latentwire: error: family must be one of ('A', 'B'), got 'C'\n")


def test_run_prints_and_reports_a_failed_cell(tmp_path, monkeypatch, capsys):
    run_cell = experiment.run_cell

    def fail_at_cr4(name, train, test, cfg, cr, seed):
        if cr == 4:
            raise DivergenceError("non-finite loss nan at epoch 0")
        return run_cell(name, train, test, cfg, cr, seed)

    monkeypatch.setattr(experiment, "run_cell", fail_at_cr4)
    out = tmp_path / "report.csv"
    assert main(["run", "--config", str(_small_config(tmp_path)), "--out", str(out)]) == 1
    assert ("cr=4 seed=0: FAILED (DivergenceError: non-finite loss nan at epoch 0)\n"
            in capsys.readouterr().out)
    assert [(r["cr"], r["error"]) for r in _csv_rows(out)] == [
        ("1.0", ""), ("4.0", "DivergenceError: non-finite loss nan at epoch 0")]


def test_run_reports_a_cell_that_runs_out_of_memory(tmp_path, monkeypatch, capsys):
    run_cell = experiment.run_cell

    def out_of_memory_at_cr4(name, train, test, cfg, cr, seed):
        if cr == 4:
            raise MemoryError
        return run_cell(name, train, test, cfg, cr, seed)

    monkeypatch.setattr(experiment, "run_cell", out_of_memory_at_cr4)
    out = tmp_path / "report.csv"
    assert main(["run", "--config", str(_small_config(tmp_path)), "--out", str(out)]) == 1
    assert "cr=4 seed=0: FAILED (MemoryError)\n" in capsys.readouterr().out
    assert [(r["cr"], r["error"]) for r in _csv_rows(out)] == [
        ("1.0", ""), ("4.0", "MemoryError")]


def test_cli_error_is_one_line_and_status_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": CONFIG_FORMAT, "version": CONFIG_VERSION,
                               "ratio": [1, 4]}))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("latentwire: error: ") and "ratio" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_config_document_that_is_not_an_object_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[]")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "latentwire: error: config document must be an object, got []\n")


def test_config_section_that_is_not_an_object_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": CONFIG_FORMAT, "version": CONFIG_VERSION, "ae": 5}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "latentwire: error: config.ae must be an object, got 5\n"


def test_cli_runs_a_cifar10_grid(tmp_path, cifar_dir, capsys):
    out = tmp_path / "report.csv"
    assert main(["run", "--cifar10-dir", str(cifar_dir), "--ratios", "1,4",
                 "--ae-epochs", "1", "--clf-epochs", "1", "--out", str(out)]) == 0
    assert [(r["dataset"], r["cr"], r["error"]) for r in _csv_rows(out)] == [
        ("cifar10", "1.0", ""), ("cifar10", "4.0", "")]


def test_config_cifar_dir_resolves_under_the_data_dir(tmp_path, cifar_dir, monkeypatch):
    # the config keeps "cifar" as given; the grid finds it under $LATENTWIRE_DATA_DIR
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    monkeypatch.setenv(DATA_DIR_ENV, str(cifar_dir.parent))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "format": CONFIG_FORMAT, "version": CONFIG_VERSION, "cifar_dir": cifar_dir.name,
        "ratios": [1], "n_devices": 2, "ae": {"epochs": 1}, "clf": {"epochs": 1}}))
    out = tmp_path / "report.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert [(r["dataset"], r["cr"], r["error"]) for r in _csv_rows(out)] == [
        ("cifar10", "1.0", "")]


def test_a_malformed_cifar_archive_is_one_error_line(cifar_dir, capsys):
    batch = cifar_dir / "data_batch_1.bin"
    batch.write_bytes(batch.read_bytes()[:-1])
    assert main(["run", "--cifar10-dir", str(cifar_dir)]) == 2
    assert capsys.readouterr().err == (
        f"latentwire: error: {batch}: 30729 bytes is not a whole number of 3073-byte records\n")


def test_cli_rejects_a_bad_cifar_subset(capsys):
    assert main(["run", "--cifar10-subset", "12x3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("latentwire: error: cifar_subset") and "'12x3'" in err


def test_cli_subset_selects_cifar10_and_needs_a_directory(monkeypatch, capsys):
    def no_training(*args):
        raise AssertionError("a grid cell ran")

    monkeypatch.setattr(experiment, "run_cell", no_training)
    with pytest.raises(ValueError, match="^cifar_subset needs cifar_dir"):
        _experiment_config(build_parser().parse_args(["run", "--cifar10-subset", "2x3"]))
    assert main(["run", "--cifar10-subset", "2x3"]) == 2
    assert "cifar_dir" in capsys.readouterr().err
    cfg = _experiment_config(build_parser().parse_args(
        ["run", "--cifar10-subset", "2x3", "--cifar10-dir", "batches"]))
    assert (cfg.cifar_subset, cfg.cifar_dir) == ("2x3", "batches")


@pytest.mark.parametrize("ratios", ["1,inf", "1,nan"])
def test_cli_rejects_a_non_finite_ratio_before_any_cell(ratios, monkeypatch, capsys):
    def no_training(*args):
        raise AssertionError("a grid cell ran")

    monkeypatch.setattr(experiment, "run_cell", no_training)
    assert main(["run", "--ratios", ratios, "--ae-epochs", "0", "--clf-epochs", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("latentwire: error: ratios must be one or more finite positive")
    assert err.count("\n") == 1


def test_cli_rejects_zero_devices(capsys):
    assert main(["run", "--devices", "0"]) == 2
    assert capsys.readouterr().err.startswith("latentwire: error: n_devices must be at least 1")


@pytest.mark.parametrize("flag, value", [
    ("--ratios", "1,x"), ("--seeds", "a"), ("--devices", "x"), ("--ae-epochs", "x"),
    ("--clf-epochs", "1e3"), ("--batch-size", "8,8"), ("--jobs", "1.5")])
def test_a_bad_run_flag_value_is_one_error_line(flag, value, monkeypatch, capsys):
    def no_training(*args):
        raise AssertionError("a grid cell ran")

    monkeypatch.setattr(experiment, "run_cell", no_training)
    assert main(["run", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("latentwire: error: config.")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("doc, key", [
    ({"ratios": ["4"]}, "config.ratios[0] must be float"),
    ({"seeds": 5}, "config.seeds must be a list"),
    ({"n_devices": "4"}, "config.n_devices must be int"),
    ({"ae": {"epochs": "3"}}, "config.ae.epochs must be int"),
    ({"synthetic": {"noise": 3.0}}, "classes not separated"),  # refused when the data loads
], ids=["ratios", "seeds", "n_devices", "ae-epochs", "synthetic-noise"])
def test_config_value_of_the_wrong_type_is_one_error_line(doc, key, tmp_path,
                                                          monkeypatch, capsys):
    def no_training(*args):
        raise AssertionError("a grid cell ran")

    monkeypatch.setattr(experiment, "run_cell", no_training)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"format": CONFIG_FORMAT, "version": CONFIG_VERSION, **doc}))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"latentwire: error: {key}")
    assert err.count("\n") == 1 and err.count("latentwire: error:") == 1


def test_run_flags_set_the_config(tmp_path, monkeypatch):
    (tmp_path / "batches").mkdir()
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    args = build_parser().parse_args([
        "run", "--cifar10-dir", "batches", "--batch-size", "8",
        "--family", "B", "--jobs", "3"])
    cfg = _experiment_config(args)
    default = ExperimentConfig()
    assert cfg.cifar_dir == "batches"  # resolved when the grid loads it
    assert cfg.ae == replace(default.ae, batch_size=8)
    assert cfg.clf == replace(default.clf, batch_size=8)
    assert (cfg.family, cfg.jobs) == ("B", 3)


def _commands():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_run_is_the_only_command():
    assert set(_commands()) == {"run"}


# one non-default value per `run` grid flag; a flag missing here fails below
RUN_FLAG_VALUES = {
    "--cifar10-dir": "batches", "--cifar10-subset": "2x10",
    "--ratios": "1,2", "--family": "B", "--devices": "3", "--seeds": "1,2",
    "--ae-epochs": "1", "--clf-epochs": "1", "--batch-size": "8", "--jobs": "2",
}
RUN_FLAGS = [a.option_strings[-1] for a in _commands()["run"]._actions
             if a.option_strings[-1] not in ("--help", "--config", "--out")]


# flags a flag needs beside it; the flag must change the config they build
RUN_FLAG_NEEDS = {"--cifar10-subset": ["--cifar10-dir", "batches"]}


# the config file keys each `run` grid flag stands for, at RUN_FLAG_VALUES
RUN_FLAG_KEYS = {
    "--cifar10-dir": {"cifar_dir": "batches"},
    "--cifar10-subset": {"cifar_subset": "2x10"},
    "--ratios": {"ratios": [1, 2]},
    "--family": {"family": "B"},
    "--devices": {"n_devices": 3},
    "--seeds": {"seeds": [1, 2]},
    "--ae-epochs": {"ae": {"epochs": 1}},
    "--clf-epochs": {"clf": {"epochs": 1}},
    "--batch-size": {"ae": {"batch_size": 8}, "clf": {"batch_size": 8}},
    "--jobs": {"jobs": 2},
}


@pytest.mark.parametrize("flag", RUN_FLAG_VALUES)
def test_each_run_flag_sets_what_its_file_keys_set(flag, tmp_path):
    needs = RUN_FLAG_NEEDS.get(flag, [])
    doc = {"format": CONFIG_FORMAT, "version": CONFIG_VERSION}
    for given in needs[::2] + [flag]:
        doc.update(RUN_FLAG_KEYS[given])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    args = build_parser().parse_args(["run", *needs, flag, RUN_FLAG_VALUES[flag]])
    assert _experiment_config(args) == load_config(path)


@pytest.mark.parametrize("flag", RUN_FLAGS)
def test_every_run_flag_changes_the_config(flag):
    base = ["run"] + RUN_FLAG_NEEDS.get(flag, [])
    argv = base + [flag, RUN_FLAG_VALUES[flag]]
    assert _experiment_config(build_parser().parse_args(["run"])) == ExperimentConfig()
    unflagged = _experiment_config(build_parser().parse_args(base))
    assert _experiment_config(build_parser().parse_args(argv)) != unflagged


@pytest.mark.parametrize("flag", RUN_FLAGS)
def test_config_refuses_every_grid_flag(flag, tmp_path, monkeypatch, capsys):
    def no_training(*args):
        raise AssertionError("a grid cell ran")

    monkeypatch.setattr(experiment, "run_cell", no_training)
    argv = ["run", "--config", str(_small_config(tmp_path)), flag, RUN_FLAG_VALUES[flag]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"latentwire: error: {flag} cannot go with --config\n"
