"""Benchmark harness: grid of (compression ratio, seed) cells, each running
the full device -> wire -> hub pipeline, with metric normalization against
the ratio-1 baseline and CSV/JSON report emission.

File rules. A config file is a JSON object holding ``format`` and
``version`` plus the :class:`ExperimentConfig` fields; nested objects hold
the fields of ``synthetic``, ``ae`` and ``clf``. A key left out takes its
``ExperimentConfig()`` default, at any depth, and an unknown key is an error.
The columns of a CSV report are the :class:`ReportRow` fields in order; an
empty cell means ``None``.
"""

from __future__ import annotations

import csv
import json
import logging
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .data import SyntheticSpec, cifar10_subset, gen_synthetic, load_cifar10
from .device import HubSink, make_devices
from .errors import LatentWireError
from .hub import Hub
from .train import TrainConfig
from .zoo import FAMILIES, count_parameters

log = logging.getLogger("latentwire")

CONFIG_FORMAT = "latentwire-config"
CONFIG_VERSION = 1
REPORT_FORMAT = "latentwire-report"
REPORT_VERSION = 1
DATASETS = ("synthetic", "cifar10")


@dataclass
class ExperimentConfig:
    dataset: str = "synthetic"
    cifar_dir: str | None = None
    cifar_subset: str | None = None  # "CLASSESxPER_CLASS", e.g. "2x1000"
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    ratios: tuple = (1, 4, 8, 16)
    family: str = "A"
    n_devices: int = 4
    partition: str = "iid"  # the only value; perfbench and v1 files still name it
    ae: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=12))
    clf: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=20))
    seeds: tuple = (0,)
    jobs: int = 1
    out: str | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("need at least one seed")
        if any(r <= 0 for r in self.ratios):
            raise ValueError("ratios must be positive")
        for name, choices in (("dataset", DATASETS), ("family", FAMILIES),
                              ("partition", ("iid",))):
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, "
                                 f"got {getattr(self, name)!r}")
        if self.ae.augment:
            raise ValueError("ae.augment is not applied to the autoencoder fit; "
                             "augmentation is a clf setting")


@dataclass
class ReportRow:
    dataset: str
    cr: float
    seed: int
    accuracy: float | None = None
    params: int | None = None
    train_s: float | None = None
    test_s: float | None = None
    acc_norm: float | None = None
    params_norm: float | None = None
    train_norm: float | None = None
    test_norm: float | None = None
    error: str | None = None

    @property
    def failed(self):
        return self.error is not None


@dataclass
class ExperimentReport:
    rows: list = field(default_factory=list)

    def group(self, dataset, seed):
        return [r for r in self.rows if r.dataset == dataset and r.seed == seed]


def load_experiment_data(cfg):
    """(name, train, test) for the configured source."""
    if cfg.dataset == "synthetic":
        train, test = gen_synthetic(cfg.synthetic, seed=0)
        return "synthetic", train, test
    if not cfg.cifar_dir:
        raise ValueError("cifar10 dataset needs cifar_dir")
    train, test = load_cifar10(cfg.cifar_dir)
    if cfg.cifar_subset:
        classes, per_class = (int(v) for v in cfg.cifar_subset.lower().split("x"))
        train, test = cifar10_subset(train, test, classes, per_class)
        return f"cifar10-{cfg.cifar_subset}", train, test
    return "cifar10", train, test


def run_cell(name, train, test, cfg, cr, seed):
    """One (ratio, seed) cell: partition, fit device autoencoders, push every
    latent through the wire codec into a hub, train and score the classifier."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD1CE]))
    devices = make_devices(train, test, cfg.n_devices, cfg.partition, rng)
    hub = Hub()
    for dev in devices:
        dev.fit_autoencoder(cr, replace(cfg.ae, seed=seed))
        dev.export_latents("train", HubSink(hub, "train"))
        dev.export_latents("test", HubSink(hub, "test"))

    clf_cfg = replace(cfg.clf, seed=seed,
                      augment=cfg.clf.augment and cr == 1)
    history = hub.train_classifier(cfg.family, clf_cfg, num_classes=train.num_classes)
    accuracy, test_s = hub.evaluate("test", num_classes=train.num_classes)
    params = count_parameters(hub.classifier.spec)

    if log.isEnabledFor(logging.INFO):
        test_data = hub.assemble("test", num_classes=train.num_classes)
        owners = np.array([r.device_id for r in hub.records("test")])
        hits = hub.classifier.infer(test_data.images).argmax(axis=-1) == test_data.labels
        for device_id in np.unique(owners):
            log.info("cell cr=%s seed=%d device=%d accuracy=%.4f",
                     cr, seed, device_id, hits[owners == device_id].mean())

    return ReportRow(dataset=name, cr=float(cr), seed=seed, accuracy=accuracy,
                     params=params, train_s=history.train_seconds, test_s=test_s)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full grid; a failing cell is recorded and the rest continue.

    The trained bits are reproducible only at a fixed BLAS thread count: the
    same config and seeds train other float32 weights (with the same
    accuracies so far) at another thread count, so pin it to compare runs.
    """
    name, train, test = load_experiment_data(cfg)
    cells = [(cr, seed) for seed in cfg.seeds for cr in cfg.ratios]

    def one(cell):
        cr, seed = cell
        try:
            return run_cell(name, train, test, cfg, cr, seed)
        except LatentWireError as exc:
            log.warning("cell cr=%s seed=%d failed: %s", cr, seed, exc)
            return ReportRow(dataset=name, cr=float(cr), seed=seed, error=str(exc))

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(one, cells))
    else:
        rows = [one(cell) for cell in cells]
    report = ExperimentReport(rows)
    normalize_metrics(report)
    return report


_NORMALIZED = (("accuracy", "acc_norm"), ("params", "params_norm"),
               ("train_s", "train_norm"), ("test_s", "test_norm"))


def normalize_metrics(report: ExperimentReport) -> ExperimentReport:
    """Divide each metric by its ratio-1 value within the (dataset, seed) group.

    A row whose group has no successful ratio-1 row, or whose baseline value
    is zero, keeps its raw metrics: the affected ``*_norm`` fields stay None
    and a warning is logged, so a bad baseline never discards a finished grid.
    """
    for row in report.rows:
        if row.failed:
            continue
        base = next((r for r in report.group(row.dataset, row.seed)
                     if not r.failed and r.cr == 1.0), None)
        if base is None:
            log.warning("no ratio-1 baseline for (%s, seed %d): cr=%g not normalized",
                        row.dataset, row.seed, row.cr)
            continue
        for metric, norm in _NORMALIZED:
            b = getattr(base, metric)
            if b:
                setattr(row, norm, getattr(row, metric) / b)
            else:
                log.warning("ratio-1 %s is %r for (%s, seed %d): cr=%g %s not set",
                            metric, b, row.dataset, row.seed, row.cr, norm)
    return report


# ---------------------------------------------------------------------------
# report files


def _cell_parser(hint):
    """Parser for the CSV cells of a field typed `hint`; "" is None for an
    optional field."""
    args = typing.get_args(hint)
    if type(None) not in args:
        return hint
    (typ,) = [a for a in args if a is not type(None)]
    return lambda cell: None if cell == "" else typ(cell)


def emit_report(report, path, fmt="csv"):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(f.name for f in fields(ReportRow))
            for r in report.rows:
                writer.writerow("" if v is None else v for v in asdict(r).values())
    elif fmt == "json":
        doc = {"format": REPORT_FORMAT, "version": REPORT_VERSION,
               "rows": [asdict(r) for r in report.rows]}
        path.write_text(json.dumps(doc, indent=2) + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def parse_report(path, fmt="csv") -> ExperimentReport:
    path = Path(path)
    names = [f.name for f in fields(ReportRow)]
    if fmt == "csv":
        hints = typing.get_type_hints(ReportRow)
        parsers = [_cell_parser(hints[name]) for name in names]
        rows = []
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != names:
                raise ValueError(f"unexpected report header {header}")
            for cells in reader:
                if len(cells) != len(names):
                    raise ValueError(f"report row has {len(cells)} cells, not {len(names)}")
                rows.append(ReportRow(*(parse(c) for parse, c in zip(parsers, cells))))
        return ExperimentReport(rows)
    if fmt == "json":
        doc = json.loads(path.read_text())
        if doc.get("format") != REPORT_FORMAT:
            raise ValueError("not a latentwire report document")
        if doc.get("version") != REPORT_VERSION:
            raise ValueError(f"unsupported report version {doc.get('version')!r}")
        if set(doc) != {"format", "version", "rows"}:
            raise ValueError(f"report keys {sorted(doc)} are not format, version and rows")
        for r in doc["rows"]:
            if not isinstance(r, dict) or set(r) != set(names):
                raise ValueError(f"report row {r!r} does not hold exactly the ReportRow fields")
        return ExperimentReport([ReportRow(**r) for r in doc["rows"]])
    raise ValueError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# config files (versioned JSON of the ExperimentConfig fields)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {"format": CONFIG_FORMAT, "version": CONFIG_VERSION, **asdict(cfg)}


def _merge(base, doc, where):
    """`base` with the fields named in `doc` replaced. Nested dataclasses
    merge recursively and JSON lists become tuples; the dataclasses'
    own checks run on the result."""
    if not isinstance(doc, dict):
        raise ValueError(f"config {where} must be an object, got {doc!r}")
    unknown = sorted(set(doc) - {f.name for f in fields(base)})
    if unknown:
        raise ValueError(f"unknown config key(s) in {where}: {', '.join(unknown)}")
    changes = {}
    for name, value in doc.items():
        current = getattr(base, name)
        if is_dataclass(current):
            value = _merge(current, value, f"{where}.{name}")
        elif isinstance(value, list):
            value = tuple(value)
        changes[name] = value
    return replace(base, **changes)


def config_from_dict(doc: dict) -> ExperimentConfig:
    if doc.get("format") != CONFIG_FORMAT:
        raise ValueError(f"not a latentwire config document: {doc.get('format')!r}")
    if doc.get("version") != CONFIG_VERSION:
        raise ValueError(f"unsupported config version {doc.get('version')!r}")
    body = {k: v for k, v in doc.items() if k not in ("format", "version")}
    return _merge(ExperimentConfig(), body, "config")


def save_config(cfg, path):
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")


def load_config(path):
    return config_from_dict(json.loads(Path(path).read_text()))
