"""Experiment grid: (compression ratio, seed) cells, each running
the full device -> wire -> hub pipeline, with metric normalization against
the ratio-1 baseline and CSV/JSON report emission. A relative ``cifar_dir``
that is not found where given is looked up under $LATENTWIRE_DATA_DIR when
the grid loads its data; the config keeps the path as given.

File rules. A config file is a JSON object holding ``format`` and
``version`` plus the :class:`ExperimentConfig` fields; nested objects hold
the fields of ``synthetic``, ``ae`` and ``clf``. A key left out takes its
``ExperimentConfig()`` default, at any depth, and an unknown key is an error.
A report path ending in ``.json`` gets a JSON report, any other a CSV one.
The columns of a CSV report are the :class:`ReportRow` fields in order; an
empty cell means ``None``. A JSON report holds ``format``, ``version`` and
``rows``, one object of the ReportRow fields per row.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .data import SyntheticSpec, cifar10_subset, gen_synthetic, load_cifar10
from .device import HubSink, make_devices
from .hub import Hub
from .train import TrainConfig
from .zoo import FAMILIES

log = logging.getLogger("latentwire")

CONFIG_FORMAT = "latentwire-config"
CONFIG_VERSION = 1
REPORT_FORMAT = "latentwire-report"
REPORT_VERSION = 1
DATA_DIR_ENV = "LATENTWIRE_DATA_DIR"


@dataclass
class ExperimentConfig:
    cifar_dir: str | None = None  # set: the grid runs on CIFAR-10, else on synthetic
    cifar_subset: str | None = None  # "CLASSESxPER_CLASS", e.g. "2x1000"
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    ratios: tuple[float, ...] = (1, 4, 8, 16)
    family: str = "A"
    n_devices: int = 4
    partition: str = "iid"  # the only value; perfbench and v1 files still name it
    ae: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=12))
    clf: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=20))
    seeds: tuple[int, ...] = (0,)
    jobs: int = 1

    def __post_init__(self):
        if not self.seeds or min(self.seeds) < 0:  # SeedSequence takes no negative seed
            raise ValueError(f"seeds must be one or more ints >= 0, got {self.seeds!r}")
        if not (self.ratios and all(0 < r < np.inf for r in self.ratios)):  # NaN fails too
            raise ValueError(f"ratios must be one or more finite positive numbers, "
                             f"got {self.ratios!r}")
        for name, choices in (("family", FAMILIES), ("partition", ("iid",))):
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, "
                                 f"got {getattr(self, name)!r}")
        for name in ("n_devices", "jobs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("ae", "clf"):
            if getattr(self, name).seed:
                raise ValueError(f"{name}.seed is replaced by each cell's seed; "
                                 "set the grid's seeds instead")
        if self.cifar_subset is not None:
            _parse_cifar_subset(self.cifar_subset)
        if self.cifar_subset is not None and self.cifar_dir is None:
            raise ValueError("cifar_subset needs cifar_dir, the CIFAR-10 directory")


def _parse_cifar_subset(text):
    """"CxN" -> (C, N): the first C of CIFAR-10's 10 classes, N train images each."""
    try:
        classes, per_class = (int(v) for v in text.lower().split("x"))
    except ValueError:
        classes = per_class = 0
    if not (1 <= classes <= 10 and per_class >= 1):
        raise ValueError("cifar_subset must be CLASSESxPER_CLASS with 1 <= CLASSES "
                         f"<= 10 and PER_CLASS >= 1, got {text!r}")
    return classes, per_class


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


def resolve_data_path(path):
    """`path`, or, when it is relative and not found, the same path under
    $LATENTWIRE_DATA_DIR if it exists there."""
    p = Path(path)
    if p.exists():
        return p
    root = os.environ.get(DATA_DIR_ENV)
    if root and not p.is_absolute():
        candidate = Path(root) / p
        if candidate.exists():
            return candidate
    return p


def load_experiment_data(cfg):
    """(name, train, test): CIFAR-10 when cfg.cifar_dir is set, else synthetic."""
    if cfg.cifar_dir is None:
        train, test = gen_synthetic(cfg.synthetic, seed=0)
        return "synthetic", train, test
    train, test = load_cifar10(resolve_data_path(cfg.cifar_dir))
    if cfg.cifar_subset is not None:
        train, test = cifar10_subset(train, test, *_parse_cifar_subset(cfg.cifar_subset))
        return f"cifar10-{cfg.cifar_subset}", train, test
    return "cifar10", train, test


def _fill_hub(train, test, cfg, cr, seed):
    """A hub holding every latent of the cell's devices: partition, fit each
    device's autoencoder and push its latents through the wire codec. The
    devices, with their shards and encoders, die when this returns."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD1CE]))
    hub = Hub()
    for dev in make_devices(train, test, cfg.n_devices, cfg.partition, rng):
        dev.fit_autoencoder(cr, replace(cfg.ae, seed=seed))
        dev.export_latents("train", HubSink(hub, "train"))
        dev.export_latents("test", HubSink(hub, "test"))
    return hub


def run_cell(name, train, test, cfg, cr, seed):
    """One (ratio, seed) cell: fill a hub from the devices, then train and
    score its classifier, with no device left alive to hold memory."""
    hub = _fill_hub(train, test, cfg, cr, seed)
    history = hub.train_classifier(cfg.family, replace(cfg.clf, seed=seed),
                                   num_classes=train.num_classes)
    accuracy, test_s = hub.evaluate("test", num_classes=train.num_classes)
    params = sum(a.size for a in hub.classifier.trainable())

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

    Any ``Exception`` a cell raises becomes a failed row whose ``error``
    starts with the exception's type name, and its traceback is logged;
    ``KeyboardInterrupt`` and ``SystemExit`` still end the run.

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
        except Exception as exc:  # one cell's failure must not discard the others' rows
            log.exception("cell cr=%s seed=%d failed", cr, seed)
            error = type(exc).__name__ + (f": {exc}" if str(exc) else "")
            return ReportRow(dataset=name, cr=float(cr), seed=seed, error=error)

    # jobs=1 runs the cells here, not in a one-worker pool: that pool raised the
    # pinned grid's peak RSS by 1.6-4.0 MB in 8 of 8 paired runs
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
    baselines = {}
    for r in report.rows:
        if not r.failed and r.cr == 1.0:
            baselines.setdefault((r.dataset, r.seed), r)
    for row in report.rows:
        if row.failed:
            continue
        base = baselines.get((row.dataset, row.seed))
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


def emit_report(report, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".json":
        doc = {"format": REPORT_FORMAT, "version": REPORT_VERSION,
               "rows": [asdict(r) for r in report.rows]}
        path.write_text(json.dumps(doc, indent=2) + "\n")
    else:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(f.name for f in fields(ReportRow))
            for r in report.rows:
                writer.writerow("" if v is None else v for v in asdict(r).values())


# ---------------------------------------------------------------------------
# config files (versioned JSON of the ExperimentConfig fields)


# the JSON values a field of each type takes; a bool is never one of them
_JSON_TYPES = {int: int, float: (int, float), str: str}


def _json_value(value, hint, where):
    """A JSON `value` as a field typed `hint` holds it: a list becomes a
    tuple. A value of another type is a ValueError naming `where`."""
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_json_value(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[hint]):
        raise ValueError(f"{where} must be {hint.__name__}, got {value!r}")
    return value


def _merge(base, doc, where):
    """`base` with the fields named in `doc` replaced. Nested dataclasses
    merge recursively; other values must have their field's JSON type. The
    dataclasses' own checks run on the result."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object, got {doc!r}")
    unknown = sorted(set(doc) - {f.name for f in fields(base)})
    if unknown:
        raise ValueError(f"unknown config key(s) in {where}: {', '.join(unknown)}")
    hints = typing.get_type_hints(type(base))
    changes = {}
    for name, value in doc.items():
        current = getattr(base, name)
        if is_dataclass(current):
            changes[name] = _merge(current, value, f"{where}.{name}")
        else:
            changes[name] = _json_value(value, hints[name], f"{where}.{name}")
    return replace(base, **changes)


def merge_config(body: dict) -> ExperimentConfig:
    return _merge(ExperimentConfig(), body, "config")


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ValueError(f"config document must be an object, got {doc!r}")
    if doc.get("format") != CONFIG_FORMAT:
        raise ValueError(f"not a latentwire config document: {doc.get('format')!r}")
    if type(doc.get("version")) is not int or doc["version"] != CONFIG_VERSION:
        raise ValueError(f"unsupported config version {doc.get('version')!r}")
    return merge_config({k: v for k, v in doc.items() if k not in ("format", "version")})


def load_config(path):
    return config_from_dict(json.loads(Path(path).read_text()))
