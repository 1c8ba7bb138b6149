"""Datasets: the CIFAR-10 binary loader and a desk-scale synthetic generator."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetFormatError, LabelRangeError

CIFAR_RECORD = 3073  # 1 label byte + 32*32*3 pixel bytes, channel-planar
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILE = "test_batch.bin"


@dataclass
class LabeledDataset:
    images: np.ndarray  # (N, ...) float32
    labels: np.ndarray  # (N,) int64
    num_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.images) != len(self.labels):
            raise DatasetFormatError(
                f"{len(self.images)} images vs {len(self.labels)} labels")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise LabelRangeError(
                f"labels must lie in [0,{self.num_classes})")

    def __len__(self):
        return len(self.labels)

    @property
    def sample_shape(self):
        return tuple(self.images.shape[1:])

    def subset(self, indices):
        return LabeledDataset(self.images[indices], self.labels[indices], self.num_classes)


# ---------------------------------------------------------------------------
# synthetic shape classes


SPLIT_RATIO = (5, 1)  # train:test samples of each class
JITTER = 0.25  # largest disc-centre offset, as a fraction of the half extent
MARGIN = 1.2  # inter-class MSE must exceed intra-class by this factor


@dataclass
class SyntheticSpec:
    image_size: tuple = (32, 32, 3)
    num_classes: int = 4
    samples_per_class: int = 150
    noise: float = 0.05

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.samples_per_class % sum(SPLIT_RATIO):
            raise ValueError(
                f"samples_per_class {self.samples_per_class} not divisible by "
                f"split ratio total {sum(SPLIT_RATIO)}")


_PALETTE = [
    (0.85, 0.20, 0.20),
    (0.20, 0.80, 0.25),
    (0.25, 0.35, 0.90),
    (0.90, 0.85, 0.20),
    (0.80, 0.25, 0.80),
    (0.20, 0.80, 0.80),
    (0.95, 0.55, 0.15),
    (0.60, 0.60, 0.95),
]


def _render(family, color, h, w, rng):
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    img = np.full((h, w, 3), 0.12)
    color = np.asarray(color)
    if family == 0:  # filled disc
        cy = h / 2 + rng.uniform(-JITTER, JITTER) * h / 2
        cx = w / 2 + rng.uniform(-JITTER, JITTER) * w / 2
        r = (0.22 + 0.10 * rng.random()) * min(h, w)
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        img[mask] = color
    elif family == 1:  # vertical bars
        period = rng.integers(4, 9)
        phase = rng.integers(0, period)
        mask = ((xx + phase) // (period / 2)).astype(int) % 2 == 0
        img[mask] = color
    elif family == 2:  # checkerboard
        cell = rng.integers(4, 9)
        oy, ox = rng.integers(0, cell, size=2)
        mask = (((yy + oy) // cell) + ((xx + ox) // cell)).astype(int) % 2 == 0
        img[mask] = color
    else:  # linear ramp toward the class color
        theta = rng.uniform(0, 2 * np.pi)
        ramp = (np.cos(theta) * xx / w + np.sin(theta) * yy / h)
        ramp = (ramp - ramp.min()) / (ramp.max() - ramp.min() + 1e-9)
        img = 0.12 + ramp[..., None] * (color - 0.12)
    return img


def gen_synthetic(spec: SyntheticSpec, seed: int):
    """Procedural geometric classes; deterministic for a given seed."""
    rng = np.random.default_rng(np.random.SeedSequence([0x5EED, seed]))
    h, w, c = spec.image_size
    if c != 3:
        raise ValueError("synthetic generator renders 3-channel images")
    total = sum(SPLIT_RATIO)
    n_test = spec.samples_per_class * SPLIT_RATIO[1] // total
    n_train = spec.samples_per_class - n_test

    tr_imgs, tr_lab, te_imgs, te_lab = [], [], [], []
    for cls in range(spec.num_classes):
        family = cls % 4
        color = _PALETTE[cls % len(_PALETTE)]
        for i in range(spec.samples_per_class):
            img = _render(family, color, h, w, rng)
            img = img + rng.normal(0.0, spec.noise, size=img.shape)
            img = np.clip(img, 0.0, 1.0).astype(np.float32)
            if i < n_train:
                tr_imgs.append(img)
                tr_lab.append(cls)
            else:
                te_imgs.append(img)
                te_lab.append(cls)

    train = LabeledDataset(np.stack(tr_imgs), np.array(tr_lab), spec.num_classes)
    test = LabeledDataset(np.stack(te_imgs), np.array(te_lab), spec.num_classes)
    _check_separation(train)
    return train, test


def _check_separation(data, per_class=12):
    """Inter-class pixel MSE must exceed intra-class MSE by MARGIN."""
    groups = []
    for cls in range(data.num_classes):
        idx = np.flatnonzero(data.labels == cls)[:per_class]
        groups.append(data.images[idx].astype(np.float64))
    intra, inter = [], []
    for a in range(len(groups)):
        ga = groups[a]
        intra.append(np.mean((ga[:-1] - ga[1:]) ** 2))
        for b in range(a + 1, len(groups)):
            m = min(len(ga), len(groups[b]))
            inter.append(np.mean((ga[:m] - groups[b][:m]) ** 2))
    if np.mean(inter) < MARGIN * np.mean(intra):
        raise DatasetFormatError(
            f"classes not separated: inter {np.mean(inter):.4f} vs "
            f"intra {np.mean(intra):.4f} (margin {MARGIN})")


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches


def load_cifar10_batch(path):
    """One binary batch file -> (images (N,32,32,3) in [0,1], labels)."""
    path = Path(path)
    if not path.is_file():
        raise DatasetFormatError(f"missing batch file {path}")
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    if raw.size == 0 or raw.size % CIFAR_RECORD:
        raise DatasetFormatError(
            f"{path}: {raw.size} bytes is not a whole number of {CIFAR_RECORD}-byte records")
    records = raw.reshape(-1, CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    if labels.max(initial=0) > 9:
        raise DatasetFormatError(f"{path}: label {labels.max()} out of range 0..9")
    pixels = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    images = (pixels.astype(np.float32) / 255.0)
    return images, labels


def load_cifar10(directory):
    """Standard binary archive -> (train 50000, test 10000)."""
    directory = Path(directory)
    imgs, labs = [], []
    for name in CIFAR_TRAIN_FILES:
        i, l = load_cifar10_batch(directory / name)
        imgs.append(i)
        labs.append(l)
    train = LabeledDataset(np.concatenate(imgs), np.concatenate(labs), 10)
    ti, tl = load_cifar10_batch(directory / CIFAR_TEST_FILE)
    test = LabeledDataset(ti, tl, 10)
    return train, test


def cifar10_subset(train, test, num_classes, per_class):
    """First `per_class` train images of each of the first `num_classes`
    classes, with test cut to the 5:1 ratio."""
    def cut(data, n):
        keep = []
        for cls in range(num_classes):
            idx = np.flatnonzero(data.labels == cls)[:n]
            keep.append(idx)
        idx = np.concatenate(keep)
        return LabeledDataset(data.images[idx], data.labels[idx], num_classes)
    return cut(train, per_class), cut(test, max(per_class // 5, 1))
