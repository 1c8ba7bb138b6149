"""Datasets: the CIFAR-10 binary loader and a desk-scale synthetic generator."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LatentWireError

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
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise LatentWireError(
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

# class c takes family c % 4 and colour _PALETTE[c]: a ninth class would
# repeat class 0's family and colour
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


@dataclass
class SyntheticSpec:
    image_size: tuple[int, ...] = (32, 32, 3)
    num_classes: int = 4
    samples_per_class: int = 150
    noise: float = 0.05

    def __post_init__(self):
        size = self.image_size
        if not (isinstance(size, (tuple, list)) and len(size) == 3
                and all(_is_count(v) for v in size)):
            raise ValueError(f"image_size must be three positive ints (H, W, C), got {size!r}")
        if size[2] != 3:
            raise ValueError(f"synthetic generator renders 3-channel images, got {size[2]}")
        if not (_is_count(self.num_classes) and 2 <= self.num_classes <= len(_PALETTE)):
            raise ValueError(f"num_classes must be an int in [2, {len(_PALETTE)}], "
                             f"got {self.num_classes!r}")
        if not _is_count(self.samples_per_class) or self.samples_per_class % sum(SPLIT_RATIO):
            raise ValueError(
                f"samples_per_class must be a positive multiple of the split ratio "
                f"total {sum(SPLIT_RATIO)}, got {self.samples_per_class!r}")
        if not self.noise >= 0:
            raise ValueError(f"noise must be >= 0, got {self.noise!r}")


def _is_count(v):
    """A positive int; numpy integer scalars count, floats do not."""
    return isinstance(v, (int, np.integer)) and v >= 1


def _render(family, color, y, x, rng):
    """One noiseless (h, w, 3) float64 image of `family` in `color`, from
    row coordinates `y` (h, 1) and column coordinates `x` (1, w); draws the
    family's shape parameters from `rng`."""
    h, w = len(y), x.shape[1]
    if family == 0:  # filled disc
        cy = h / 2 + rng.uniform(-JITTER, JITTER) * h / 2
        cx = w / 2 + rng.uniform(-JITTER, JITTER) * w / 2
        r = (0.22 + 0.10 * rng.random()) * min(h, w)
        mask = (y - cy) ** 2 + (x - cx) ** 2 <= r * r
    elif family == 1:  # vertical bars
        period = rng.integers(4, 9)
        phase = rng.integers(0, period)
        mask = ((x + phase) // (period / 2)).astype(int) % 2 == 0
    elif family == 2:  # checkerboard
        cell = rng.integers(4, 9)
        oy, ox = rng.integers(0, cell, size=2)
        mask = (((y + oy) // cell) + ((x + ox) // cell)).astype(int) % 2 == 0
    else:  # linear ramp toward the class color
        theta = rng.uniform(0, 2 * np.pi)
        ramp = np.cos(theta) * x / w + np.sin(theta) * y / h
        ramp = (ramp - ramp.min()) / (ramp.max() - ramp.min() + 1e-9)
        return 0.12 + ramp[..., None] * (color - 0.12)
    return np.where(mask[..., None], color, 0.12)


def gen_synthetic(spec: SyntheticSpec, seed: int):
    """Procedural geometric classes; deterministic for a given seed.

    Class by class, a class's first samples go to train and the rest to
    test, in the proportion SPLIT_RATIO. Every sample makes its draws from
    one rng in this order: the shape parameters of its family (`_render`),
    then H*W*3 standard normals in C order. The normals times `spec.noise`
    are added to the rendered image, which is clipped to [0, 1] and stored
    as float32. That order fixes the bytes; `test_generated_bytes_are_pinned`
    holds them.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x5EED, seed]))
    h, w, _ = spec.image_size
    k = spec.num_classes
    n_test = spec.samples_per_class * SPLIT_RATIO[1] // sum(SPLIT_RATIO)
    n_train = spec.samples_per_class - n_test
    train = np.empty((k, n_train, h, w, 3), np.float32)
    test = np.empty((k, n_test, h, w, 3), np.float32)
    y = np.arange(h, dtype=np.float64)[:, None]
    x = np.arange(w, dtype=np.float64)[None, :]
    pixels = np.empty((h, w, 3))
    for cls in range(k):
        color = np.asarray(_PALETTE[cls])
        for out in (*train[cls], *test[cls]):
            img = _render(cls % 4, color, y, x, rng)
            rng.standard_normal(out=pixels)
            pixels *= spec.noise  # == normal(0, noise): its 0.0 + s*z adds nothing to img
            pixels += img
            np.clip(pixels, 0.0, 1.0, out=out)

    train = LabeledDataset(train.reshape(-1, h, w, 3), np.repeat(np.arange(k), n_train), k)
    test = LabeledDataset(test.reshape(-1, h, w, 3), np.repeat(np.arange(k), n_test), k)
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
        raise LatentWireError(
            f"classes not separated: inter {np.mean(inter):.4f} vs "
            f"intra {np.mean(intra):.4f} (margin {MARGIN})")


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches


def _batch_records(path):
    """One binary batch file -> its (N, CIFAR_RECORD) uint8 records, checked."""
    path = Path(path)
    if not path.is_file():
        raise LatentWireError(f"missing batch file {path}")
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    if raw.size == 0 or raw.size % CIFAR_RECORD:
        raise LatentWireError(
            f"{path}: {raw.size} bytes is not a whole number of {CIFAR_RECORD}-byte records")
    records = raw.reshape(-1, CIFAR_RECORD)
    if records[:, 0].max(initial=0) > 9:
        raise LatentWireError(f"{path}: label {records[:, 0].max()} out of range 0..9")
    return records


def _decode_batches(batches):
    """Checked record arrays -> (images (N,32,32,3) in [0,1], labels), each
    batch's images divided straight into one float32 array: no per-batch
    float copy and no concatenated copy."""
    images = np.empty((sum(map(len, batches)), 32, 32, 3), np.float32)
    lo = 0
    for records in batches:
        pixels = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
        np.divide(pixels, np.float32(255), out=images[lo:lo + len(records)])
        lo += len(records)
    return images, np.concatenate([records[:, 0] for records in batches]).astype(np.int64)


def load_cifar10(directory):
    """Standard binary archive -> (train 50000, test 10000). Each split's
    batch files are checked, then decoded into one array (_decode_batches)."""
    directory = Path(directory)
    train = _decode_batches([_batch_records(directory / name) for name in CIFAR_TRAIN_FILES])
    test = _decode_batches([_batch_records(directory / CIFAR_TEST_FILE)])
    return LabeledDataset(*train, 10), LabeledDataset(*test, 10)


def cifar10_subset(train, test, num_classes, per_class):
    """First `per_class` train images of each of the first `num_classes`
    classes, with test cut to SPLIT_RATIO."""
    def cut(data, n):
        keep = []
        for cls in range(num_classes):
            idx = np.flatnonzero(data.labels == cls)[:n]
            keep.append(idx)
        idx = np.concatenate(keep)
        return LabeledDataset(data.images[idx], data.labels[idx], num_classes)
    n_test = max(per_class * SPLIT_RATIO[1] // SPLIT_RATIO[0], 1)
    return cut(train, per_class), cut(test, n_test)
