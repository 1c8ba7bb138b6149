"""Training: one epoch loop behind the unsupervised autoencoder fit and the
supervised classifier fit (with optional augmentation), and evaluation.

A ratio-1 autoencoder is a network with no layers; it runs the same loop
and its reconstruction loss is exactly zero."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DivergenceError, ShapeMismatchError
from .losses import cross_entropy_loss, mse_loss
from .network import Network
from .optim import ALGORITHMS, make_optimizer, optimizer_step
from .zoo import AutoencoderPair, ModelSpec


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    optimizer: str | None = None  # None -> rmsprop for AEs, adam for classifiers
    lr: float | None = None  # None -> optimizer default
    seed: int = 0
    augment: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.optimizer is not None and self.optimizer not in ALGORITHMS:
            raise ValueError(f"optimizer must be one of {ALGORITHMS}, "
                             f"got {self.optimizer!r}")
        if self.lr is not None and not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr!r}")


@dataclass
class TrainHistory:
    losses: list = field(default_factory=list)
    metrics: list = field(default_factory=list)
    train_seconds: float = 0.0


@dataclass
class TrainedAutoencoder:
    pair: AutoencoderPair
    chain: Network  # encoder+decoder as one network; no layers at ratio 1

    @cached_property
    def encoder(self):
        return self.chain.slice(0, len(self.pair.encoder.layers),
                                self.pair.encoder.input_shape, "encoder")

    @cached_property
    def decoder(self):
        return self.chain.slice(len(self.pair.encoder.layers), len(self.chain.spec.layers),
                                self.pair.latent_shape, "decoder")


def _check_finite(value, epoch):
    if not np.isfinite(value):
        raise DivergenceError(f"non-finite loss {value} at epoch {epoch}")


def _fit(spec, images, labels, cfg, optimizer, upto=None, augment_batches=False):
    """The epoch loop both trainers share; returns (Network, TrainHistory).

    With ``labels`` None the targets are the inputs themselves: the loss is
    reconstruction MSE and the metric repeats it. Otherwise the loss is
    cross entropy on the output of layers [0:upto) and the metric is
    training accuracy. ``optimizer`` names the algorithm used when cfg sets
    none. The rng draws in a fixed order, so a seed fixes the run: weight
    init, then per epoch one permutation, then per batch augmentation and
    dropout.
    """
    rng = np.random.default_rng(cfg.seed)
    net = Network(spec, rng=rng)
    opt = make_optimizer(cfg.optimizer or optimizer, lr=cfg.lr)
    hist = TrainHistory()
    n = len(images)
    start = time.perf_counter()
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        correct = 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            xb = images[idx]
            if augment_batches:
                xb = augment_batch(xb, rng)
            out, caches = net.forward(xb, training=True, rng=rng,
                                      upto=upto, return_caches=True)
            # losses and optimizer_step are module globals read per call, so a
            # tracer that patches them by name sees every call
            if labels is None:
                loss = mse_loss(out, xb)
            else:
                yb = labels[idx]
                loss = cross_entropy_loss(out, yb)
                correct += int((out.argmax(axis=-1) == yb).sum())
            _check_finite(loss.value, epoch)
            grads = net.backward(caches, loss.gradient)
            optimizer_step(opt, *net.trainable(grads))
            epoch_loss += loss.value * len(xb)
        hist.losses.append(epoch_loss / n)
        hist.metrics.append(hist.losses[-1] if labels is None else correct / n)
    hist.train_seconds = time.perf_counter() - start
    return net, hist


def train_autoencoder(pair, images, cfg):
    """Minimize reconstruction MSE of decoder(encoder(x)) over `images`.

    Returns (TrainedAutoencoder, TrainHistory); history carries the
    per-epoch mean reconstruction MSE.
    """
    if tuple(images.shape[1:]) != pair.encoder.input_shape:
        raise ShapeMismatchError(
            f"images {images.shape[1:]} vs encoder input {pair.encoder.input_shape}")
    chain_spec = ModelSpec(pair.encoder.layers + pair.decoder.layers,
                           pair.encoder.input_shape, role="autoencoder")
    net, hist = _fit(chain_spec, images, None, cfg, "rmsprop")
    return TrainedAutoencoder(pair, net), hist


def _has_softmax_tail(spec):
    return (len(spec.layers) > 0
            and spec.layers[-1].kind == "activation"
            and spec.layers[-1].fn == "softmax")


def train_classifier(spec, data, cfg):
    """Minimize softmax cross entropy on a labeled dataset.

    Weights are drawn fresh from cfg.seed. Augmentation, when enabled,
    touches training batches of image-shaped samples only. A trailing
    softmax layer is bypassed during training and the loss is taken on
    logits; inference still applies it.
    """
    if tuple(data.sample_shape) != spec.input_shape:
        raise ShapeMismatchError(
            f"samples {data.sample_shape} vs model input {spec.input_shape}")
    upto = len(spec.layers) - 1 if _has_softmax_tail(spec) else None
    return _fit(spec, data.images, data.labels, cfg, "adam", upto=upto,
                augment_batches=cfg.augment and data.images.ndim == 4)


def evaluate(net, data):
    """(accuracy, wall seconds); inference mode, parameters untouched."""
    start = time.perf_counter()
    acc = 0.0
    if len(data):  # an empty split has no sample shape to run a forward on
        acc = float((net.infer(data.images).argmax(axis=-1) == data.labels).mean())
    return acc, time.perf_counter() - start


# ---------------------------------------------------------------------------
# augmentation


FLIP_PROB = 0.5
MAX_SHIFT_FRAC = 0.1  # of each spatial extent


def hflip(image):
    return image[:, ::-1, :]


def shift2d(image, dy, dx):
    """Translate with zero padding; output shape unchanged."""
    h, w, _ = image.shape
    out = np.zeros_like(image)
    ys = slice(max(dy, 0), h + min(dy, 0))
    yd = slice(max(-dy, 0), h + min(-dy, 0))
    xs = slice(max(dx, 0), w + min(dx, 0))
    xd = slice(max(-dx, 0), w + min(-dx, 0))
    out[ys, xs] = image[yd, xd]
    return out


def augment(image, rng):
    """Random horizontal flip then a bounded random shift with zero fill."""
    if image.ndim != 3:
        raise ShapeMismatchError(f"augment expects HxWxC images, got {image.shape}")
    out = image
    if rng.random() < FLIP_PROB:
        out = hflip(out)
    h, w, _ = image.shape
    sy = int(MAX_SHIFT_FRAC * h)
    sx = int(MAX_SHIFT_FRAC * w)
    dy = int(rng.integers(-sy, sy + 1)) if sy else 0
    dx = int(rng.integers(-sx, sx + 1)) if sx else 0
    if dy or dx:
        out = shift2d(out, dy, dx)
    return out


def augment_batch(images, rng):
    return np.stack([augment(img, rng) for img in images])
