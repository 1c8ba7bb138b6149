"""Training loops: unsupervised autoencoder fit, supervised classifier fit
with optional augmentation, and evaluation."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ShapeMismatchError
from .losses import cross_entropy_loss, mse_loss
from .network import Network
from .optim import make_optimizer, optimizer_step
from .zoo import AutoencoderPair, ModelSpec


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    optimizer: str | None = None  # None -> rmsprop for AEs, adam for classifiers
    lr: float | None = None  # None -> optimizer default
    seed: int = 0
    augment: bool = False
    patience: int | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")


@dataclass
class TrainHistory:
    losses: list = field(default_factory=list)
    metrics: list = field(default_factory=list)
    train_seconds: float = 0.0
    eval_seconds: float = 0.0


@dataclass
class TrainedAutoencoder:
    pair: AutoencoderPair
    chain: Network | None  # encoder+decoder as one network; None for identity
    split_index: int

    @property
    def is_identity(self):
        return self.chain is None

    @property
    def encoder(self):
        if self.is_identity:
            return Network(self.pair.encoder, params=[])
        return self.chain.slice(0, self.split_index,
                                self.pair.encoder.input_shape, "encoder")

    @property
    def decoder(self):
        if self.is_identity:
            return Network(self.pair.decoder, params=[])
        return self.chain.slice(self.split_index, len(self.chain.spec.layers),
                                self.pair.latent_shape, "decoder")


def _check_finite(value, epoch):
    if not np.isfinite(value):
        raise DivergenceError(f"non-finite loss {value} at epoch {epoch}")


def train_autoencoder(pair, images, cfg):
    """Minimize reconstruction MSE of decoder(encoder(x)) over `images`.

    Returns (TrainedAutoencoder, TrainHistory); history carries the
    per-epoch mean reconstruction MSE. A ratio-1 pair trains nothing and
    reports zero loss.
    """
    if pair.is_identity:
        hist = TrainHistory(losses=[0.0] * cfg.epochs, metrics=[0.0] * cfg.epochs)
        return TrainedAutoencoder(pair, None, 0), hist

    if tuple(images.shape[1:]) != pair.encoder.input_shape:
        raise ShapeMismatchError(
            f"images {images.shape[1:]} vs encoder input {pair.encoder.input_shape}")

    rng = np.random.default_rng(cfg.seed)
    chain_spec = ModelSpec(pair.encoder.layers + pair.decoder.layers,
                           pair.encoder.input_shape, role="autoencoder")
    net = Network(chain_spec, rng=rng)
    opt = make_optimizer(cfg.optimizer or "rmsprop", lr=cfg.lr)
    hist = TrainHistory()
    n = len(images)
    start = time.perf_counter()
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, cfg.batch_size):
            xb = images[order[lo:lo + cfg.batch_size]]
            out, caches = net.forward(xb, training=True, rng=rng, return_caches=True)
            loss = mse_loss(out, xb)
            _check_finite(loss.value, epoch)
            _, grads = net.backward(caches, loss.gradient)
            params, gflat = net.trainable(grads)
            optimizer_step(opt, params, gflat)
            epoch_loss += loss.value * len(xb)
        hist.losses.append(epoch_loss / n)
        hist.metrics.append(hist.losses[-1])
        if _should_stop(hist.losses, cfg.patience):
            break
    hist.train_seconds = time.perf_counter() - start
    return TrainedAutoencoder(pair, net, len(pair.encoder.layers)), hist


def _should_stop(losses, patience):
    if patience is None or len(losses) <= patience:
        return False
    best = min(losses[:-patience])
    return all(l >= best for l in losses[-patience:])


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
    rng = np.random.default_rng(cfg.seed)
    net = Network(spec, rng=rng)
    if tuple(data.sample_shape) != net.input_shape:
        raise ShapeMismatchError(
            f"samples {data.sample_shape} vs model input {net.input_shape}")
    upto = len(net.spec.layers) - 1 if _has_softmax_tail(net.spec) else None
    opt = make_optimizer(cfg.optimizer or "adam", lr=cfg.lr)
    hist = TrainHistory()
    n = len(data)
    do_augment = cfg.augment and data.images.ndim == 4
    start = time.perf_counter()
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        correct = 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            xb = data.images[idx]
            yb = data.labels[idx]
            if do_augment:
                xb = augment_batch(xb, AugmentPolicy(), rng)
            logits, caches = net.forward(xb, training=True, rng=rng,
                                         upto=upto, return_caches=True)
            loss = cross_entropy_loss(logits, yb)
            _check_finite(loss.value, epoch)
            _, grads = net.backward(caches, loss.gradient)
            params, gflat = net.trainable(grads)
            optimizer_step(opt, params, gflat)
            epoch_loss += loss.value * len(xb)
            correct += int((logits.argmax(axis=-1) == yb).sum())
        hist.losses.append(epoch_loss / n)
        hist.metrics.append(correct / n)
        if _should_stop(hist.losses, cfg.patience):
            break
    hist.train_seconds = time.perf_counter() - start
    return net, hist


def evaluate(net, data):
    """(accuracy, wall seconds); inference mode, parameters untouched."""
    start = time.perf_counter()
    acc = 0.0
    if len(data):  # an empty split has no sample shape to run a forward on
        acc = float((net.infer(data.images).argmax(axis=-1) == data.labels).mean())
    return acc, time.perf_counter() - start


# ---------------------------------------------------------------------------
# augmentation


@dataclass
class AugmentPolicy:
    enabled: bool = True
    flip_prob: float = 0.5
    max_shift_frac: float = 0.1


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


def augment(image, policy, rng):
    """Random horizontal flip then a bounded random shift with zero fill."""
    if image.ndim != 3:
        raise ShapeMismatchError(f"augment expects HxWxC images, got {image.shape}")
    if not policy.enabled:
        return image
    out = image
    if rng.random() < policy.flip_prob:
        out = hflip(out)
    h, w, _ = image.shape
    sy = int(policy.max_shift_frac * h)
    sx = int(policy.max_shift_frac * w)
    dy = int(rng.integers(-sy, sy + 1)) if sy else 0
    dx = int(rng.integers(-sx, sx + 1)) if sx else 0
    if dy or dx:
        out = shift2d(out, dy, dx)
    return out


def augment_batch(images, policy, rng):
    return np.stack([augment(img, policy, rng) for img in images])
