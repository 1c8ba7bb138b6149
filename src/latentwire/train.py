"""Training: one epoch loop behind the unsupervised autoencoder fit and the
supervised classifier fit, and evaluation.

A ratio-1 autoencoder is a network with no layers; it runs the same loop
and its reconstruction loss is exactly zero."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .losses import cross_entropy_loss, mse_loss
from .network import Network
from .optim import make_optimizer, optimizer_step
from .zoo import ModelSpec


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr: float | None = None  # None -> the optimizer's default rate
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.lr is not None and not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr!r}")


@dataclass
class TrainHistory:
    losses: list = field(default_factory=list)
    metrics: list = field(default_factory=list)
    train_seconds: float = 0.0


def _fit(spec, images, labels, cfg, algorithm):
    """The epoch loop both trainers share; returns (Network, TrainHistory).

    With ``labels`` None the targets are the inputs themselves: the loss is
    reconstruction MSE and the metric repeats it. Otherwise the loss is
    softmax cross entropy on the network's logits and the metric is
    training accuracy. ``algorithm`` names the optimizer; each trainer
    fixes its own. The rng draws in a fixed order, so a seed fixes the run:
    weight init, then per epoch one permutation, then per batch dropout.

    One cache list serves every step, so the fit holds one step of
    activations, not two (see ``Network.forward``).
    """
    rng = np.random.default_rng(cfg.seed)
    net = Network(spec, rng=rng)
    caches = [None] * len(spec.layers)
    opt = make_optimizer(algorithm, net.trainable(), lr=cfg.lr)
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
            out = net.forward(xb, rng=rng, caches=caches)
            # losses and optimizer_step are module globals read per call, so a
            # tracer that patches them by name sees every call
            if labels is None:
                value, gradient = mse_loss(out, xb)
            else:
                yb = labels[idx]
                value, gradient = cross_entropy_loss(out, yb)
                correct += int((out.argmax(axis=-1) == yb).sum())
            if not np.isfinite(value):
                raise DivergenceError(f"non-finite loss {value} at epoch {epoch}")
            optimizer_step(opt, net.backward(caches, gradient))
            epoch_loss += value * len(xb)
        hist.losses.append(epoch_loss / n)
        hist.metrics.append(hist.losses[-1] if labels is None else correct / n)
    hist.train_seconds = time.perf_counter() - start
    return net, hist


def train_autoencoder(pair, images, cfg):
    """Minimize reconstruction MSE of decoder(encoder(x)) over `images`.

    One rmsprop fit runs over the encoder and decoder layers as a single chain.
    Returns (encoder, TrainHistory): the encoder is the pair's encoder spec
    over the chain's own leading parameter arrays, so nothing is copied, and
    history carries the per-epoch mean reconstruction MSE. The decoder's
    arrays are not returned, so they die with the fit.
    """
    chain_spec = ModelSpec(pair.encoder.layers + pair.decoder.layers,
                           pair.encoder.input_shape)
    net, hist = _fit(chain_spec, images, None, cfg, "rmsprop")
    return Network(pair.encoder, params=net.params[:len(pair.encoder.layers)]), hist


def train_classifier(spec, data, cfg):
    """Minimize softmax cross entropy of the spec's logits on a labeled dataset.

    Adam fits weights drawn fresh from cfg.seed.
    """
    return _fit(spec, data.images, data.labels, cfg, "adam")


def evaluate(net, data):
    """(accuracy, wall seconds); inference mode, parameters untouched."""
    start = time.perf_counter()
    acc = 0.0
    if len(data):  # an empty split has no sample shape to run a forward on
        acc = float((net.infer(data.images).argmax(axis=-1) == data.labels).mean())
    return acc, time.perf_counter() - start

