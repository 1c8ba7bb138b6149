"""Runtime model: a ModelSpec bound to parameter arrays."""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .errors import LatentWireError
from .zoo import KERNEL, ModelSpec, infer_shapes

INFER_BATCH = 32  # samples per forward in bulk inference: one training batch


def glorot_uniform(shape, rng):
    """float32 uniform on [-L, L], L = sqrt(6 / (fan_in + fan_out)). The last
    two axes are the channels in and out, any before them the kernel, so
    fan_in + fan_out = prod(shape[:-2]) * (shape[-2] + shape[-1])."""
    limit = np.sqrt(6.0 / (math.prod(shape[:-2]) * (shape[-2] + shape[-1])))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


class Network:
    """Sequential chain of layers with explicit forward/backward passes.

    Parameters live in ``self.params``: one dict per layer ({"w","b"} for
    conv2d/dense, empty otherwise).
    """

    def __init__(self, spec: ModelSpec, params=None, rng=None):
        self.spec = spec
        self.params = params if params is not None else self._init_params(rng)

    def _init_params(self, rng):
        shapes = infer_shapes(self.spec)
        params = []
        for layer, shape_in, shape_out in zip(self.spec.layers, shapes, shapes[1:]):
            if layer.kind in ("conv2d", "dense"):
                # a conv's weights are (K, K, C, F), a dense layer's (D, M)
                kernel = (KERNEL, KERNEL) if layer.kind == "conv2d" else ()
                w = glorot_uniform((*kernel, shape_in[-1], shape_out[-1]), rng)
                params.append({"w": w, "b": np.zeros(shape_out[-1], np.float32)})
            else:
                params.append({})
        return params

    def forward(self, x, rng=None, caches=None):
        """Run the chain over a batch and return its output. Dropout layers
        train, drawing their masks from ``rng``, exactly when it is given.

        ``caches``, when given, is a caller-owned list with one entry per
        layer, None at first, and a backward follows. Layer i stores its
        cache for :meth:`backward` at ``caches[i]`` after dropping the one a
        previous forward left there, so a training loop that passes one list
        on every step holds one step of caches, not two, and malloc hands
        each freed array straight back for the same-size array the layer
        allocates next. Dropping the caches earlier, as backward consumes
        them, lets malloc trim the freed heap top and fault it back in on
        every step. Each cache holds only what its layer's backward reads
        (see :mod:`ops`): every conv keeps its input, not the padded or
        upsampled map it correlates. Every op gets ``cache=`` whether
        ``caches`` is given, so without it, as in :meth:`infer`, a device's
        encode and the hub's predict, no layer builds a cache at all, and
        the output holds the same bytes as a caching forward's.
        """
        if x.shape[1:] != self.spec.input_shape:
            raise LatentWireError(
                f"input {x.shape} is not a batch of {self.spec.input_shape} samples")
        keep = caches is not None
        for i, (layer, p) in enumerate(zip(self.spec.layers, self.params)):
            if keep:
                caches[i] = None
            if layer.kind == "conv2d":
                x, cache = ops.conv2d(x, p["w"], p["b"], padding=layer.padding,
                                      upsample=layer.upsample, cache=keep)
            elif layer.kind == "maxpool":
                x, cache = ops.maxpool2d(x, cache=keep)
            elif layer.kind == "dense":
                x, cache = ops.dense(x, p["w"], p["b"], cache=keep)
            elif layer.kind == "activation":
                x, cache = ops.activation(x, layer.fn, cache=keep)
            elif layer.kind == "dropout":
                x, cache = ops.dropout(x, layer.rate, rng=rng, cache=keep)
            else:
                x, cache = ops.flatten(x, cache=keep)
            if keep:
                caches[i] = cache
        return x

    def infer(self, x):
        """Inference-mode forward over a batch, INFER_BATCH samples at a time.

        An empty batch still runs one forward, so its output keeps its shape.
        """
        return np.concatenate([self.forward(x[lo:lo + INFER_BATCH])
                               for lo in range(0, max(len(x), 1), INFER_BATCH)])

    def backward(self, caches, grad):
        """Chain rule over the cached layers; returns the parameter grads.

        The grads come flat, in :meth:`trainable`'s order. The pass stops at
        the first layer with parameters, which computes no input gradient,
        and the layers below it do not run, since no caller needs the
        gradient of the network's input.
        """
        grads = []
        first = next((i for i, p in enumerate(self.params) if p), len(caches))
        for i in range(len(caches) - 1, first - 1, -1):
            grad, pgrads = ops.backward(caches[i], grad, need_dx=i > first)
            if pgrads is not None:
                grads[:0] = [pgrads[key] for key in sorted(pgrads)]
        return grads

    def trainable(self):
        """The trainable parameter arrays, flat: layer by layer, each
        layer's by key."""
        return [p[key] for p in self.params for key in sorted(p)]
