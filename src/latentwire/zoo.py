"""Declarative model architectures.

Builders produce :class:`ModelSpec` values; binding specs to weights happens
in :mod:`latentwire.network`. The autoencoder builder is parameterized by an
exact compression ratio; classifier builders adapt to small latent inputs by
keeping the longest feasible prefix of their conv/pool trunk.

Every model has one layer geometry: KERNEL x KERNEL convs at stride 1 with
"valid" or "same" padding and 2x2 max pools at stride 2. A decoder conv
built with ``upsample=True`` reads its input 2x nearest-upsampled, so it
doubles the map's height and width; no layer upsamples on its own.
A pooled block runs conv -> maxpool -> relu, the pool ahead of the relu:
relu is monotone, so relu(max(window)) == max(relu(window)) and the block
computes conv -> relu -> maxpool's function with the relu on a quarter of
the map.
A classifier ends in ``dense(num_classes)`` and emits logits; training takes
softmax cross entropy on them and inference takes their argmax.

Specs come only from the layer helpers and the builders below, so a
LayerSpec checks nothing itself, and the shape walk refuses only a conv or
pool that no longer fits its input: that refusal is how a classifier finds
its feasible trunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidGeometryError, UnachievableRatioError

FAMILIES = ("A", "B")  # classifier families
HIDDEN_WIDTH = 32  # channels of the autoencoder's inner convs
KERNEL = 3  # side of every conv kernel


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    filters: int | None = None
    padding: str | None = None
    width: int | None = None
    fn: str | None = None
    rate: float | None = None
    upsample: bool = False


def conv(filters, padding="valid", upsample=False):
    return LayerSpec("conv2d", filters=filters, padding=padding, upsample=upsample)


def maxpool():
    return LayerSpec("maxpool")


def dense(width):
    return LayerSpec("dense", width=width)


def act(fn):
    return LayerSpec("activation", fn=fn)


def dropout(rate):
    return LayerSpec("dropout", rate=rate)


def flatten():
    return LayerSpec("flatten")


@dataclass(frozen=True)
class ModelSpec:
    layers: tuple
    input_shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))


def _layer_out(shape, layer, index):
    if layer.kind in ("conv2d", "maxpool"):
        h, w, c = shape
        if layer.kind == "conv2d":
            if layer.upsample:
                h, w = 2 * h, 2 * w
            if layer.padding == "same":
                return (h, w, layer.filters)
            if h < KERNEL or w < KERNEL:
                raise InvalidGeometryError(
                    f"layer {index}: conv {KERNEL}x{KERNEL} does not fit {h}x{w}")
            return (h - KERNEL + 1, w - KERNEL + 1, layer.filters)
        if h < 2 or w < 2:  # maxpool
            raise InvalidGeometryError(f"layer {index}: 2x2 pool exceeds {h}x{w}")
        return (h // 2, w // 2, c)
    if layer.kind == "dense":
        return (layer.width,)
    if layer.kind == "flatten":
        return (int(math.prod(shape)),)
    return tuple(shape)  # activation, dropout


def infer_shapes(spec):
    """Shape walk; returns [input_shape, out_1, ..., out_n]."""
    shape = spec.input_shape
    out = [shape]
    for i, layer in enumerate(spec.layers):
        shape = _layer_out(shape, layer, i)
        out.append(shape)
    return out


@dataclass(frozen=True)
class AutoencoderPair:
    encoder: ModelSpec
    decoder: ModelSpec

    @property
    def latent_shape(self):
        return self.decoder.input_shape


def build_autoencoder(input_shape, cr):
    """Conv/pool encoder and upsampling-conv decoder realizing ratio ``cr`` exactly.

    The encoder halves the spatial extent s times and maps to c_z latent
    channels where c_z = C*4^s/cr; the smallest feasible s wins. cr == 1
    degenerates to identity pass-through (no layers at all). Each decoder
    stage after the first conv doubles the map in the conv that reads it
    (``upsample=True``), the resize-convolution of conv -> relu -> upsample.
    """
    h, w, c = (int(d) for d in input_shape)
    requested = Fraction(cr)
    if requested == 1:
        enc = ModelSpec((), (h, w, c))
        return AutoencoderPair(enc, enc)

    stages, c_z = None, None
    s = 1
    while h % (2 ** s) == 0 and w % (2 ** s) == 0 and 2 ** s <= min(h, w):
        cz = Fraction(c * 4 ** s) / requested
        if cz.denominator == 1 and cz >= 1:
            stages, c_z = s, int(cz)
            break
        s += 1
    if stages is None:
        raise UnachievableRatioError(
            f"no stage count realizes ratio {cr} on {input_shape}")

    enc_layers = []
    for _ in range(stages):
        enc_layers += [conv(HIDDEN_WIDTH, padding="same"), maxpool(), act("relu")]
    enc_layers += [conv(c_z, padding="same"), act("relu")]
    latent = (h // 2 ** stages, w // 2 ** stages, c_z)

    dec_layers = [conv(HIDDEN_WIDTH, padding="same"), act("relu")]
    for _ in range(stages - 1):
        dec_layers += [conv(HIDDEN_WIDTH, padding="same", upsample=True), act("relu")]
    dec_layers += [conv(c, padding="same", upsample=True), act("sigmoid")]

    enc = ModelSpec(tuple(enc_layers), (h, w, c))
    dec = ModelSpec(tuple(dec_layers), latent)
    return AutoencoderPair(enc, dec)


def _feasible_prefix(trunk, input_shape):
    """Longest prefix of trunk layers for which the shape walk succeeds."""
    shape = tuple(input_shape)
    kept = []
    for layer in trunk:
        try:
            shape = _layer_out(shape, layer, len(kept))
        except InvalidGeometryError:
            break
        kept.append(layer)
    return kept, shape


def build_vanilla_classifier(input_shape, family, num_classes):
    """From-scratch CNN classifiers.

    Family A: three valid-padding conv/pool blocks, dense 64 head.
    Family B: two double-conv (same padding) blocks with dropout, dense 512 head.
    Both end in dense(num_classes), so the model emits logits.
    Trailing trunk layers that no longer fit the input are dropped, so the
    same family applies to compressed latent inputs; a conv whose pool no
    longer fits keeps its relu.
    """
    h, w, c = (int(d) for d in input_shape)
    if min(h, w) < KERNEL:
        raise InvalidGeometryError(f"input spatial dims must be >= {KERNEL}, got {h}x{w}")
    if family == "A":
        trunk = []
        for _ in range(3):
            trunk += [conv(32, padding="valid"), maxpool(), act("relu")]
        head = [flatten(), dense(64), act("relu"), dropout(0.5), dense(num_classes)]
    elif family == "B":
        trunk = []
        for filters in (32, 64):
            trunk += [conv(filters, padding="same"), act("relu"),
                      conv(filters, padding="same"), maxpool(), act("relu"),
                      dropout(0.25)]
        head = [flatten(), dense(512), act("relu"), dropout(0.5), dense(num_classes)]
    else:
        raise ValueError(f"unknown classifier family {family!r}")

    kept, shape = _feasible_prefix(trunk, (h, w, c))
    if kept[-1].kind == "conv2d":  # its pool does not fit, its relu does
        kept.append(act("relu"))
    features = math.prod(shape)
    if features < num_classes:
        raise InvalidGeometryError(
            f"trunk leaves {features} features for {num_classes} classes")
    return ModelSpec(tuple(kept + head), (h, w, c))
