"""Layer forward/backward primitives.

Every layer op returns ``(output, cache)``; ``backward(cache, grad,
need_dx=True)`` dispatches on the cache kind and returns ``(input_grad,
param_grads)``, with ``input_grad`` None when ``need_dx`` is False. A cache
holds what its backward reads, not what its forward made: max pooling keeps
each window's winner as a uint8 index, relu its bool sign mask, and every
conv its input, not the padded or upsampled map it read. One rule holds for
all six layer ops: given ``cache=False``, as in every forward outside a fit,
an op builds no ``LayerCache``, nor the index or mask one would keep, and
returns None for the cache; its output holds the same bytes either way.
``_operand`` writes every map a conv contracts, the backward's zero-padded
output gradient included; ``upsample2d`` is its upsampling writer, not a
layer, and returns the map alone.
Ops take batches only: spatial tensors are channels-last ``(N, H, W, C)``
and dense inputs ``(N, D)``. Every forward output and input gradient is
C-contiguous, so the element-wise ops that follow run over contiguous
memory. All math preserves the input dtype, so suites that need double
precision simply pass float64 arrays.

Network hands each op the rank, weights, biases, padding and dropout rate
that it built from the spec, so the ops do not check them again. They
refuse only operands that disagree (channels, dense widths) and a reused
cache, with a LatentWireError; a kernel or pool larger than its input, with
an InvalidGeometryError; and an unknown activation, with a ValueError.

One layer geometry: pooling is 2x2 max pooling at stride 2, upsampling
repeats each pixel 2x2 inside the conv that reads it, and the activations
are relu and sigmoid; a classifier ends in a dense layer and emits logits,
whose softmax only the loss takes. The zoo pools a conv's output before its relu: relu is
monotone, so relu(max(window)) == max(relu(window)) and the pair computes
the same function with the relu on the pooled map. ``conv2d`` runs at
stride 1 and reads K from its weights, so every conv shape follows from its
operands; "same" padding puts (K-1)//2 zeros before and K-1-(K-1)//2 after
on each axis. The zoo builds K = 3.

A narrow conv's forward adds its bias inside its GEMM: each row of the
column matrix ends in a 1 and the weight matrix in the bias, so the bias is
the last term of each output's sum. The GEMM accumulates its terms in order,
so that last step rounds sum + b once, as ``y += b`` after a GEMM without
the bias would, and the bits hold, as ``tests/test_ops.py`` checks at every
conv the zoo builds. A wide conv's forward starts its sum from the first
window offset's product rather than from zeros, which changes no bit: a
GEMM's sum starts from +0.0, so it is never -0.0 and 0 + p is p. It then
adds the bias.

Results are bit-reproducible only at a fixed BLAS thread count: the same
inputs give other float32 bits at another thread count. A speed change to
these kernels must hand every GEMM the same operands, in the same layout
and summation order, or the trained networks change.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidGeometryError, LatentWireError

# up to this many channels * K * K, one GEMM over the materialized K x K
# windows beats K*K shifted GEMMs
_WINDOW_MAX = 72


class LayerCache:
    """Values saved by one forward call, consumed by at most one backward."""

    __slots__ = ("kind", "data", "consumed")

    def __init__(self, kind, **data):
        self.kind = kind
        self.data = data
        self.consumed = False

    def take(self):
        if self.consumed:
            raise LatentWireError(f"{self.kind} cache already consumed")
        self.consumed = True
        return self.data


def conv2d(x, w, b, padding="valid", upsample=False, cache=True):
    """2-D cross-correlation at stride 1 with per-filter bias.

    x: (N,H,W,C); w: (K,K,C,F). "valid" gives (N,H-K+1,W-K+1,F);
    "same" gives (N,H,W,F), reading (K-1)//2 zeros before and K-1-(K-1)//2
    after the input on each axis, so an even K pads one more after. With
    ``upsample`` the conv reads x 2x nearest-upsampled, as ``upsample2d``
    then ``conv2d`` would, to the same bits: H and W above double and the
    map is written straight into the padded operand. The cache keeps x;
    with ``cache=False`` it is None.
    """
    _, h, wd, c = x.shape
    k, _, wc, _ = w.shape
    if wc != c:
        raise LatentWireError(f"input has {c} channels, weights expect {wc}")
    if upsample:
        h, wd = 2 * h, 2 * wd
    lead, pad = ((k - 1) // 2, k - 1) if padding == "same" else (0, 0)
    if k > h + pad or k > wd + pad:
        raise InvalidGeometryError(f"kernel {k} exceeds padded input {h}x{wd}")
    y = _correlate(_operand(x, lead, pad, upsample), w, b=b)
    if not cache:
        return y, None
    # no op writes into a forward's input, so the backward reads the bytes
    # the forward read and rebuilds the operand from them
    return y, LayerCache("conv2d", x=x, w=w, lead=lead, pad=pad, upsample=upsample)


def _operand(x, lead, pad, upsample):
    """The C-contiguous map a conv contracts, its input or output gradient:
    x, 2x upsampled if `upsample`, with `lead` zeros before and pad - lead
    after on each axis. A contiguous x without padding is not copied."""
    if not pad:
        return upsample2d(x) if upsample else np.ascontiguousarray(x)
    n, h, wd, c = x.shape
    s = 2 if upsample else 1
    xp = np.zeros((n, s * h + pad, s * wd + pad, c), dtype=x.dtype)
    inner = xp[:, lead : lead + s * h, lead : lead + s * wd]
    if upsample:
        upsample2d(x, out=inner)
    else:
        inner[...] = x
    return xp


def _windows(xp, k):
    """Read-only view (N,H-K+1,W-K+1,K,K,C) of the K x K windows of a
    C-contiguous xp (N,H,W,C), in w's own (k, l, c) order. A plain ndarray
    over xp's buffer is made in about a third of as_strided's time."""
    n, h, wd, c = xp.shape
    s0, s1, s2, s3 = xp.strides
    view = np.ndarray((n, h - k + 1, wd - k + 1, k, k, c), xp.dtype, buffer=xp,
                      strides=(s0, s1, s2, s1, s2, s3))
    view.flags.writeable = False
    return view


def _columns(xp, k, ones=False):
    """The K x K windows of xp (N,H,W,C) copied into one column matrix, a
    row per output pixel in w's own (k, l, c) order; with `ones` each row
    ends in a 1, the factor of the bias."""
    win = _windows(xp, k)
    width = k * k * xp.shape[3]
    if not ones:  # a reshape's copy runs 2-5% faster than a copy into cols
        return win.reshape(-1, width)
    cols = np.empty((win.size // width, width + 1), xp.dtype)
    cols[:, :width].reshape(win.shape)[...] = win  # splits axes only: a view
    cols[:, width] = 1
    return cols


def _correlate(xp, w, g=None, cols=None, b=None):
    """The conv's one contraction over the K x K windows of xp (N,H,W,C) for
    w (K,K,C,F), one window per output pixel of (ho, wo) = (H-K+1, W-K+1).

    Without `g` it returns the correlation (N,ho,wo,F), plus the bias `b`
    when given; given the output gradient g (N,ho,wo,F) it returns the
    weight gradient (K,K,C,F). Narrow windows (C*K*K <= _WINDOW_MAX) are
    copied into one column matrix and the contraction is one GEMM against
    it, with the bias as its last term; wide ones loop over the K*K offsets
    and never materialize the windows, a GEMM per offset, the first of which
    starts the sum. A narrow caller may pass the column matrix it already
    built, without the ones, as `cols`.
    """
    n, h, wd, c = xp.shape
    k, f = w.shape[0], w.shape[3]
    ho, wo = h - k + 1, wd - k + 1
    if c * k * k <= _WINDOW_MAX:
        if cols is None:
            cols = _columns(xp, k, ones=b is not None)
        if g is not None:
            return (cols.T @ g.reshape(-1, f)).reshape(w.shape)
        wm = w.reshape(-1, f) if b is None else np.concatenate((w.reshape(-1, f), b[None]))
        return (cols @ wm).reshape(n, ho, wo, f)
    offsets = _window_offsets(k, 1, ho, wo)
    if g is None:
        (_, at), *rest = offsets
        y = xp[at] @ w[0, 0]
        for (i, j), at in rest:
            y += xp[at] @ w[i, j]
        if b is not None:
            y += b
        return y
    g2d = g.reshape(-1, f)
    dw = np.empty_like(w)
    for (i, j), at in offsets:
        dw[i, j] = np.ascontiguousarray(xp[at]).reshape(-1, c).T @ g2d
    return dw


def _conv2d_backward(data, g, need_dx):
    # gp is g on the input's grid: _operand writes K-1-lead zeros before it
    # and K-1-(pad-lead) after on each axis, so the K x K window at each
    # input pixel holds, flipped, every output that read it. So dx is gp
    # correlated with the flipped kernel, its C and F axes swapped, and dW
    # may contract the windows of gp in place of those of the input. The
    # cache holds the conv's input x, not the map it read: the backward
    # rebuilds what dW reads, lets it die before dx, and folds an upsampling
    # conv's dx back onto x.
    x, w, lead, pad, upsample = (data[key] for key in ("x", "w", "lead", "pad", "upsample"))
    k, _, c, f = w.shape
    # wt stays a strided view: a contiguous copy runs the wide dx's matmuls
    # about twice as fast, but rounds differently (see ROADMAP)
    wt = w[::-1, ::-1].transpose(0, 1, 3, 2)
    dw_from_gp = f * k * k <= _WINDOW_MAX < c * k * k  # e.g. a decoder's last conv
    cols = None
    if need_dx or dw_from_gp:
        gp = _operand(g, k - 1 - lead, 2 * (k - 1) - pad, False)
    if dw_from_gp:
        # one column matrix of gp serves dW here and the narrow dx below
        cols = _columns(gp, k)
        dw = _correlate(gp, wt, _operand(x, 0, 0, upsample),
                        cols)[::-1, ::-1].transpose(0, 1, 3, 2)
    else:
        dw = _correlate(_operand(x, lead, pad, upsample), w, g)
    dx = None
    if need_dx:
        dx = _correlate(gp, wt, cols=cols)
        del gp, cols  # dead before the fold below allocates
        if upsample:
            dx = _reduce2x2(dx, np.add)
    return dx, {"w": dw, "b": g.sum(axis=(0, 1, 2))}


def maxpool2d(x, cache=True):
    """2x2 max pooling at stride 2, dropping an odd last row or column, which
    no window covers. The cache keeps, per pooled value, the offset of its
    window's first maximum in row-major window order as a uint8 index, and
    the input's shape; with ``cache=False`` it is None. A window holding a
    NaN pools to NaN and its index reads 3, so its gradient would reach
    offset 3; no fit gets there, since ``train._fit`` checks the loss before
    the backward."""
    h, wd = x.shape[1], x.shape[2]
    if h < 2 or wd < 2:
        raise InvalidGeometryError(f"2x2 pool exceeds input {h}x{wd}")
    y = _reduce2x2(x, np.maximum)
    if not cache:
        return y, None
    # arg = (x0 != y) * (1 + (x1 != y) * (1 + (x2 != y))), built from the last
    # of the three offsets inward
    arg = np.zeros(y.shape, np.uint8)
    for _, at in reversed(_window_offsets(2, 2, h // 2, wd // 2)[:3]):
        arg += 1
        arg *= x[at] != y
    return y, LayerCache("maxpool2d", arg=arg, in_shape=x.shape)


@lru_cache(maxsize=256)
def _window_offsets(k, stride, ho, wo):
    """Each offset (a, b) of a k x k window, in row-major order, with the
    index of the ho x wo pixels it meets in the windows that start every
    `stride` pixels. Built once per geometry: indexing with ready slices
    costs half as much as building them per call, and serving one sample
    slices about 30 times."""
    return tuple(((a, b), (slice(None), slice(a, a + (ho - 1) * stride + 1, stride),
                           slice(b, b + (wo - 1) * stride + 1, stride)))
                 for a in range(k) for b in range(k))


def _reduce2x2(a, ufunc):
    """Each 2x2 window of a (N,H,W,C) at stride 2, its first offset copied and
    the other three reduced into it by `ufunc` in row-major order, dropping
    an odd last row or column: np.maximum pools, np.add folds an upsample's
    gradient. Strided slices run 3-4x faster than a reshape reduced over
    two axes, even on a C-order a."""
    (_, first), *rest = _window_offsets(2, 2, a.shape[1] // 2, a.shape[2] // 2)
    y = a[first].copy()
    for _, at in rest:
        ufunc(y, a[at], out=y)
    return y


def _maxpool2d_backward(data, g):
    # Each window's gradient reaches the offset its index names. The windows
    # do not overlap; adding onto zeros, not assigning, keeps every zero +0.0.
    arg = data["arg"]
    dx = np.zeros(data["in_shape"], dtype=g.dtype)
    for i, (_, at) in enumerate(_window_offsets(2, 2, arg.shape[1], arg.shape[2])):
        # a product, not a masked add: np.add(where=) is ~6x slower here
        dx[at] += g * (arg == i)
    return dx, None


def upsample2d(x, out=None):
    """Nearest-neighbour upsampling, the writer of an upsampling conv's
    operand: each pixel becomes a 2x2 block. Returns the map (N,2H,2W,C),
    written into `out` (the padded operand's interior) when given and
    C-contiguous otherwise."""
    n, h, wd, c = x.shape
    if out is None:
        out = np.empty((n, 2 * h, 2 * wd, c), dtype=x.dtype)
    # out's rows and columns split into (pixel, offset) pairs, a view of any
    # strided out; one broadcast write fills it, twice as fast as a write
    # per offset at (32, 16, 16, 32)
    s0, s1, s2, s3 = out.strides
    blocks = as_strided(out, (n, h, 2, wd, 2, c), (s0, 2 * s1, s1, 2 * s2, s2, s3))
    blocks[...] = x[:, :, None, :, None]
    return out


def dense(x, w, b, cache=True):
    """Affine map x @ w + b; x is (N,D), w is (D,M)."""
    if w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise LatentWireError(f"dense input {x.shape[1]} vs weights {w.shape}")
    return x @ w + b, LayerCache("dense", x=x, w=w) if cache else None


def _dense_backward(data, g, need_dx):
    x, w = data["x"], data["w"]
    return g @ w.T if need_dx else None, {"w": x.T @ g, "b": g.sum(axis=0)}


def _sigmoid(x):
    # exp of -|x| never overflows; per element these are the float32 ops of
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def activation(x, kind, cache=True):
    """relu or sigmoid. The cache keeps what the backward reads: relu's bool
    sign mask, sigmoid's output; with ``cache=False`` it is None."""
    if kind == "relu":
        y = np.maximum(x, 0)
        return y, LayerCache("activation", fn=kind, mask=y > 0) if cache else None
    if kind == "sigmoid":
        y = _sigmoid(x)
        return y, LayerCache("activation", fn=kind, y=y) if cache else None
    raise ValueError(f"unknown activation {kind!r}")


def _activation_backward(data, g):
    if data["fn"] == "relu":
        return g * data["mask"], None
    y = data["y"]  # sigmoid
    return g * y * (1.0 - y), None


def dropout(x, rate, rng=None, cache=True):
    """Inverted dropout: survivors scaled by 1/(1-rate). It trains when given
    an `rng` to draw its mask from; without one (inference) it is the identity."""
    if rng is None or rate == 0.0:
        return x, LayerCache("dropout", mask=None, scale=1.0) if cache else None
    mask = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    y = x * mask * np.asarray(scale, dtype=x.dtype)
    return y, LayerCache("dropout", mask=mask, scale=scale) if cache else None


def _dropout_backward(data, g):
    if data["mask"] is None:
        return g, None
    return g * data["mask"] * np.asarray(data["scale"], dtype=g.dtype), None


def flatten(x, cache=True):
    """(N, ...) -> (N, D)."""
    return x.reshape(x.shape[0], -1), LayerCache("flatten", in_shape=x.shape) if cache else None


def _flatten_backward(data, g):
    return g.reshape(data["in_shape"]), None


_BACKWARD = {
    "conv2d": _conv2d_backward,
    "maxpool2d": _maxpool2d_backward,
    "dense": _dense_backward,
    "activation": _activation_backward,
    "dropout": _dropout_backward,
    "flatten": _flatten_backward,
}


def backward(cache, grad, need_dx=True):
    """Chain-rule step for one layer.

    Returns ``(input_grad, param_grads)`` where param_grads is None for
    parameter-free layers and a dict with keys matching the forward
    parameters otherwise. With ``need_dx=False`` the input gradient is not
    computed and comes back None: a parameter-free layer then does no work,
    and conv2d and dense compute their parameter gradients only. A cache
    may be consumed once.
    """
    if not isinstance(cache, LayerCache):
        raise LatentWireError("backward needs a LayerCache from a forward call")
    data = cache.take()
    if cache.kind in ("conv2d", "dense"):
        return _BACKWARD[cache.kind](data, grad, need_dx)
    return _BACKWARD[cache.kind](data, grad) if need_dx else (None, None)
