"""Independent brute-force oracles and finite-difference machinery.

Everything here is deliberately naive (nested loops, central differences)
and shares no code with the library implementations it checks.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from latentwire import ops
from latentwire.losses import cross_entropy_loss, mse_loss
from latentwire.network import Network
from latentwire.zoo import ModelSpec, act, conv, dense, dropout, flatten, maxpool


def conv2d_oracle(x, w, b, padding="valid"):
    k = w.shape[0]
    h, wd, c = x.shape
    f = w.shape[3]
    if padding == "same":
        before, after = (k - 1) // 2, k - 1 - (k - 1) // 2
        x = np.pad(x, ((before, after), (before, after), (0, 0)))
    ho, wo = x.shape[0] - k + 1, x.shape[1] - k + 1
    out = np.zeros((ho, wo, f), dtype=x.dtype)
    for i in range(ho):
        for j in range(wo):
            for ff in range(f):
                acc = 0.0
                for a in range(k):
                    for bb in range(k):
                        for cc in range(c):
                            acc += x[i + a, j + bb, cc] * w[a, bb, cc, ff]
                out[i, j, ff] = acc + b[ff]
    return out


def conv2d_backward_oracle(x, w, g, stride=1, padding="valid"):
    """Weight and input gradients of conv2d_oracle for one (h, w, c) sample,
    with its output read every `stride` pixels on both axes, given the
    gradient g (ho, wo, f) of the pixels read: every read output position
    adds its window's share to both, one kernel offset at a time."""
    k = w.shape[0]
    h, wd, c = x.shape
    ho, wo, f = g.shape
    before = (k - 1) // 2 if padding == "same" else 0
    dw = np.zeros((k, k, c, f))
    dx = np.zeros((h, wd, c))
    for i in range(ho):
        for j in range(wo):
            for a in range(k):
                for bb in range(k):
                    r, q = i * stride + a - before, j * stride + bb - before
                    if 0 <= r < h and 0 <= q < wd:
                        dw[a, bb] += np.outer(x[r, q], g[i, j])
                        dx[r, q] += w[a, bb] @ g[i, j]
    return dw, dx


def einsum_correlate(xp, w, g=None):
    """The narrow conv contraction as einsums over the K x K window view of
    xp (N,H,W,C): without g the correlation with w (K,K,C,F), given the
    output gradient g the weight gradient. At the channel pairings the zoo
    builds, the library's column GEMM must equal these bit for bit."""
    k = w.shape[0]
    win = sliding_window_view(xp, (k, k), axis=(1, 2))
    if g is None:
        return np.einsum("nhwckl,klcf->nhwf", win, w, optimize=True)
    return np.einsum("nhwf,nhwckl->klcf", g, win, optimize=True)


def window_columns(xp, k):
    """The narrow conv's column matrix as the library first built it: the
    K x K sliding windows of xp (N,H,W,C), transposed to w's (k, l, c) order
    and copied into one row per output pixel."""
    win = sliding_window_view(xp, (k, k), axis=(1, 2))
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, k * k * xp.shape[3])


def column_correlate(xp, w, g=None, cols=None, b=None):
    """``ops._correlate`` as it ran with `window_columns` and a per-offset
    einsum for the wide dW, and with the bias added after the correlation,
    a wide sum started from zeros; the library's strided window view, plain
    GEMMs and bias as the narrow GEMM's last term must equal it bit for bit.
    A shared column matrix `cols` is ignored: the columns are rebuilt from
    xp."""
    k, f = w.shape[0], w.shape[3]
    ho, wo = xp.shape[1] - k + 1, xp.shape[2] - k + 1
    if xp.shape[3] * k * k <= ops._WINDOW_MAX:
        cols = window_columns(xp, k)
        if g is None:
            y = (cols @ w.reshape(-1, f)).reshape(xp.shape[0], ho, wo, f)
            return y if b is None else y + b
        return (cols.T @ g.reshape(-1, f)).reshape(w.shape)
    offsets = [(a, bb) for a in range(k) for bb in range(k)]
    shifted = [xp[:, a : a + ho, bb : bb + wo] for a, bb in offsets]
    if g is None:
        y = np.zeros((xp.shape[0], ho, wo, f), dtype=xp.dtype)
        for (a, bb), xs in zip(offsets, shifted):
            y += xs @ w[a, bb]
        return y if b is None else y + b
    dw = np.empty_like(w)
    for (a, bb), xs in zip(offsets, shifted):
        dw[a, bb] = np.einsum("nhwc,nhwf->cf", xs, g, optimize=True)
    return dw


def conv_backward_reference(x, w, g, padding, upsample, need_dx):
    """``ops.backward`` of a conv as it ran with the zero-padded gradient
    built by ``np.pad``: (dx or None, dW, db) for the input x (N,H,W,C),
    weights w (K,K,C,F) and output gradient g. Every contraction goes through
    ``ops._correlate``, on the same branch: dW from the windows of the padded
    gradient when F*K*K is narrow and C*K*K wide, else from those of the
    padded input; dx as the padded gradient correlated with the flipped
    kernel, an upsampling conv's folded back onto x."""
    k, _, c, f = w.shape
    lead, pad = ((k - 1) // 2, k - 1) if padding == "same" else (0, 0)
    if upsample:
        x = np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)
    wt = w[::-1, ::-1].transpose(0, 1, 3, 2)
    # g sits K-1-lead pixels in, on the grid of the (upsampled) input
    gpad = (k - 1 - lead, lead + k - 1 - pad)
    gp = np.pad(g, ((0, 0), gpad, gpad, (0, 0)))
    if f * k * k <= ops._WINDOW_MAX < c * k * k:
        dw = ops._correlate(gp, wt, x)[::-1, ::-1].transpose(0, 1, 3, 2)
    else:
        xpad = (lead, pad - lead)
        dw = ops._correlate(np.pad(x, ((0, 0), xpad, xpad, (0, 0))), w, g)
    dx = None
    if need_dx:
        dx = ops._correlate(gp, wt)
        if upsample:
            dx = upsample_fold_oracle(dx)
    return dx, dw, g.sum(axis=(0, 1, 2))


def maxpool2d_oracle(x):
    """2x2 max pooling at stride 2 of one (h, w, c) sample."""
    pool = stride = 2
    h, w, c = x.shape
    ho, wo = (h - pool) // stride + 1, (w - pool) // stride + 1
    out = np.empty((ho, wo, c), dtype=x.dtype)
    for i in range(ho):
        for j in range(wo):
            for cc in range(c):
                best = -np.inf
                for a in range(pool):
                    for bb in range(pool):
                        best = max(best, x[i * stride + a, j * stride + bb, cc])
                out[i, j, cc] = best
    return out


def maxpool2d_backward_oracle(x, g):
    """Input gradient of 2x2 stride-2 max pooling for one (h, w, c) sample:
    each window's gradient goes to its first maximal element in row-major
    window order."""
    pool = stride = 2
    h, w, c = x.shape
    ho, wo = g.shape[0], g.shape[1]
    xs, gs = x.tolist(), g.tolist()
    dx = [[[0.0] * c for _ in range(w)] for _ in range(h)]
    for i in range(ho):
        for j in range(wo):
            for cc in range(c):
                best, at = None, None
                for a in range(pool):
                    for bb in range(pool):
                        v = xs[i * stride + a][j * stride + bb][cc]
                        if best is None or v > best:
                            best, at = v, (i * stride + a, j * stride + bb)
                dx[at[0]][at[1]][cc] += gs[i][j][cc]
    return np.array(dx, dtype=x.dtype)


def upsample_fold_oracle(g):
    """Input gradient of 2x nearest upsampling for a batch g (N,2H,2W,C):
    each 2x2 block summed in row-major order, left to right."""
    return ((g[:, 0::2, 0::2] + g[:, 0::2, 1::2]) + g[:, 1::2, 0::2]) + g[:, 1::2, 1::2]


def dense_oracle(x, w, b):
    n, m = w.shape
    out = np.zeros(m, dtype=x.dtype)
    for j in range(m):
        acc = 0.0
        for i in range(n):
            acc += x[i] * w[i, j]
        out[j] = acc + b[j]
    return out


def count_parameters_oracle(spec):
    """Per-layer recount from an independent shape walk: 3x3 stride-1
    convs, which read their input 2x upsampled when so flagged, and 2x2
    stride-2 pools."""
    shape = spec.input_shape
    total = 0
    for layer in spec.layers:
        if layer.kind == "conv2d":
            h, w, c = shape
            if layer.upsample:
                h, w = h * 2, w * 2
            total += (3 * 3 * c + 1) * layer.filters
            if layer.padding == "same":
                shape = (h, w, layer.filters)
            else:
                shape = (h - 2, w - 2, layer.filters)
        elif layer.kind == "maxpool":
            h, w, c = shape
            shape = ((h - 2) // 2 + 1, (w - 2) // 2 + 1, c)
        elif layer.kind == "flatten":
            n = 1
            for d in shape:
                n *= d
            shape = (n,)
        elif layer.kind == "dense":
            total += (shape[0] + 1) * layer.width
            shape = (layer.width,)
    return total


def swap_relu_pool(layers):
    """`layers`, as a tuple, with every relu that a maxpool follows moved
    after it."""
    out = list(layers)
    for i in range(len(out) - 1):
        if out[i] == act("relu") and out[i + 1] == maxpool():
            out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def autoencoder_spec_oracle(input_shape, cr):
    """(encoder, decoder) ModelSpecs as build_autoencoder wrote them with
    conv -> relu -> maxpool encoder stages, then swap_relu_pool'd: s stages
    for the smallest s whose 2**s divides H and W and turns C * 4**s / cr
    into a whole latent channel count. The decoder's conv -> relu ->
    upsample stages are written with each upsample folded into the conv
    after it. The ratio must be achievable."""
    h, w, c = input_shape
    if cr == 1:
        return ModelSpec((), input_shape), ModelSpec((), input_shape)
    s = 1
    while not (h % 2 ** s == 0 and w % 2 ** s == 0
               and (c * 4 ** s) % cr == 0 and c * 4 ** s >= cr):
        s += 1
    enc = [conv(32, "same"), act("relu"), maxpool()] * s + [conv(c * 4 ** s // cr, "same"),
                                                              act("relu")]
    dec = ([conv(32, "same"), act("relu")]
           + [conv(32, "same", upsample=True), act("relu")] * (s - 1)
           + [conv(c, "same", upsample=True), act("sigmoid")])
    latent = (h // 2 ** s, w // 2 ** s, c * 4 ** s // cr)
    return ModelSpec(swap_relu_pool(enc), input_shape), ModelSpec(tuple(dec), latent)


def classifier_spec_oracle(input_shape, family, num_classes):
    """build_vanilla_classifier's ModelSpec as it was written: the family's
    conv -> relu -> maxpool trunk cut before the first conv or pool that a
    naive shape walk finds too large, then swap_relu_pool'd, then the head."""
    if family == "A":
        trunk = [conv(32), act("relu"), maxpool()] * 3
        head = [flatten(), dense(64), act("relu"), dropout(0.5), dense(num_classes)]
    else:
        trunk = []
        for f in (32, 64):
            trunk += [conv(f, "same"), act("relu"), conv(f, "same"), act("relu"),
                      maxpool(), dropout(0.25)]
        head = [flatten(), dense(512), act("relu"), dropout(0.5), dense(num_classes)]
    h, w = input_shape[:2]
    kept = []
    for layer in trunk:
        if layer.kind == "maxpool":
            if h < 2 or w < 2:
                break
            h, w = h // 2, w // 2
        elif layer.kind == "conv2d" and layer.padding == "valid":
            if h < 3 or w < 3:
                break
            h, w = h - 2, w - 2
        kept.append(layer)
    return ModelSpec(swap_relu_pool(kept) + tuple(head), input_shape)


def nearest_centroid_accuracy(train, test):
    centroids = np.stack([
        train.images[train.labels == c].reshape(-1, train.images[0].size).mean(axis=0)
        for c in range(train.num_classes)])
    flat = test.images.reshape(len(test), -1)
    d = ((flat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float((d.argmin(axis=1) == test.labels).mean())


# ---------------------------------------------------------------------------
# finite differences

FD_H = 1e-5
FD_TOL = 1e-4


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def numeric_grad(f, x, h=FD_H):
    """Central-difference gradient of scalar f wrt every element of x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_op_gradients(forward, arrays, h=FD_H):
    """Max relative error between analytic and numeric gradients.

    `forward` maps nothing to (output, cache) reading `arrays` (a dict of
    float64 tensors); the analytic gradient of sum(output * R) is taken from
    ops.backward and compared element-wise against central differences for
    every array.
    """
    rng = np.random.default_rng(0xC0FFEE)
    out, cache = forward()
    r = rng.standard_normal(out.shape)

    def scalar():
        y, _ = forward()
        return float((y * r).sum())

    dx, pgrads = ops.backward(cache, r)
    worst = 0.0
    analytic = {"x": dx}
    if pgrads:
        analytic.update(pgrads)
    for name, arr in arrays.items():
        if name not in analytic:
            continue
        num = numeric_grad(scalar, arr, h)
        ana = analytic[name]
        for a, b in zip(np.ravel(ana), np.ravel(num)):
            worst = max(worst, rel_err(a, b))
    return worst


def check_loss_gradients(loss, prediction, extra, h=FD_H):
    _, gradient = loss(prediction, extra)

    def scalar():
        return loss(prediction, extra)[0]

    num = numeric_grad(scalar, prediction, h)
    worst = 0.0
    for a, b in zip(np.ravel(gradient), np.ravel(num)):
        worst = max(worst, rel_err(a, b))
    return worst


def network_gradient_pairs(spec, x, target, loss, entries=3, h=FD_H, seed=0):
    """(analytic, numeric) gradient pairs of a whole network's loss.

    The network is built from `spec` with its weights cast to float64; the
    loss is `loss(forward(x), target)[0]` in inference mode. Each pair
    holds `entries` random entries of one array of ``trainable()``, in its
    order: the analytic values from ``Network.backward``'s flat gradients,
    the numeric ones from central differences of the loss.
    """
    rng = np.random.default_rng(seed)
    net = Network(spec, rng=rng)
    net.params = [{k: v.astype(np.float64) for k, v in p.items()} for p in net.params]
    caches = [None] * len(spec.layers)
    out = net.forward(x, caches=caches)
    grads = net.backward(caches, loss(out, target)[1])
    pairs = []
    for arr, grad in zip(net.trainable(), grads, strict=True):
        flat = arr.reshape(-1)
        picks = rng.choice(flat.size, size=min(entries, flat.size), replace=False)
        numeric = []
        for i in picks:
            orig = flat[i]
            flat[i] = orig + h
            fp = loss(net.forward(x), target)[0]
            flat[i] = orig - h
            fm = loss(net.forward(x), target)[0]
            flat[i] = orig
            numeric.append((fp - fm) / (2 * h))
        pairs.append((grad.reshape(-1)[picks], np.array(numeric)))
    return pairs


def _sep_values(rng, shape):
    """Random tensor whose values are pairwise separated by >= 8e-3 (safe
    for argmax kinks under the finite-difference step)."""
    n = int(np.prod(shape))
    vals = rng.permutation(n) * 0.01 + rng.uniform(-1e-3, 1e-3, n)
    return vals.reshape(shape)


def _away_from_zero(rng, shape, margin=0.05):
    x = rng.standard_normal(shape)
    x = x + np.where(x >= 0, margin, -margin)
    return x


def gradient_trial(kind, rng):
    """One randomized finite-difference trial; returns the max rel error."""
    if kind in ("conv2d", "conv2d-wide"):
        # "conv2d-wide" draws c, f >= 9, so c*k*k and f*k*k exceed 72 and
        # the forward, dW and dx all loop over the kernel offsets
        h, w = rng.integers(3, 7, 2)
        c, f = rng.integers(*((1, 4) if kind == "conv2d" else (9, 12)), 2)
        padding = ("valid", "same")[rng.integers(0, 2)]
        arrays = {
            "x": rng.standard_normal((1, h, w, c)),
            "w": rng.standard_normal((3, 3, c, f)) * 0.5,
            "b": rng.standard_normal(f) * 0.1,
        }
        fwd = lambda: ops.conv2d(arrays["x"], arrays["w"], arrays["b"], padding)
    elif kind == "conv2d-upsample":
        # each side draws 1-3 or 9-11 channels, so the trials reach the
        # narrow and the wide dW and the dW from the padded gradient
        h, w = rng.integers(2, 5, 2)
        c, f = rng.integers(1, 4, 2) + 8 * rng.integers(0, 2, 2)
        padding = ("valid", "same")[rng.integers(0, 2)]
        arrays = {
            "x": rng.standard_normal((1, h, w, c)),
            "w": rng.standard_normal((3, 3, c, f)) * 0.5,
            "b": rng.standard_normal(f) * 0.1,
        }
        fwd = lambda: ops.conv2d(arrays["x"], arrays["w"], arrays["b"], padding,
                                 upsample=True)
    elif kind == "maxpool2d":
        # odd and even sizes: an odd last row or column is read by no window
        h, w = rng.integers(2, 8, 2)
        c = int(rng.integers(1, 4))
        arrays = {"x": _sep_values(rng, (1, h, w, c))}
        fwd = lambda: ops.maxpool2d(arrays["x"])
    elif kind == "dense":
        n, m = rng.integers(1, 7, 2)
        arrays = {
            "x": rng.standard_normal((1, n)),
            "w": rng.standard_normal((n, m)) * 0.5,
            "b": rng.standard_normal(m) * 0.1,
        }
        fwd = lambda: ops.dense(arrays["x"], arrays["w"], arrays["b"])
    elif kind in ("relu", "sigmoid"):
        shape = tuple(rng.integers(1, 5, 2))
        x = _away_from_zero(rng, shape) if kind == "relu" else rng.standard_normal(shape)
        arrays = {"x": x}
        fwd = lambda: ops.activation(arrays["x"], kind)
    elif kind == "dropout":
        shape = tuple(rng.integers(2, 6, 2))
        seed = int(rng.integers(0, 2 ** 31))
        rate = float(rng.uniform(0.1, 0.7))
        arrays = {"x": rng.standard_normal(shape)}
        fwd = lambda: ops.dropout(arrays["x"], rate, np.random.default_rng(seed))
    elif kind == "flatten":
        shape = tuple(rng.integers(1, 5, 3))
        arrays = {"x": rng.standard_normal(shape)}
        fwd = lambda: ops.flatten(arrays["x"])
    elif kind == "mse":
        shape = tuple(rng.integers(1, 5, 2))
        return check_loss_gradients(
            mse_loss, rng.standard_normal(shape), rng.standard_normal(shape))
    elif kind == "cross-entropy":
        b, k = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        logits = rng.standard_normal((b, k))
        labels = rng.integers(0, k, b)
        return check_loss_gradients(cross_entropy_loss, logits, labels)
    else:
        raise ValueError(kind)
    return check_op_gradients(fwd, arrays)


# the softmax is no layer: cross_entropy_loss computes it, and the cross-entropy
# trials differentiate through it
GRADIENT_KINDS = ("conv2d", "conv2d-upsample", "maxpool2d", "dense", "relu", "sigmoid",
                  "dropout", "flatten", "mse", "cross-entropy")


def run_gradient_suite(kind, trials, seed=0):
    rng = np.random.default_rng(np.random.SeedSequence([0xF00D, seed]))
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, gradient_trial(kind, rng))
    return worst
