import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from latentwire import ops
from latentwire.errors import InvalidGeometryError, LatentWireError
from latentwire.losses import cross_entropy_loss, mse_loss
from latentwire.network import glorot_limit, glorot_uniform
from latentwire.zoo import (
    FAMILIES,
    KERNEL,
    build_autoencoder,
    build_vanilla_classifier,
    infer_shapes,
)

from oracles import (
    column_correlate,
    conv2d_backward_oracle,
    conv2d_oracle,
    dense_oracle,
    einsum_correlate,
    maxpool2d_backward_oracle,
    maxpool2d_oracle,
    upsample_fold_oracle,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# --- conv2d ---------------------------------------------------------------

def test_conv_shape_table_row():
    x = rng().random((1, 32, 32, 3))
    w = rng().random((3, 3, 3, 32))
    y, _ = ops.conv2d(x, w, np.zeros(32), "valid")
    assert y.shape == (1, 30, 30, 32)


def test_conv_zero_weights_zero_output():
    x = rng().random((1, 8, 8, 2))
    y, _ = ops.conv2d(x, np.zeros((3, 3, 2, 4)), np.zeros(4), "same")
    assert np.all(y == 0)


def test_conv_matches_direct_loop_oracle():
    r = rng(1)
    x = r.random((5, 5, 2))
    w = r.random((3, 3, 2, 4))
    b = r.random(4)
    y, _ = ops.conv2d(x[None], w, b, "valid")
    assert np.abs(y[0] - conv2d_oracle(x, w, b)).max() < 1e-12


def test_conv_wide_input_path_matches_oracle():
    # channel count above the column-matrix/shift dispatch threshold
    r = rng(2)
    x = r.random((6, 7, 16))
    w = r.random((3, 3, 16, 4))
    b = r.random(4)
    for padding in ("valid", "same"):
        y, _ = ops.conv2d(x[None], w, b, padding)
        assert np.abs(y[0] - conv2d_oracle(x, w, b, padding)).max() < 1e-11


def test_conv_channel_mismatch():
    with pytest.raises(LatentWireError, match="^input has 3 channels, weights expect 2$"):
        ops.conv2d(rng().random((1, 6, 6, 3)), rng().random((3, 3, 2, 4)), np.zeros(4))


def test_conv_too_small_input():
    with pytest.raises(InvalidGeometryError):
        ops.conv2d(rng().random((1, 2, 2, 1)), rng().random((3, 3, 1, 2)), np.zeros(2))


def test_conv_batched_equals_per_sample():
    r = rng(3)
    xs = r.random((4, 6, 6, 3)).astype(np.float32)
    w = r.random((3, 3, 3, 5)).astype(np.float32)
    b = r.random(5).astype(np.float32)
    yb, _ = ops.conv2d(xs, w, b, "same")
    for i in range(4):
        yi, _ = ops.conv2d(xs[i:i + 1], w, b, "same")
        np.testing.assert_allclose(yb[i], yi[0], rtol=1e-6)


def read_every(r, y, stride):
    """An output gradient for a loss that reads the conv's output y every
    `stride` pixels on both axes: the drawn part, shaped like
    y[:, ::stride, ::stride], and that part placed in zeros shaped like y,
    as a strided conv's stuffed gradient was. Stride 1 reads all of y."""
    part = r.standard_normal(y[:, ::stride, ::stride].shape).astype(y.dtype)
    full = np.zeros_like(y)
    full[:, ::stride, ::stride] = part
    return part, full


# channels (3, 32) and (32, 3) put one side of the backward below the
# c*k*k <= 72 window-contraction rule and the other above it (for k >= 3);
# (32, 32) keeps both above. An even K pads one more zero after than before
# under "same". At stride 2 the loss reads every other output pixel, and the
# backward must match the loop oracle of the stride-2 conv over the same
# padded input; under "valid", 8x10 leaves a last row and column that no read
# window covers.
@pytest.mark.parametrize("c,f", [(3, 32), (32, 3), (32, 32)])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("hw", [(8, 10), (7, 9)])
def test_conv_backward_matches_loop_oracle(c, f, padding, stride, k, hw):
    r = rng(k * 100 + stride * 10 + c + f)
    x = r.standard_normal((2, *hw, c))
    w = r.standard_normal((k, k, c, f))
    y, cache = ops.conv2d(x, w, r.standard_normal(f), padding)
    g, g_full = read_every(r, y, stride)
    dx, pg = ops.backward(cache, g_full)
    _, cache = ops.conv2d(x, w, np.zeros(f), padding)
    no_dx, pg_only = ops.backward(cache, g_full, need_dx=False)
    assert no_dx is None
    dw = np.zeros_like(w)
    for i in range(len(x)):
        dw_i, dx_i = conv2d_backward_oracle(x[i], w, g[i], stride, padding)
        dw += dw_i
        assert dx[i].shape == dx_i.shape
        assert np.abs(dx[i] - dx_i).max() < 1e-10
    assert np.abs(pg["w"] - dw).max() < 1e-10
    assert np.abs(pg["b"] - g.sum(axis=(0, 1, 2))).max() < 1e-10
    assert np.array_equal(pg_only["w"], pg["w"]) and np.array_equal(pg_only["b"], pg["b"])


# In float32 the narrow column GEMM must round as the window einsums did, at
# the pairings the zoo builds. (c, 32) runs the forward and dW over narrow
# input windows; (32, c), a decoder's last conv, has a narrow dx and takes
# its dW from the windows of the padded gradient. At stride 2 the loss reads
# every other output pixel, so the gradient is zero in between.
@pytest.mark.parametrize("n", [32, 29, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("size", [32, 16, 8])
@pytest.mark.parametrize("c", [3, 6])
def test_narrow_conv_bitwise_equals_einsum(c, size, padding, stride, n):
    r = rng(size + c + stride)
    for cin, f in ((c, 32), (32, c)):
        x = r.standard_normal((n, size, size, cin)).astype(np.float32)
        w = (0.1 * r.standard_normal((3, 3, cin, f))).astype(np.float32)
        b = r.standard_normal(f).astype(np.float32)
        y, cache = ops.conv2d(x, w, b, padding)
        lead = 1 if padding == "same" else 0
        xp = np.pad(x, ((0, 0), (lead, lead), (lead, lead), (0, 0)))
        _, g = read_every(r, y, stride)
        dx, grads = ops.backward(cache, g)
        ho, wo = y.shape[1:3]
        gp = np.zeros((n, size + 2, size + 2, f), np.float32)
        gp[:, 2 - lead : 2 - lead + ho, 2 - lead : 2 - lead + wo] = g
        wt = w[::-1, ::-1].transpose(0, 1, 3, 2)
        if cin == c:
            assert np.array_equal(y, einsum_correlate(xp, w) + b)
            assert np.array_equal(grads["w"], einsum_correlate(xp, w, g))
        else:
            dw = einsum_correlate(gp, wt, x)[::-1, ::-1].transpose(0, 1, 3, 2)
            assert np.array_equal(grads["w"], dw)
            assert np.array_equal(dx, einsum_correlate(gp, wt))


def zoo_conv_geometries(image=(32, 32, 3), num_classes=10):
    """(h, w, c, k, f, stride, padding) of every conv the zoo builds for
    `image`: the autoencoders at CR 4, 8 and 16 and both classifier families
    on the image and on each latent. Each is KERNEL x KERNEL, and the next
    layer reads all of its output: stride 1. (h, w) is the map the conv
    correlates, twice its input's for a conv that upsamples."""
    specs, inputs = [], [image]
    for cr in (4, 8, 16):
        pair = build_autoencoder(image, cr)
        specs += [pair.encoder, pair.decoder]
        inputs.append(pair.latent_shape)
    specs += [build_vanilla_classifier(shape, family, num_classes)
              for shape in inputs for family in FAMILIES]
    return sorted({((1 + layer.upsample) * shape[0], (1 + layer.upsample) * shape[1],
                    shape[2], KERNEL, layer.filters, 1, layer.padding)
                   for spec in specs
                   for layer, shape in zip(spec.layers, infer_shapes(spec))
                   if layer.kind == "conv2d"})


ZOO_CONVS = zoo_conv_geometries()
# a stride-2 read, "valid" and odd sizes, which the zoo does not build; 8x10
# valid read every other pixel leaves a row and a column unread, 3 -> 3 is
# narrow on both sides
EDGE_CONVS = [(7, 9, 3, 3, 32, 2, "valid"), (9, 7, 32, 3, 3, 2, "same"),
              (8, 10, 6, 3, 32, 2, "valid"), (8, 10, 3, 3, 3, 2, "valid"),
              (11, 9, 32, 5, 32, 2, "same"), (7, 7, 5, 1, 16, 2, "valid")]


def conv_results(x, w, b, padding, g):
    y, cache = ops.conv2d(x, w, b, padding)
    dx, grads = ops.backward(cache, g)
    return y, dx, grads["w"], grads["b"]


def test_zoo_convs_cover_every_correlate_branch():
    # narrow input windows (forward, dW), wide ones (forward, dW, dx), and the
    # decoder's last conv: dW from the stuffed gradient's windows, narrow dx
    narrow_in = [g for g in ZOO_CONVS if g[2] * g[3] ** 2 <= ops._WINDOW_MAX]
    narrow_out = [g for g in ZOO_CONVS if g[4] * g[3] ** 2 <= ops._WINDOW_MAX < g[2] * g[3] ** 2]
    wide = [g for g in ZOO_CONVS if min(g[2], g[4]) * g[3] ** 2 > ops._WINDOW_MAX]
    assert narrow_in and narrow_out and wide
    assert (32, 32, 32, 3, 3, 1, "same") in narrow_out


# In float32 the strided window view and the plain per-offset GEMMs must
# round exactly as the sliding_window_view column matrix and the einsum dW
# did: the forward, dx, dW and db at every conv the zoo builds for 32x32x3.
# At a stride of 2 the output gradient is zero between the pixels read.
@pytest.mark.parametrize("n", [32, 29, 1])
@pytest.mark.parametrize("geometry", ZOO_CONVS + EDGE_CONVS, ids=str)
def test_conv_bitwise_equals_column_oracle(geometry, n, monkeypatch):
    h, wd, c, k, f, stride, padding = geometry
    r = rng(h * 1000 + c * 10 + f)
    x = r.standard_normal((n, h, wd, c)).astype(np.float32)
    w = (0.1 * r.standard_normal((k, k, c, f))).astype(np.float32)
    b = r.standard_normal(f).astype(np.float32)
    y, _ = ops.conv2d(x, w, b, padding)
    _, g = read_every(r, y, stride)
    got = conv_results(x, w, b, padding, g)
    monkeypatch.setattr(ops, "_correlate", column_correlate)
    want = conv_results(x, w, b, padding, g)
    for name, a, e in zip(("y", "dx", "dw", "db"), got, want):
        assert a.dtype == e.dtype == np.float32, name
        assert a.shape == e.shape and a.tobytes() == e.tobytes(), name


# The narrow forward adds the bias as its GEMM's last term, against a column
# of ones, and the wide one starts its sum from the first offset's product.
# Both must round as the correlation, a wide sum started from zeros, followed
# by ``y += b``: at every conv the zoo builds for either image, at the batch
# sizes a fit, an export and a request run.
BIAS_CONVS = sorted(set(zoo_conv_geometries()) | set(zoo_conv_geometries((16, 16, 3))))


@pytest.mark.parametrize("n", [1, 24, 32])
@pytest.mark.parametrize("geometry", BIAS_CONVS, ids=str)
def test_conv_bitwise_equals_correlate_then_bias(geometry, n):
    h, wd, c, k, f, _, padding = geometry
    r = rng(h * 1000 + c * 10 + f + n)
    x = r.standard_normal((n, h, wd, c)).astype(np.float32)
    w = (0.1 * r.standard_normal((k, k, c, f))).astype(np.float32)
    b = r.standard_normal(f).astype(np.float32)
    lead, after = ((k - 1) // 2, k - 1 - (k - 1) // 2) if padding == "same" else (0, 0)
    xp = np.pad(x, ((0, 0), (lead, after), (lead, after), (0, 0)))
    want = column_correlate(xp, w, b=b)
    for cache in (True, False):
        y, _ = ops.conv2d(x, w, b, padding, cache=cache)
        assert y.dtype == np.float32 and y.tobytes() == want.tobytes()


# Every window must end inside the array. The view takes C-contiguous
# arrays only, so conv2d correlates a contiguous copy of a cropped input and
# must read the same windows as from the contiguous original.
@pytest.mark.parametrize("h,wd,k", [(8, 8, 3), (9, 9, 3), (7, 11, 5), (8, 10, 2), (8, 10, 3)])
@pytest.mark.parametrize("cropped", [False, True])
def test_window_view_bounds(h, wd, k, cropped):
    r = rng(h + wd)
    x = r.standard_normal((2, h + 3, wd + 2, 3)).astype(np.float32)
    xp = x[:, 1 : h + 1, 2:] if cropped else np.ascontiguousarray(x[:, :h, :wd])
    dense = np.ascontiguousarray(xp)
    win = ops._windows(dense, k)
    want = sliding_window_view(xp, (k, k), axis=(1, 2))
    assert np.array_equal(win, want.transpose(0, 1, 2, 4, 5, 3))
    assert not win.flags.writeable
    w = r.standard_normal((k, k, 3, 4)).astype(np.float32)
    b = r.standard_normal(4).astype(np.float32)
    y, cache = ops.conv2d(xp, w, b)
    assert cache.data["x"] is xp
    assert y.tobytes() == ops.conv2d(dense, w, b)[0].tobytes()
    g = r.standard_normal(y.shape).astype(np.float32)
    dx, grads = ops.backward(cache, g)
    dx_dense, grads_dense = ops.backward(ops.conv2d(dense, w, b)[1], g)
    assert dx.tobytes() == dx_dense.tobytes()
    assert grads["w"].tobytes() == grads_dense["w"].tobytes()


# Every conv caches its input itself, not the padded or upsampled map it
# read; the backward rebuilds that map.
@pytest.mark.parametrize("padding,upsample", [("valid", False), ("same", False),
                                              ("same", True)])
def test_every_conv_caches_its_input_uncopied(padding, upsample):
    x = rng().random((2, 8, 8, 3)).astype(np.float32)
    _, cache = ops.conv2d(x, rng(1).random((3, 3, 3, 4)).astype(np.float32),
                          np.zeros(4, np.float32), padding, upsample=upsample)
    assert sorted(cache.data) == ["lead", "pad", "upsample", "w", "x"]
    assert cache.data["x"] is x


# --- maxpool ---------------------------------------------------------------

def test_maxpool_known_windows():
    x = np.arange(1, 17, dtype=float).reshape(1, 4, 4, 1)
    y, _ = ops.maxpool2d(x)
    assert y[0, ..., 0].tolist() == [[6, 8], [14, 16]]


def test_maxpool_constant_input():
    x = np.full((1, 5, 5, 2), 3.5)
    y, _ = ops.maxpool2d(x)
    assert np.all(y == 3.5)


def test_maxpool_matches_window_oracle():
    r = rng(4)
    x = r.random((7, 8, 3))
    y, _ = ops.maxpool2d(x[None])
    assert y.shape == (1, 3, 4, 3)  # the odd last row is dropped
    assert np.abs(y[0] - maxpool2d_oracle(x)).max() == 0


def _relu_with_ties(r, shape, dtype):
    # coarse values: most windows are all zero, with -0.0 and +0.0 mixed, and
    # many others tie at a positive maximum
    x = np.maximum(np.round(2 * r.standard_normal(shape)) / 2 - 0.5, 0).astype(dtype)
    zeros = x == 0
    x[zeros] = np.where(r.random(zeros.sum()) < 0.5, -0.0, 0.0)
    return x


# odd maps leave a last row or column that no window reads
@pytest.mark.parametrize("shape", [(32, 32, 32, 32), (32, 30, 30, 32), (32, 13, 13, 32),
                                   (8, 15, 10, 5), (8, 10, 15, 5)])
def test_maxpool_backward_first_max_bitwise_on_ties(shape):
    r = rng(7)
    x = _relu_with_ties(r, shape, np.float32)
    y, cache = ops.maxpool2d(x)
    g = r.standard_normal(y.shape).astype(np.float32)
    dx, _ = ops.backward(cache, g)
    assert dx.dtype == np.float32 and dx.shape == x.shape
    windows = x[:, :y.shape[1] * 2, :y.shape[2] * 2].reshape(
        len(x), y.shape[1], 2, y.shape[2], 2, -1)
    assert (windows.max(axis=(2, 4)) == 0).mean() > 0.2  # the ties are there
    signs = np.signbit(windows) & (windows == 0)
    mixed = (windows.max(axis=(2, 4)) == 0) & signs.any(axis=(2, 4)) & ~signs.all(axis=(2, 4))
    assert mixed.mean() > 0.1  # and zero windows that mix -0.0 and +0.0
    for i in range(len(x)):
        assert dx[i].tobytes() == maxpool2d_backward_oracle(x[i], g[i]).tobytes()


_POOL_SHAPES = st.tuples(st.integers(1, 3), st.integers(2, 7), st.integers(2, 7),
                         st.integers(1, 3))
# few distinct values, so windows tie often, at signed zeros too
_POOL_VALUES = (st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])
                | st.floats(allow_nan=False, width=32))


@given(_POOL_SHAPES.flatmap(lambda s: st.tuples(
    hnp.arrays(np.float32, s, elements=_POOL_VALUES),
    hnp.arrays(np.float32, (s[0], s[1] // 2, s[2] // 2, s[3]),
               elements=st.floats(-4, 4, width=32)))))
@settings(max_examples=200, deadline=None)
def test_maxpool_backward_bytes_match_the_oracle(xg):
    x, g = xg
    _, cache = ops.maxpool2d(x)
    dx, _ = ops.backward(cache, g)
    for i in range(len(x)):
        assert dx[i].tobytes() == maxpool2d_backward_oracle(x[i], g[i]).tobytes()


# The zoo pools a conv's output before its relu. On ties, +0.0, -0.0 and
# all-negative windows, pool then relu must give the bytes of relu then pool,
# the same dW and db bytes to the conv below, and an input gradient that may
# differ only in the sign of a zero. Odd sizes leave a row or column unpooled.
@pytest.mark.parametrize("shape", [(4, 8, 8, 5), (3, 7, 9, 2)])
def test_pool_then_relu_equals_relu_then_pool(shape):
    r = rng(shape[1])
    n, h, wd, c = shape
    x = (np.round(2 * r.standard_normal(shape)) / 2).astype(np.float32)
    zeros = x == 0
    x[zeros] = np.where(r.random(zeros.sum()) < 0.5, -0.0, 0.0)
    x[:, :2] = -np.abs(x[:, :2]) - 0.5  # the first row of windows is all negative
    assert np.signbit(x[x == 0]).any() and not np.signbit(x[x == 0]).all()
    g = r.standard_normal((n, h // 2, wd // 2, c)).astype(np.float32)
    z = r.standard_normal((n, h + 2, wd + 2, 3)).astype(np.float32)
    w = r.standard_normal((3, 3, 3, c)).astype(np.float32)
    relu = lambda a: ops.activation(a, "relu")
    results = []
    for first, second in ((relu, ops.maxpool2d), (ops.maxpool2d, relu)):
        mid, first_cache = first(x)
        y, second_cache = second(mid)
        dx, _ = ops.backward(first_cache, ops.backward(second_cache, g)[0])
        _, conv_cache = ops.conv2d(z, w, np.zeros(c, np.float32))
        results.append((y, dx, ops.backward(conv_cache, dx)[1]))
    (y1, dx1, grads1), (y2, dx2, grads2) = results
    assert y1.tobytes() == y2.tobytes()
    assert np.array_equal(dx1, dx2)
    assert grads1["w"].tobytes() == grads2["w"].tobytes()
    assert grads1["b"].tobytes() == grads2["b"].tobytes()


def test_maxpool_pool_exceeds_input():
    for shape in ((1, 1, 3, 1), (1, 3, 1, 1)):
        with pytest.raises(InvalidGeometryError):
            ops.maxpool2d(rng().random(shape))


# --- upsample ---------------------------------------------------------------

# An upsampling conv must give the bytes of upsample2d, then conv2d, then the
# upsample's gradient as the explicit four-term sum: F=3 takes its dW from
# the padded gradient's windows, F=32 from the wide per-offset GEMMs.
@pytest.mark.parametrize("n", [32, 1])
@pytest.mark.parametrize("size,f", [(16, 3), (8, 32)])
def test_upsampling_conv_bitwise_equals_upsample_then_conv(size, f, n):
    r = rng(size + f)
    x = r.standard_normal((n, size, size, 32)).astype(np.float32)
    w = (0.1 * r.standard_normal((3, 3, 32, f))).astype(np.float32)
    b = r.standard_normal(f).astype(np.float32)
    g = r.standard_normal((n, 2 * size, 2 * size, f)).astype(np.float32)
    y_want, cache = ops.conv2d(ops.upsample2d(x), w, b, "same")
    dup, grads_want = ops.backward(cache, g)
    dx_want = upsample_fold_oracle(dup)
    y, cache = ops.conv2d(x, w, b, "same", upsample=True)
    dx, grads = ops.backward(cache, g)
    for name, got, want in (("y", y, y_want), ("dx", dx, dx_want),
                            ("dw", grads["w"], grads_want["w"]),
                            ("db", grads["b"], grads_want["b"])):
        assert got.dtype == want.dtype == np.float32, name
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_upsample_into_a_strided_buffer():
    x = rng().random((2, 3, 4, 5)).astype(np.float32)
    buffer = np.zeros((2, 8, 10, 5), np.float32)
    y = ops.upsample2d(x, out=buffer[:, 1:7, 1:9])
    assert np.shares_memory(y, buffer)
    assert np.array_equal(buffer[:, 1:7, 1:9], ops.upsample2d(x))
    buffer[:, 1:7, 1:9] = 0
    assert not buffer.any()


def test_upsample_replication():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
    y = ops.upsample2d(x)
    expect = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
    assert y[0, ..., 0].tolist() == expect


def test_upsample_backward_same_for_any_gradient_layout():
    # the fold of an upsample's gradient at the decoder's shapes and an odd
    # one, on C-order g and on the same values stored channel-major: the sum
    # must not depend on layout
    for shape in ((32, 32, 32, 32), (32, 32, 32, 3), (32, 16, 16, 32), (1, 16, 16, 32),
                  (4, 10, 12, 3)):
        g = rng(1).standard_normal(shape).astype(np.float32)
        g_cm = np.ascontiguousarray(g.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
        assert not g_cm.flags.c_contiguous
        expect = upsample_fold_oracle(g)
        for grad in (g, g_cm):
            dx = ops._reduce2x2(grad, np.add)
            assert dx.flags.c_contiguous and dx.tobytes() == expect.tobytes()


def test_pool_then_upsample_constant_roundtrip():
    x = np.full((1, 6, 6, 2), 0.7)
    pooled, _ = ops.maxpool2d(x)
    np.testing.assert_array_equal(ops.upsample2d(pooled), x)


# --- dense -------------------------------------------------------------------

def test_dense_identity():
    x = rng().random((1, 5))
    y, _ = ops.dense(x, np.eye(5), np.zeros(5))
    np.testing.assert_array_equal(y, x)


def test_dense_hand_arithmetic():
    y, _ = ops.dense(np.array([[1.0, 2.0]]), np.eye(2), np.array([3.0, 4.0]))
    assert y[0].tolist() == [4.0, 6.0]


def test_dense_matches_dot_oracle():
    r = rng(5)
    x, w, b = r.random(8), r.random((8, 5)), r.random(5)
    y, _ = ops.dense(x[None], w, b)
    assert np.abs(y[0] - dense_oracle(x, w, b)).max() < 1e-12


def test_dense_shape_mismatch():
    with pytest.raises(LatentWireError, match=r"^dense input 4 vs weights \(5, 2\)$"):
        ops.dense(rng().random((1, 4)), rng().random((5, 2)), np.zeros(2))


# --- activations ---------------------------------------------------------------

def test_relu_definition():
    y, _ = ops.activation(np.array([-1.0, 0.0, 2.0]), "relu")
    assert y.tolist() == [0.0, 0.0, 2.0]


def test_sigmoid_midpoint():
    y, _ = ops.activation(np.zeros(1), "sigmoid")
    assert y[0] == 0.5


def test_unknown_activation():
    for kind in ("tanh", "softmax"):
        with pytest.raises(ValueError):
            ops.activation(np.zeros(3), kind)


# --- dropout -------------------------------------------------------------------

def test_dropout_rate_zero_identity():
    x = rng().random((10, 10))
    for draws in (rng(), None):
        y, _ = ops.dropout(x, 0.0, draws)
        np.testing.assert_array_equal(y, x)


def test_dropout_inference_identity():
    x = rng().random((10, 10))
    y, _ = ops.dropout(x, 0.5)
    np.testing.assert_array_equal(y, x)


def test_dropout_montecarlo_rate_and_mean():
    x = rng(6).random(100_000) + 0.5
    y, _ = ops.dropout(x, 0.5, rng(7))
    zero_frac = float((y == 0).mean())
    assert 0.49 <= zero_frac <= 0.51
    assert abs(y.mean() - x.mean()) / x.mean() < 0.02


# --- losses ---------------------------------------------------------------------

def test_mse_identity_case():
    x = rng().random((3, 3))
    value, gradient = mse_loss(x, x.copy())
    assert value == 0
    assert np.all(gradient == 0)


def test_mse_hand_case():
    value, gradient = mse_loss(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    assert value == 1.0
    np.testing.assert_array_equal(gradient, [1.0, 1.0])


def test_mse_shape_mismatch():
    with pytest.raises(LatentWireError, match=r"^prediction \(3,\) vs target \(4,\)$"):
        mse_loss(np.zeros(3), np.zeros(4))


def test_cross_entropy_uniform_logits():
    value, _ = cross_entropy_loss(np.zeros((1, 10)), [0])
    assert abs(value - np.log(10)) < 1e-9


def test_cross_entropy_confident_correct():
    logits = np.zeros((1, 4))
    logits[0, 2] = 50.0
    value, _ = cross_entropy_loss(logits, [2])
    assert value < 1e-9


def test_cross_entropy_gradient_holds_no_subnormal():
    # a logit gap above 87 puts exp(shifted) below float32's smallest normal;
    # subnormal operands would slow every backward the gradient flows into
    logits = np.array([[0.0, -100.0]], np.float32)
    results = [cross_entropy_loss(logits, [label]) for label in (0, 1)]
    for _, gradient in results:
        g = np.abs(gradient)
        assert not ((g > 0) & (g < np.finfo(np.float32).tiny)).any()
    assert [value for value, _ in results] == [0.0, 100.0]


def test_cross_entropy_label_out_of_range():
    with pytest.raises(LatentWireError, match=r"^labels must lie in \[0,3\)$"):
        cross_entropy_loss(np.zeros((2, 3)), [0, 3])


@given(st.integers(1, 6), st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_cross_entropy_gradient_rows_sum_zero(b, k, seed):
    r = np.random.default_rng(seed)
    _, gradient = cross_entropy_loss(r.standard_normal((b, k)), r.integers(0, k, b))
    np.testing.assert_allclose(gradient.sum(axis=-1), np.zeros(b), atol=1e-9)


# --- cache discipline -------------------------------------------------------------

def test_cache_consumed_once():
    y, cache = ops.dense(rng().random((1, 4)), rng().random((4, 3)), np.zeros(3))
    ops.backward(cache, np.ones((1, 3)))
    with pytest.raises(LatentWireError, match="^dense cache already consumed$"):
        ops.backward(cache, np.ones((1, 3)))


def test_backward_requires_cache():
    with pytest.raises(LatentWireError, match="^backward needs a LayerCache from a forward call$"):
        ops.backward({"kind": "dense"}, np.ones(3))


def test_relu_backward_definition():
    _, cache = ops.activation(np.array([-1.0, 2.0]), "relu")
    dx, _ = ops.backward(cache, np.array([5.0, 5.0]))
    assert dx.tolist() == [0.0, 5.0]


def test_parameter_free_backward_without_dx_does_nothing():
    _, cache = ops.activation(np.array([[-1.0, 2.0]]), "relu")
    assert ops.backward(cache, np.ones((1, 2)), need_dx=False) == (None, None)


def test_dense_backward_without_dx_keeps_parameter_grads():
    x, w, g = rng().random((3, 4)), rng(1).random((4, 2)), rng(2).random((3, 2))
    _, cache = ops.dense(x, w, np.zeros(2))
    dx, pg = ops.backward(cache, g, need_dx=False)
    assert dx is None
    np.testing.assert_allclose(pg["w"], x.T @ g, rtol=1e-12)
    np.testing.assert_allclose(pg["b"], g.sum(axis=0), rtol=1e-12)


def test_dense_backward_zero_upstream():
    x, w = rng().random((1, 4)), rng().random((4, 3))
    _, cache = ops.dense(x, w, np.zeros(3))
    dx, pg = ops.backward(cache, np.zeros((1, 3)))
    assert np.all(dx == 0) and np.all(pg["w"] == 0) and np.all(pg["b"] == 0)


# --- glorot init -------------------------------------------------------------------

def test_glorot_dense_bound():
    limit = glorot_limit((128, 64))
    assert abs(limit - np.sqrt(6 / 192)) < 1e-12
    w = glorot_uniform((128, 64), rng(8))
    assert np.all(np.abs(w) <= limit)


def test_glorot_deterministic_for_seed():
    a = glorot_uniform((40, 30), rng(9))
    b = glorot_uniform((40, 30), rng(9))
    assert a.tobytes() == b.tobytes()


def test_glorot_sample_mean_near_zero():
    w = glorot_uniform((400, 250), rng(10))
    assert w.dtype == np.float32
    limit = glorot_limit((400, 250))
    stderr = limit / np.sqrt(3 * w.size)
    assert abs(w.mean(dtype=np.float64)) < 3 * stderr


def test_glorot_conv_fans():
    # conv fan_in = K*K*C, fan_out = K*K*F
    limit = glorot_limit((3, 3, 4, 8))
    assert abs(limit - np.sqrt(6 / (36 + 72))) < 1e-12
