import numpy as np
import pytest

from latentwire import ops
from latentwire.data import LabeledDataset, SyntheticSpec, gen_synthetic
from latentwire.errors import DivergenceError, ShapeMismatchError
from latentwire.network import Network
from latentwire.train import (
    TrainConfig,
    augment,
    evaluate,
    hflip,
    shift2d,
    train_autoencoder,
    train_classifier,
)
from latentwire.zoo import (
    ModelSpec,
    act,
    build_autoencoder,
    build_vanilla_classifier,
    conv,
    dense,
    flatten,
    maxpool,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def _separable_dataset(n_per_class=40, seed=0):
    """Two blob classes in a flat 12-dim space, trivially separable."""
    r = rng(seed)
    a = r.normal(0.2, 0.05, (n_per_class, 12)).astype(np.float32)
    b = r.normal(0.8, 0.05, (n_per_class, 12)).astype(np.float32)
    images = np.concatenate([a, b])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return LabeledDataset(images, labels, 2)


def _mlp_spec(in_dim=12, classes=2):
    return ModelSpec((dense(16), act("relu"), dense(classes), act("softmax")), (in_dim,))


# --- autoencoder training ------------------------------------------------------

def test_constant_images_reach_tiny_mse():
    pair = build_autoencoder((8, 8, 3), 4)
    images = np.full((24, 8, 8, 3), 0.35, dtype=np.float32)
    trained, hist = train_autoencoder(
        pair, images, TrainConfig(epochs=50, batch_size=8, seed=0, lr=5e-3))
    assert hist.losses[-1] < 1e-4
    assert len(hist.losses) == len(hist.metrics) <= 50


def test_reconstruction_loss_trends_down():
    spec = SyntheticSpec(image_size=(16, 16, 3), samples_per_class=30)
    train, _ = gen_synthetic(spec, seed=3)
    pair = build_autoencoder((16, 16, 3), 4)
    _, hist = train_autoencoder(pair, train.images, TrainConfig(epochs=8, seed=0))
    assert hist.losses[-1] <= hist.losses[0]
    assert all(np.isfinite(hist.losses))


def test_identity_pair_trains_to_zero_loss():
    pair = build_autoencoder((8, 8, 3), 1)
    trained, hist = train_autoencoder(pair, np.zeros((4, 8, 8, 3), np.float32),
                                      TrainConfig(epochs=5))
    assert trained.chain.spec.layers == ()
    assert hist.losses == [0.0] * 5
    x = rng().random((1, 8, 8, 3)).astype(np.float32)
    assert trained.encoder.forward(x).tobytes() == x.tobytes()


def _tiny_images():
    return gen_synthetic(SyntheticSpec(image_size=(8, 8, 3), num_classes=2,
                                       samples_per_class=12), seed=0)[0]


def test_autoencoder_history_is_pinned():
    # recorded from the loop as first written: weight init, then one
    # permutation per epoch; a change to the draw order or the math moves it
    _, hist = train_autoencoder(build_autoencoder((8, 8, 3), 4), _tiny_images().images,
                                TrainConfig(epochs=2, batch_size=8, seed=1))
    assert hist.losses == pytest.approx([0.11858065873384475, 0.08867832273244858], rel=1e-6)
    assert hist.metrics == hist.losses


def test_autoencoder_shape_mismatch():
    pair = build_autoencoder((8, 8, 3), 4)
    with pytest.raises(ShapeMismatchError):
        train_autoencoder(pair, np.zeros((4, 6, 6, 3), np.float32), TrainConfig(epochs=1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises():
    pair = build_autoencoder((8, 8, 3), 4)
    images = rng().random((16, 8, 8, 3)).astype(np.float32)
    with pytest.raises(DivergenceError):
        train_autoencoder(pair, images, TrainConfig(epochs=10, lr=1e9))


# --- classifier training ---------------------------------------------------------

def test_separable_toy_learns():
    data = _separable_dataset()
    net, hist = train_classifier(_mlp_spec(), data,
                                 TrainConfig(epochs=30, seed=0, lr=1e-2))
    assert hist.metrics[-1] > 0.95


def test_single_sample_memorization():
    data = LabeledDataset(rng(2).random((1, 12)).astype(np.float32), [1], 2)
    net, _ = train_classifier(_mlp_spec(), data,
                              TrainConfig(epochs=40, seed=0, lr=1e-2))
    acc, _ = evaluate(net, data)
    assert acc == 1.0


def test_training_reproducible_for_seed():
    data = _separable_dataset()
    cfg = TrainConfig(epochs=5, seed=7)
    _, h1 = train_classifier(_mlp_spec(), data, cfg)
    _, h2 = train_classifier(_mlp_spec(), data, cfg)
    assert h1.losses == h2.losses
    assert h1.metrics == h2.metrics


def test_augmented_classifier_history_is_pinned():
    # permutation, augmentation and dropout all draw from the one rng here
    spec = build_vanilla_classifier((8, 8, 3), "B", 2)
    _, hist = train_classifier(spec, _tiny_images(),
                               TrainConfig(epochs=2, batch_size=8, seed=1, augment=True))
    assert hist.losses == pytest.approx([0.680951189994812, 0.6449449181556701], rel=1e-6)
    assert hist.metrics == pytest.approx([0.55, 0.75], rel=1e-6)


def test_label_out_of_range_rejected():
    images = rng().random((4, 12)).astype(np.float32)
    data = LabeledDataset(images, [0, 1, 2, 3], 4)
    with pytest.raises(Exception):
        train_classifier(_mlp_spec(in_dim=12, classes=2), data, TrainConfig(epochs=1))


def test_conv_classifier_on_images():
    spec ,= [build_vanilla_classifier((16, 16, 3), "A", 3)]
    syn = SyntheticSpec(image_size=(16, 16, 3), num_classes=3, samples_per_class=30)
    train, test = gen_synthetic(syn, seed=1)
    net, hist = train_classifier(spec, train, TrainConfig(epochs=12, seed=0))
    acc, _ = evaluate(net, test)
    assert acc > 0.6


# --- evaluation ---------------------------------------------------------------------

def test_degenerate_always_class_zero():
    images = rng().random((10, 4)).astype(np.float32)
    data = LabeledDataset(images, [0] * 10, 2)
    spec = ModelSpec((dense(2),), (4,))
    net = Network(spec, rng=rng(0))
    net.params[0]["w"][:] = 0
    net.params[0]["b"][:] = [1.0, 0.0]
    acc, _ = evaluate(net, data)
    assert acc == 1.0


def test_untrained_accuracy_near_chance():
    r = rng(5)
    images = r.random((10_000, 20)).astype(np.float32)
    data = LabeledDataset(images, r.integers(0, 10, 10_000), 10)
    net = Network(ModelSpec((dense(10), act("softmax")), (20,)), rng=rng(1))
    acc, _ = evaluate(net, data)
    assert 0.07 <= acc <= 0.13


def test_evaluate_pure_and_deterministic():
    data = _separable_dataset(10)
    net = Network(_mlp_spec(), rng=rng(3))
    before = [p["w"].tobytes() for p in net.params if p]
    a1, _ = evaluate(net, data)
    a2, _ = evaluate(net, data)
    after = [p["w"].tobytes() for p in net.params if p]
    assert a1 == a2
    assert before == after


# --- augmentation -------------------------------------------------------------------

def test_double_flip_is_identity():
    img = rng().random((8, 10, 3))
    np.testing.assert_array_equal(hflip(hflip(img)), img)


def test_shift_is_bounded_translation():
    img = rng(4).random((20, 20, 3))
    out = augment(img, rng(9))
    matches = []
    bound = int(0.1 * 20)
    for src in (img, hflip(img)):
        for dy in range(-bound, bound + 1):
            for dx in range(-bound, bound + 1):
                if np.array_equal(out, shift2d(src, dy, dx)):
                    matches.append((dy, dx))
    assert matches, "output is not a translation within the declared window"


def test_shift2d_zero_padding():
    img = np.ones((4, 4, 1))
    out = shift2d(img, 2, 0)
    assert np.all(out[:2] == 0) and np.all(out[2:] == 1)


def test_augment_rejects_flat_input():
    with pytest.raises(ShapeMismatchError):
        augment(np.zeros(10), rng(0))


def test_forward_rejects_unbatched_sample():
    net = Network(_mlp_spec(), rng=rng(0))
    x = rng().random(12).astype(np.float32)
    with pytest.raises(ShapeMismatchError):
        net.forward(x)
    assert net.forward(x[None]).shape == (1, 2)


def test_infer_matches_forward_across_batch_boundaries():
    net = Network(_mlp_spec(), rng=rng(0))
    x = rng(1).random((70, 12)).astype(np.float32)
    np.testing.assert_allclose(net.infer(x), net.forward(x), rtol=1e-6)
    assert net.infer(x[:0]).shape == (0, 2)


def _ae_chain(input_shape, cr):
    pair = build_autoencoder(input_shape, cr)
    return ModelSpec(pair.encoder.layers + pair.decoder.layers, input_shape)


@pytest.mark.parametrize("spec", [
    build_vanilla_classifier((16, 16, 3), "A", 4),
    build_vanilla_classifier((16, 16, 3), "B", 4),
    _ae_chain((16, 16, 3), 4),
    # the first layer with weights sits behind two parameter-free layers
    ModelSpec((maxpool(2, 2), act("relu"), conv(4), act("relu"), flatten(), dense(3)),
              (10, 10, 2)),
], ids=["family-A", "family-B", "ae-cr4", "pool-first"])
def test_backward_stops_at_the_first_weighted_layer(spec, monkeypatch):
    net = Network(spec, rng=rng(0))
    x = rng(1).random((4, *spec.input_shape)).astype(np.float32)
    out, caches = net.forward(x, return_caches=True)
    g = rng(2).standard_normal(out.shape).astype(np.float32)
    full_backward = ops.backward
    layer_of = {id(cache): i for i, cache in enumerate(caches)}
    calls = []

    def recording(cache, grad, need_dx=True):
        calls.append((layer_of[id(cache)], need_dx))
        return full_backward(cache, grad, need_dx=need_dx)

    monkeypatch.setattr(ops, "backward", recording)
    grads = net.backward(caches, g)
    first = next(i for i, l in enumerate(spec.layers) if l.kind in ("conv2d", "dense"))
    assert calls == [(i, i > first) for i in range(len(caches) - 1, first - 1, -1)]

    # a full backward to the input gives the same parameter gradients
    _, caches = net.forward(x, return_caches=True)
    grad, expect = g, [{} for _ in caches]
    for i in range(len(caches) - 1, -1, -1):
        grad, pgrads = full_backward(caches[i], grad)
        expect[i] = pgrads or {}
    assert grad.shape == x.shape
    assert [sorted(p) for p in grads] == [sorted(p) for p in expect]
    for got, want in zip(grads, expect):
        for key in got:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("model", ["ae-cr4", "ae-cr8", "ae-cr16", "family-A", "family-B"])
def test_one_training_step_keeps_every_array_c_contiguous(model, monkeypatch):
    # every op returns C-order arrays, so none of its successors strides
    # through another layout
    recorded = []

    def recording(name, fn):
        def op(*args, **kwargs):
            out, cache = fn(*args, **kwargs)
            recorded.append((name, out))
            return out, cache
        return op

    for name in ("conv2d", "maxpool2d", "upsample2d", "dense", "activation",
                 "dropout", "flatten"):
        monkeypatch.setattr(ops, name, recording(name, getattr(ops, name)))
    full_backward = ops.backward

    def backward(cache, grad, need_dx=True):
        dx, pgrads = full_backward(cache, grad, need_dx=need_dx)
        if dx is not None:
            recorded.append((cache.kind + " dx", dx))
        return dx, pgrads

    monkeypatch.setattr(ops, "backward", backward)
    images = rng(1).random((8, 32, 32, 3)).astype(np.float32)
    cfg = TrainConfig(epochs=1, batch_size=8)
    if model.startswith("ae"):
        train_autoencoder(build_autoencoder((32, 32, 3), int(model[5:])), images, cfg)
    else:
        spec = build_vanilla_classifier((32, 32, 3), model[-1], 4)
        train_classifier(spec, LabeledDataset(images, np.arange(8) % 4, 4), cfg)
    kinds = {name for name, _ in recorded}
    assert {"conv2d", "conv2d dx", "activation", "activation dx"} <= kinds
    assert [name for name, a in recorded if not a.flags.c_contiguous] == []
