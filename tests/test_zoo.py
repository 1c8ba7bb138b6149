import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentwire import ops, train
from latentwire.errors import InvalidGeometryError, UnachievableRatioError
from latentwire.network import Network
from latentwire.train import TrainConfig, train_autoencoder
from latentwire.zoo import (
    FAMILIES,
    ModelSpec,
    build_autoencoder,
    build_vanilla_classifier,
    conv,
    dense,
    infer_shapes,
)

from oracles import autoencoder_spec_oracle, classifier_spec_oracle, count_parameters_oracle


# --- autoencoder builder -----------------------------------------------------

def test_cifar_shape_cr4_latent():
    pair = build_autoencoder((32, 32, 3), 4)
    assert pair.latent_shape == (16, 16, 3)
    assert int(np.prod(pair.latent_shape)) == 3072 // 4
    assert Fraction(math.prod((32, 32, 3)), math.prod(pair.latent_shape)) == 4


def test_cifar_shape_cr8_needs_two_stages():
    # one stage gives 1.5 latent channels, rejected; two stages give 6
    pair = build_autoencoder((32, 32, 3), 8)
    assert pair.latent_shape == (8, 8, 6)


def test_imagenet_shape_cr4():
    pair = build_autoencoder((256, 256, 3), 4)
    assert pair.latent_shape == (128, 128, 3)


def test_cr16_latent():
    pair = build_autoencoder((32, 32, 3), 16)
    assert pair.latent_shape == (8, 8, 3)


def test_cr1_identity_pair():
    pair = build_autoencoder((32, 32, 3), 1)
    assert pair.encoder.layers == () and pair.decoder.layers == ()


def test_unachievable_ratio():
    with pytest.raises(UnachievableRatioError):
        build_autoencoder((32, 32, 3), 7)
    with pytest.raises(UnachievableRatioError):
        build_autoencoder((5, 5, 3), 4)  # odd extent, no pooling stage fits


def test_encoder_decoder_shapes_mirror():
    pair = build_autoencoder((32, 32, 3), 8)
    assert infer_shapes(pair.encoder)[-1] == pair.latent_shape
    assert pair.decoder.input_shape == pair.latent_shape
    assert infer_shapes(pair.decoder)[-1] == pair.encoder.input_shape


@given(st.sampled_from([(32, 32, 3), (64, 64, 3), (16, 16, 4), (256, 256, 3)]),
       st.sampled_from([1, 2, 4, 8, 16]))
@settings(max_examples=25, deadline=None)
def test_achieved_ratio_always_exact(shape, cr):
    try:
        pair = build_autoencoder(shape, cr)
    except UnachievableRatioError:
        return
    assert Fraction(math.prod(shape), math.prod(pair.latent_shape)) == Fraction(cr)


# --- split/compose -----------------------------------------------------------

def fit_chain(monkeypatch, pair, images, cfg):
    """train_autoencoder's encoder, and the decoder Network built from the
    trained chain's own arrays, which the fit does not return."""
    chains = []
    fit = train._fit

    def kept_fit(*args):
        net, hist = fit(*args)
        chains.append(net)
        return net, hist

    monkeypatch.setattr(train, "_fit", kept_fit)
    encoder, _ = train_autoencoder(pair, images, cfg)
    (chain,) = chains
    k = len(pair.encoder.layers)
    assert len(encoder.params) == k and all(
        a is b for a, b in zip(encoder.params, chain.params))
    return encoder, Network(pair.decoder, params=chain.params[k:]), chain


def test_split_compose_bitwise(monkeypatch):
    pair = build_autoencoder((8, 8, 3), 4)
    images = np.random.default_rng(0).random((20, 8, 8, 3)).astype(np.float32)
    encoder, decoder, chain = fit_chain(monkeypatch, pair, images,
                                        TrainConfig(epochs=2, seed=0))
    assert infer_shapes(encoder.spec)[-1] == pair.latent_shape
    assert chain.spec == ModelSpec(pair.encoder.layers + pair.decoder.layers, (8, 8, 3))
    for x in images[:5]:
        full = chain.forward(x[None])
        split = decoder.forward(encoder.forward(x[None]))
        assert full.tobytes() == split.tobytes()


@pytest.mark.parametrize("model", ["A", "B", "encoder"])
def test_pool_and_relu_caches_hold_no_float_array(model):
    # a training forward's pool keeps a uint8 winner index of the pooled
    # shape and each relu a bool sign mask, so no full-resolution float map
    # outlives the forward in a cache
    spec = (build_autoencoder((16, 16, 3), 16).encoder if model == "encoder"
            else build_vanilla_classifier((16, 16, 3), model, 4))
    net = Network(spec, rng=np.random.default_rng(0))
    x = np.random.default_rng(0).random((4, 16, 16, 3)).astype(np.float32)
    caches = [None] * len(spec.layers)
    net.forward(x, caches=caches)
    shapes = infer_shapes(spec)
    kept = [(i, layer) for i, layer in enumerate(spec.layers)
            if layer.kind == "maxpool" or layer.fn == "relu"]
    assert any(layer.kind == "maxpool" for _, layer in kept)
    for i, layer in kept:
        data = caches[i].data
        assert not any(isinstance(v, np.ndarray) and v.dtype.kind == "f"
                       for v in data.values())
        if layer.kind == "maxpool":
            assert data["arg"].dtype == np.uint8
            assert data["arg"].shape == (len(x), *shapes[i + 1])
        else:
            assert data["mask"].dtype == bool


def _cache_bytes(net, caches):
    """Summed nbytes of the arrays the caches hold, the parameters aside."""
    params = {id(a) for a in net.trainable()}
    return sum(v.nbytes for c in caches for v in c.data.values()
               if isinstance(v, np.ndarray) and id(v) not in params)


# One training forward at batch 32 on 32x32x3. Recorded with the pool's uint8
# index, relu's bool mask and each conv's input; a float copy of a full map
# per cache (as the pool's input and relu's output were) read 17,873,920 and
# 8,112,128, the padded upsampled map that each decoder conv after an
# upsample kept put ae16 at 9,663,488, and the padded input that each other
# "same" conv kept put it at 4,912,128 and B at 12,535,296.
CACHE_BYTES = {"ae16": 4_421_632, "A": 2_033_664, "B": 11_108_352}


@pytest.mark.parametrize("model", sorted(CACHE_BYTES))
def test_a_training_forward_caches_at_most_the_recorded_bytes(model):
    if model in ("A", "B"):
        spec = build_vanilla_classifier((32, 32, 3), model, 10)
    else:
        pair = build_autoencoder((32, 32, 3), 16)
        spec = ModelSpec(pair.encoder.layers + pair.decoder.layers, pair.encoder.input_shape)
    net = Network(spec, rng=np.random.default_rng(0))
    x = np.random.default_rng(0).random((32, 32, 32, 3)).astype(np.float32)
    caches = [None] * len(spec.layers)
    net.forward(x, rng=np.random.default_rng(1), caches=caches)
    assert _cache_bytes(net, caches) <= CACHE_BYTES[model]


@pytest.mark.parametrize("model", ["A", "B"])
def test_an_inference_forward_builds_no_index_or_mask(model, monkeypatch):
    built = []
    for name in ("maxpool2d", "activation"):
        def recorded(*args, op=getattr(ops, name), **kwargs):
            y, cache = op(*args, **kwargs)
            built.append(cache)
            return y, cache

        monkeypatch.setattr(ops, name, recorded)
    net = Network(build_vanilla_classifier((16, 16, 3), model, 4), rng=np.random.default_rng(0))
    net.infer(np.random.default_rng(0).random((5, 16, 16, 3)).astype(np.float32))
    assert built and built == [None] * len(built)


# The builders must equal their conv -> relu -> maxpool layouts with each
# pool moved ahead of its relu, truncating ones included: at 8x8 family A
# keeps conv, pool, conv, relu, and at 3x3 family B keeps two convs on 1x1.
@pytest.mark.parametrize("shape", sorted({(h, w, c) for h in range(3, 10) for w in (h, 5, 8)
                                          for c in (1, 3)}
                                         | {(8, 8, 6), (4, 4, 3), (16, 16, 3), (32, 32, 3),
                                            (11, 13, 3)}),
                         ids=str)
def test_builders_match_the_swapped_spec_oracle(shape):
    for family in FAMILIES:
        assert build_vanilla_classifier(shape, family, 2) == classifier_spec_oracle(
            shape, family, 2)
    for cr in (1, 2, 4, 8, 16):
        try:
            pair = build_autoencoder(shape, cr)
        except UnachievableRatioError:
            continue
        assert (pair.encoder, pair.decoder) == autoencoder_spec_oracle(shape, cr)


def test_decoder_rejects_non_latent_shape(monkeypatch):
    pair = build_autoencoder((8, 8, 3), 4)
    images = np.random.default_rng(0).random((10, 8, 8, 3)).astype(np.float32)
    _, decoder, _ = fit_chain(monkeypatch, pair, images, TrainConfig(epochs=1, seed=0))
    with pytest.raises(Exception):
        decoder.forward(np.zeros((1, 8, 8, 3), np.float32))


# --- classifier builders -------------------------------------------------------

def test_family_a_table_layout_on_raw_cifar_shape():
    spec = build_vanilla_classifier((32, 32, 3), "A", 10)
    kinds = [l.kind for l in spec.layers]
    assert kinds == ["conv2d", "maxpool", "activation"] * 3 + [
        "flatten", "dense", "activation", "dropout", "dense"]
    widths = [l.width for l in spec.layers if l.kind == "dense"]
    assert widths == [64, 10]
    assert spec.layers[-2].rate == 0.5
    assert all(l.filters == 32 for l in spec.layers if l.kind == "conv2d")
    assert all(l.padding == "valid" for l in spec.layers if l.kind == "conv2d")


def test_family_b_table_layout():
    spec = build_vanilla_classifier((32, 32, 3), "B", 10)
    widths = [l.width for l in spec.layers if l.kind == "dense"]
    assert widths == [512, 10]
    rates = [l.rate for l in spec.layers if l.kind == "dropout"]
    assert rates == [0.25, 0.25, 0.5]
    filters = [l.filters for l in spec.layers if l.kind == "conv2d"]
    assert filters == [32, 32, 64, 64]
    assert all(l.padding == "same" for l in spec.layers if l.kind == "conv2d")


def test_family_a_truncates_on_small_latents():
    # 8x8 input: conv->6, pool->3, conv->1; the second pool no longer fits,
    # so the trunk stops there, its conv keeps its relu, and later blocks
    # are dropped entirely
    spec = build_vanilla_classifier((8, 8, 3), "A", 10)
    trunk = [l.kind for l in spec.layers[:5]]
    assert trunk == ["conv2d", "maxpool", "activation", "conv2d", "activation"]
    assert spec.layers[5].kind == "flatten"


def test_family_a_infeasible_input():
    with pytest.raises(InvalidGeometryError):
        build_vanilla_classifier((2, 2, 3), "A", 10)


def test_unknown_family_rejected():
    # Hub.train_classifier hands a caller's family straight in
    with pytest.raises(ValueError, match="unknown classifier family 'C'"):
        build_vanilla_classifier((16, 16, 3), "C", 4)


def test_more_classes_than_trunk_features_rejected():
    # the hub passes the grid's class count straight in; a 3x3 input
    # keeps one conv, whose 1x1x32 output cannot separate 40 classes
    with pytest.raises(InvalidGeometryError,
                       match="trunk leaves 32 features for 40 classes"):
        build_vanilla_classifier((3, 3, 1), "A", 40)


def test_shape_walk_matches_hand_oracle():
    spec = build_vanilla_classifier((32, 32, 3), "A", 10)
    shapes = infer_shapes(spec)
    collapsed = [shapes[0]]
    for s in shapes[1:]:
        if s != collapsed[-1]:
            collapsed.append(s)
    assert collapsed == [(32, 32, 3), (30, 30, 32), (15, 15, 32), (13, 13, 32),
                         (6, 6, 32), (4, 4, 32), (2, 2, 32), (128,), (64,), (10,)]


def test_infer_shapes_empty_spec():
    spec = ModelSpec((), (4, 4, 2))
    assert infer_shapes(spec) == [(4, 4, 2)]


def test_infer_shapes_reports_failing_layer_index():
    spec = ModelSpec((conv(8), conv(8), conv(8)), (4, 4, 1))
    with pytest.raises(InvalidGeometryError, match="layer 1"):
        infer_shapes(spec)  # 4->2, then 3x3 no longer fits


# --- parameter counting ----------------------------------------------------------

def count_arrays(spec):
    """Elements of the parameter arrays a Network builds for `spec`: the
    count run_cell reports as a row's params."""
    net = Network(spec, rng=np.random.default_rng(0))
    return sum(a.size for p in net.params for a in p.values())


def test_single_conv_count():
    spec = ModelSpec((conv(32),), (8, 8, 3))
    assert count_arrays(spec) == count_parameters_oracle(spec) == (27 + 1) * 32 == 896


def test_dense_count():
    spec = ModelSpec((dense(64),), (128,))
    assert count_arrays(spec) == count_parameters_oracle(spec) == 129 * 64 == 8256


def test_family_a_total_matches_recount_oracle():
    for shape in [(32, 32, 3), (16, 16, 3), (8, 8, 6), (8, 8, 3)]:
        spec = build_vanilla_classifier(shape, "A", 10)
        assert count_arrays(spec) == count_parameters_oracle(spec)


def test_param_counts_non_increasing_in_cr():
    latents = {1: (32, 32, 3), 4: (16, 16, 3), 8: (8, 8, 6), 16: (8, 8, 3)}
    for family in ("A", "B"):
        specs = [build_vanilla_classifier(latents[cr], family, 10) for cr in (1, 4, 8, 16)]
        counts = [count_arrays(spec) for spec in specs]
        assert counts == [count_parameters_oracle(spec) for spec in specs]
        assert all(a >= b for a, b in zip(counts, counts[1:])), (family, counts)


def test_builders_are_pure():
    a = build_vanilla_classifier((32, 32, 3), "A", 10)
    b = build_vanilla_classifier((32, 32, 3), "A", 10)
    assert a == b
    p1 = build_autoencoder((32, 32, 3), 8)
    p2 = build_autoencoder((32, 32, 3), 8)
    assert p1.encoder == p2.encoder and p1.decoder == p2.decoder
