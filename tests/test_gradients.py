"""Finite-difference gradient checks for every layer kind and both losses,
and for whole networks' parameter gradients.

The acceptance suite runs the same trials at full volume (100 per kind);
this file keeps a faster randomized sample for day-to-day runs.
"""

import numpy as np
import pytest

from latentwire.losses import cross_entropy_loss, mse_loss
from latentwire.zoo import ModelSpec, build_autoencoder, build_vanilla_classifier
from oracles import FD_TOL, GRADIENT_KINDS, network_gradient_pairs, run_gradient_suite


@pytest.mark.parametrize("kind", GRADIENT_KINDS)
def test_analytic_gradients_match_finite_differences(kind):
    worst = run_gradient_suite(kind, trials=20, seed=1)
    assert worst < FD_TOL, f"{kind}: max rel err {worst:.3e}"


def test_wide_conv_gradients_match_finite_differences():
    # the conv2d trials draw at most 3 channels, so c*k*k <= 27 and every
    # product contracts a window view; these draw 9 to 11 channels a side
    worst = run_gradient_suite("conv2d-wide", trials=5, seed=1)
    assert worst < FD_TOL, f"conv2d-wide: max rel err {worst:.3e}"


def _ae_chain(input_shape, cr):
    pair = build_autoencoder(input_shape, cr)
    return ModelSpec(pair.encoder.layers + pair.decoder.layers, input_shape)


# 22x22 keeps family A's three conv blocks, so its second and third convs
# both hold (3, 3, 32, 32) weights: only the flat order tells them apart
@pytest.mark.parametrize("spec, loss", [
    (build_vanilla_classifier((22, 22, 3), "A", 3), cross_entropy_loss),
    (build_vanilla_classifier((8, 8, 3), "B", 3), cross_entropy_loss),  # dropout off
    (_ae_chain((8, 8, 3), 4), mse_loss),
], ids=["family-A", "family-B", "ae-cr4"])
def test_network_parameter_gradients_match_finite_differences(spec, loss):
    rng = np.random.default_rng(7)
    x = rng.random((2, *spec.input_shape))
    target = x if loss is mse_loss else rng.integers(0, 3, 2)
    # at these inputs a float64 step of 1e-7 crosses no relu or pool kink; 1e-5
    # crossed one in family B
    pairs = network_gradient_pairs(spec, x, target, loss, h=1e-7)
    assert len(pairs) == 2 * sum(l.kind in ("conv2d", "dense") for l in spec.layers)
    for analytic, numeric in pairs:
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)
