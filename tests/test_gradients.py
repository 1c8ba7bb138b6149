"""Finite-difference gradient checks for every layer kind and both losses.

The acceptance suite runs the same trials at full volume (100 per kind);
this file keeps a faster randomized sample for day-to-day runs.
"""

import pytest

from oracles import FD_TOL, GRADIENT_KINDS, run_gradient_suite


@pytest.mark.parametrize("kind", GRADIENT_KINDS)
def test_analytic_gradients_match_finite_differences(kind):
    worst = run_gradient_suite(kind, trials=20, seed=1)
    assert worst < FD_TOL, f"{kind}: max rel err {worst:.3e}"


def test_wide_conv_gradients_match_finite_differences():
    # the conv2d trials draw at most 3 channels, so c*k*k <= 27 and every
    # product contracts a window view; these draw 9 to 11 channels a side
    worst = run_gradient_suite("conv2d-wide", trials=5, seed=1)
    assert worst < FD_TOL, f"conv2d-wide: max rel err {worst:.3e}"
