import numpy as np
import pytest

from latentwire.errors import ShapeMismatchError
from latentwire.optim import make_optimizer, optimizer_step


def test_zero_gradient_leaves_params_unchanged():
    for algo in ("rmsprop", "adam"):
        p = np.array([1.0, -2.0, 3.0])
        before = p.copy()
        optimizer_step(make_optimizer(algo), [p], [np.zeros(3)])
        np.testing.assert_array_equal(p, before)


def test_rmsprop_first_step_magnitude():
    opt = make_optimizer("rmsprop", lr=1e-3)
    p = np.array([0.0])
    optimizer_step(opt, [p], [np.array([1.0])])
    expect = 1e-3 / (np.sqrt(0.1) + 1e-7)
    assert abs(-p[0] - expect) < 1e-9
    assert abs(expect - 0.0031623) < 1e-6


def test_adam_first_step_is_lr_sized():
    # bias correction makes the first update ~lr regardless of gradient scale
    opt = make_optimizer("adam", lr=1e-3)
    p = np.array([0.0])
    optimizer_step(opt, [p], [np.array([123.0])])
    assert abs(-p[0] - 1e-3) < 1e-6


def test_step_counter_increments():
    opt = make_optimizer("adam")
    p = np.zeros(2)
    for i in range(1, 4):
        optimizer_step(opt, [p], [np.ones(2)])
        assert opt.step == i


def test_shape_mismatch_rejected():
    opt = make_optimizer("rmsprop")
    with pytest.raises(ShapeMismatchError):
        optimizer_step(opt, [np.zeros(3)], [np.zeros(4)])


def test_accumulators_track_parameter_shapes():
    opt = make_optimizer("adam")
    params = [np.zeros((2, 3)), np.zeros(5)]
    optimizer_step(opt, params, [np.ones((2, 3)), np.ones(5)])
    assert opt.slots[0]["m"].shape == (2, 3)
    assert opt.slots[1]["v"].shape == (5,)
    with pytest.raises(ShapeMismatchError):
        optimizer_step(opt, [np.zeros((2, 3))], [np.ones((2, 3))])


def test_unknown_algorithm_and_hyper():
    for algo in ("adagrad", "sgd-momentum"):
        with pytest.raises(ValueError, match="unknown optimizer"):
            make_optimizer(algo)
