import numpy as np
import pytest

from latentwire.errors import LatentWireError
from latentwire.optim import make_optimizer, optimizer_step


def test_zero_gradient_leaves_params_unchanged():
    for algo in ("rmsprop", "adam"):
        p = np.array([1.0, -2.0, 3.0])
        before = p.copy()
        optimizer_step(make_optimizer(algo, [p]), [np.zeros(3)])
        np.testing.assert_array_equal(p, before)


def test_rmsprop_first_step_magnitude():
    p = np.array([0.0])
    opt = make_optimizer("rmsprop", [p], lr=1e-3)
    optimizer_step(opt, [np.array([1.0])])
    expect = 1e-3 / (np.sqrt(0.1) + 1e-7)
    assert abs(-p[0] - expect) < 1e-9
    assert abs(expect - 0.0031623) < 1e-6


def test_adam_first_step_is_lr_sized():
    # bias correction makes the first update ~lr regardless of gradient scale
    p = np.array([0.0])
    opt = make_optimizer("adam", [p], lr=1e-3)
    optimizer_step(opt, [np.array([123.0])])
    assert abs(-p[0] - 1e-3) < 1e-6


def test_step_counter_increments():
    opt = make_optimizer("adam", [np.zeros(2)])
    for i in range(1, 4):
        optimizer_step(opt, [np.ones(2)])
        assert opt.step == i


def test_shape_mismatch_rejected():
    opt = make_optimizer("rmsprop", [np.zeros(3)])
    with pytest.raises(LatentWireError, match=r"^param \(3,\) vs grad \(4,\)$"):
        optimizer_step(opt, [np.zeros(4)])


def test_accumulators_track_parameter_shapes():
    # the buffers exist before any step, each of its array's shape
    params = [np.zeros((2, 3)), np.zeros(5)]
    for algo, names in (("rmsprop", ["v"]), ("adam", ["m", "v"])):
        opt = make_optimizer(algo, params)
        assert [[slot[k].shape for k in names] for slot in opt.slots] == [
            [(2, 3)] * len(names), [(5,)] * len(names)]
        assert all(not slot[k].any() for slot in opt.slots for k in names)
    # a step with the wrong gradient count raises and updates nothing
    before = [p.copy() for p in params]
    with pytest.raises(ValueError):
        optimizer_step(opt, [np.ones((2, 3))])
    assert opt.step == 0
    assert all(np.array_equal(p, b) for p, b in zip(params, before))


def test_unknown_algorithm_and_hyper():
    for algo in ("adagrad", "sgd-momentum"):
        with pytest.raises(ValueError, match="unknown optimizer"):
            make_optimizer(algo, [])
