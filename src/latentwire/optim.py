"""Parameter update rules. Each trainer's role fixes its algorithm: rmsprop
fits the autoencoders and adam fits the classifiers. A state is made for
the arrays it updates, and every step takes their gradients in its order."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LatentWireError

# chosen defaults; the source material names the algorithms but no rates. The
# rate comes from TrainConfig.lr; rho, beta and eps are fixed here
_DEFAULTS = {
    "rmsprop": {"rho": 0.9, "eps": 1e-7},
    "adam": {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
}


@dataclass
class OptimizerState:
    algorithm: str
    hyper: dict
    arrays: list
    slots: list  # per array: its moment buffers by name
    step: int = 0


def make_optimizer(algorithm, params, lr):
    """State that updates ``params``, a list of arrays, in place at rate ``lr``;
    each array gets its zeroed moment buffers now: "v", and "m" for adam."""
    if algorithm not in _DEFAULTS:
        raise ValueError(f"unknown optimizer {algorithm!r}")
    hyper = dict(_DEFAULTS[algorithm], lr=float(lr))
    names = ("v",) if algorithm == "rmsprop" else ("m", "v")
    slots = [{name: np.zeros_like(p) for name in names} for p in params]
    return OptimizerState(algorithm, hyper, params, slots)


def optimizer_step(state, grads):
    """Apply one update step in place to the state's arrays; ``grads`` holds
    one gradient per array, in the order the state was made with."""
    for p, g in zip(state.arrays, grads, strict=True):
        if p.shape != g.shape:
            raise LatentWireError(f"param {p.shape} vs grad {g.shape}")
    state.step += 1
    h = state.hyper
    if state.algorithm == "rmsprop":
        for p, g, slot in zip(state.arrays, grads, state.slots):
            v = slot["v"]
            v *= h["rho"]
            v += (1.0 - h["rho"]) * g * g
            p -= h["lr"] * g / (np.sqrt(v) + h["eps"])
    else:  # adam
        t = state.step
        c1 = 1.0 - h["beta1"] ** t
        c2 = 1.0 - h["beta2"] ** t
        for p, g, slot in zip(state.arrays, grads, state.slots):
            m, v = slot["m"], slot["v"]
            m *= h["beta1"]
            m += (1.0 - h["beta1"]) * g
            v *= h["beta2"]
            v += (1.0 - h["beta2"]) * g * g
            p -= h["lr"] * (m / c1) / (np.sqrt(v / c2) + h["eps"])
