"""Parameter update rules. Each trainer's role fixes its algorithm: rmsprop
fits the autoencoders and adam fits the classifiers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError

# chosen defaults; the source material names the algorithms but no rates
_DEFAULTS = {
    "rmsprop": {"lr": 1e-3, "rho": 0.9, "eps": 1e-7},
    "adam": {"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
}


@dataclass
class OptimizerState:
    algorithm: str
    hyper: dict
    step: int = 0
    slots: list = field(default_factory=list)

    def _ensure_slots(self, params):
        if self.slots:
            if len(self.slots) != len(params):
                raise ShapeMismatchError(
                    f"optimizer tracks {len(self.slots)} tensors, got {len(params)}"
                )
            return
        for p in params:
            if self.algorithm == "rmsprop":
                self.slots.append({"v": np.zeros_like(p)})
            else:
                self.slots.append({"m": np.zeros_like(p), "v": np.zeros_like(p)})


def make_optimizer(algorithm, lr=None):
    if algorithm not in _DEFAULTS:
        raise ValueError(f"unknown optimizer {algorithm!r}")
    hyper = dict(_DEFAULTS[algorithm])
    if lr is not None:
        hyper["lr"] = float(lr)
    return OptimizerState(algorithm=algorithm, hyper=hyper)


def optimizer_step(state, params, grads):
    """Apply one update step in place to aligned lists of parameter and
    gradient arrays."""
    for p, g in zip(params, grads, strict=True):
        if p.shape != g.shape:
            raise ShapeMismatchError(f"param {p.shape} vs grad {g.shape}")
    state._ensure_slots(params)
    state.step += 1
    h = state.hyper
    if state.algorithm == "rmsprop":
        for p, g, slot in zip(params, grads, state.slots):
            v = slot["v"]
            v *= h["rho"]
            v += (1.0 - h["rho"]) * g * g
            p -= h["lr"] * g / (np.sqrt(v) + h["eps"])
    else:  # adam
        t = state.step
        c1 = 1.0 - h["beta1"] ** t
        c2 = 1.0 - h["beta2"] ** t
        for p, g, slot in zip(params, grads, state.slots):
            m, v = slot["m"], slot["v"]
            m *= h["beta1"]
            m += (1.0 - h["beta1"]) * g
            v *= h["beta2"]
            v += (1.0 - h["beta2"]) * g * g
            p -= h["lr"] * (m / c1) / (np.sqrt(v / c2) + h["eps"])
