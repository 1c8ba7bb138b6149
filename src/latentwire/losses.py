"""Training losses with analytic gradients: each returns (value, gradient)."""

from __future__ import annotations

import numpy as np

from .errors import LatentWireError


def mse_loss(prediction, target):
    """Mean squared error over all elements; gradient wrt prediction."""
    if prediction.shape != target.shape:
        raise LatentWireError(
            f"prediction {prediction.shape} vs target {target.shape}"
        )
    diff = prediction - target
    n = diff.size
    value = float(np.mean(diff * diff))
    return value, 2.0 * diff / n


def cross_entropy_loss(logits, labels):
    """Softmax cross entropy averaged over the batch.

    logits: (B,K); labels: (B,) ints in [0,K).
    Gradient is (softmax - onehot)/B, so rows sum to zero.
    """
    lg = np.asarray(logits)
    lab = np.asarray(labels, dtype=np.int64)
    b, k = lg.shape
    if lab.min(initial=0) < 0 or lab.max(initial=0) >= k:
        raise LatentWireError(f"labels must lie in [0,{k})")
    shifted = lg - lg.max(axis=1, keepdims=True)
    # 0 below e^-64: subnormal grads slow each backward; after Adam these sit far below an ulp
    e = np.exp(np.where(shifted < -64, -np.inf, shifted))
    total = e.sum(axis=1, keepdims=True)
    value = float(np.mean(np.log(total[:, 0]) - shifted[np.arange(b), lab]))
    grad = e / total
    grad[np.arange(b), lab] -= 1.0
    grad /= b
    return value, grad.astype(lg.dtype, copy=False)
