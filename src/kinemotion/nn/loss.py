"""Weighted softmax cross-entropy with a numerically stable log-sum-exp."""

from __future__ import annotations

import numpy as np

from ..errors import ContractError


def softmax(scores):
    """Probabilities over the last axis; shift-invariant and overflow-safe."""
    z = scores - np.max(scores, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(scores, targets, class_weights=None):
    """Batch-mean loss and its exact score gradient.

    ``scores`` is (B, K) and ``targets`` holds B class indices.  Each
    example contributes -w[target] * log softmax(scores)[target]; with
    unit weights this is plain cross-entropy.  Returns ``(loss,
    dscores)`` where loss is the mean over the batch and dscores (B, K)
    is its gradient, so it already carries the 1/B factor.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] < 1:
        raise ContractError(f"scores must be (B, K) with B >= 1, got {scores.shape}")
    batch, n = scores.shape
    targets = np.asarray(targets)
    if targets.shape != (batch,) or not np.issubdtype(targets.dtype, np.integer):
        raise ContractError(f"need {batch} integer targets, got {targets!r}")
    if np.any((targets < 0) | (targets >= n)):
        raise ContractError(f"target class out of range 0..{n - 1}: {targets}")
    if class_weights is None:
        class_weights = np.ones(n)
    else:
        class_weights = np.asarray(class_weights, dtype=np.float64)
        if class_weights.shape != (n,):
            raise ContractError("class_weights must match the number of classes")
        if np.any(class_weights <= 0):
            raise ContractError("class_weights must be positive")

    shifted = scores - np.max(scores, axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(batch)
    w = class_weights[targets]
    loss = -np.sum(w * log_probs[rows, targets]) / batch
    dscores = w[:, None] * np.exp(log_probs)
    dscores[rows, targets] -= w
    return float(loss), dscores / batch
