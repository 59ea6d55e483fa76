"""Finite-difference verification of the analytic gradients.

Every stochastic choice (dropout masks) is pinned by re-seeding the
generator identically for each loss evaluation, so the loss is a
deterministic function of the parameters and central differences are
meaningful.  ``x`` is a (B, C, L) batch and ``targets`` its B class
indices; the loss checked is the batch mean the training loop uses.
"""

from __future__ import annotations

import numpy as np

from .loss import softmax_cross_entropy


def _loss(net, x, targets, class_weights, rng_seed):
    rng = np.random.default_rng(rng_seed)
    scores = net.forward(x, train=True, rng=rng)
    loss, _ = softmax_cross_entropy(scores, targets, class_weights)
    return loss


def max_relative_error(analytic: dict, numeric: dict) -> float:
    """max over entries of |g_a - g_n| / max(|g_a|, |g_n|, 1e-8)."""
    worst = 0.0
    for key, ga in analytic.items():
        gn = numeric[key]
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-8)
        worst = max(worst, float(np.max(np.abs(ga - gn) / denom)))
    return worst


def numeric_gradients(net, x, targets, class_weights=None, h=1e-5, rng_seed=0):
    """Central-difference gradient of the loss for every parameter entry."""
    numeric = {}
    for key, p in net.parameters().items():
        grad = np.zeros_like(p)
        flat_p = p.ravel()
        flat_g = grad.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = _loss(net, x, targets, class_weights, rng_seed)
            flat_p[i] = orig - h
            down = _loss(net, x, targets, class_weights, rng_seed)
            flat_p[i] = orig
            flat_g[i] = (up - down) / (2.0 * h)
        numeric[key] = grad
    return numeric


def gradient_check(net, x, targets, class_weights=None, h=1e-5, rng_seed=0):
    """Compare analytic and numeric gradients; return the max relative error."""
    rng = np.random.default_rng(rng_seed)
    scores = net.forward(x, train=True, rng=rng)
    _, dscores = softmax_cross_entropy(scores, targets, class_weights)
    analytic = {k: v.copy() for k, v in net.backward(dscores).items()}
    numeric = numeric_gradients(
        net, x, targets, class_weights=class_weights, h=h, rng_seed=rng_seed
    )
    return max_relative_error(analytic, numeric)
