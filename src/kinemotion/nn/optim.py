"""Adam optimizer over named parameter bundles."""

from __future__ import annotations

import numpy as np

from ..errors import ContractError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive moment estimation with bias correction.

    Moment accumulators are created lazily, keyed and shaped like the
    parameter bundle; ``step`` checks that the gradient bundle has the
    parameters' keys and shapes, then updates the parameters in place,
    with the module constants ``BETA1``, ``BETA2`` and ``EPS``:

        m = BETA1*m + (1-BETA1)*g
        v = BETA2*v + (1-BETA2)*g^2
        theta -= lr * m_hat / (sqrt(v_hat) + EPS)
    """

    def __init__(self, lr=1e-3):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict, grads: dict) -> None:
        if set(params) != set(grads):
            raise ContractError("parameter and gradient bundles have different keys")
        for key, p in params.items():
            if grads[key].shape != p.shape:
                raise ContractError(f"gradient shape mismatch at {key}")
        if not self.m:
            self.m = {k: np.zeros_like(p) for k, p in params.items()}
            self.v = {k: np.zeros_like(p) for k, p in params.items()}
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for key, p in params.items():
            g = grads[key]
            m = self.m[key]
            v = self.v[key]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g**2
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
