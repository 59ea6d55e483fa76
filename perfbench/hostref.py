"""A fixed reference computation that gauges the host's speed next to each command.

On a shared host the speed of the same code drifts by tens of percent over
minutes, as other tenants come and go.  The benchmark times this kernel just
before and just after every command and every set-up, and restates each of
their wall times at the reference speed: the speed at which one pass of the
kernel takes ``REF_SECONDS``.  A drift that slows both the kernel and the
command cancels out; a change to the program moves only the command.

The kernel is the kind of work the workloads spend their time on: a Python
loop of numpy calls on small arrays (a small matrix product, ufuncs and a
reduction), like one recurrent step.  It uses nothing from ``kinemotion``, so
no change to the program changes it.
"""

from __future__ import annotations

import time

import numpy as np

STEPS = 2000
# One pass at the reference speed: about a pass on the 2-core Xeon VM
# (2.1 GHz) the benchmark was built on, in its faster stretches.
REF_SECONDS = 0.020

_X = np.linspace(-1.0, 1.0, 8 * 64).reshape(8, 64)
_W = np.linspace(0.5, -0.5, 64 * 32).reshape(64, 32)


def _kernel() -> float:
    h = np.zeros(32)
    for _ in range(STEPS):
        z = np.tanh(_X @ _W + h)
        h = 0.5 * z.mean(axis=0) + np.maximum(z[0], 0.0)
    return float(h.sum())


def kernel_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start

