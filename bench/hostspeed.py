"""Host-speed reference: a fixed kernel timed between the calls under test.

On a shared host the speed of one core drifts by a quarter or more over
tens of seconds, as other tenants come and go, and a process's CPU time
drifts with it.  A run's wall-time median then says as much about the
neighbours as about dopsim.  To take that drift out, run.py times this
kernel right before and right after every timed call and scales the call's
wall time by ``NOMINAL_S / measured kernel time``: the result is the call's
time at the reference speed.  The kernel lives here and never touches
dopsim, so a change to dopsim moves the call and not the kernel.

The kernel mixes the kinds of work dopsim's hot paths do: a Python loop of
float math and small-object churn around tiny numpy operations on
3-vectors.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: The kernel's time on an idle reference host (2 vCPUs of a Xeon,
#: Python 3.11.7, numpy 2.4.6), so that scaled times read as seconds there.
NOMINAL_S = 0.0055

#: Kernel calls per block.  The block reports their mean, not their median:
#: a core's speed flips between a fast and a slow state within milliseconds,
#: and the mean weighs the two states the way a long call experiences them.
BLOCK_CALLS = 10

_STEPS = 200


def kernel() -> float:
    v = np.array([0.3, 0.4, 0.5])
    axis = np.array([0.0, 0.6, 0.8])
    acc = 0.0
    for i in range(_STEPS):
        a = i * 1e-3
        c, s = math.cos(a), math.sin(a)
        w = v * c + np.cross(axis, v) * s + axis * (np.dot(axis, v) * (1.0 - c))
        acc += float(w[0]) + sum(x * x for x in (c, s, a))
    return acc


def block() -> float:
    """Mean wall time of ``BLOCK_CALLS`` kernel calls, in seconds."""
    t0 = time.perf_counter()
    for _ in range(BLOCK_CALLS):
        kernel()
    return (time.perf_counter() - t0) / BLOCK_CALLS


class Clock:
    """Scales wall times to the reference speed.

    ``scale()`` times a new block and returns ``NOMINAL_S`` over the
    geometric mean of that block and the one before it, i.e. of the blocks
    that bracket whatever ran in between.
    """

    def __init__(self) -> None:
        block()  # warm-up: numpy's first calls and the allocator
        self._last = block()
        self.blocks = [self._last]

    def scale(self) -> float:
        now = block()
        factor = NOMINAL_S / math.sqrt(self._last * now)
        self._last = now
        self.blocks.append(now)
        return factor
