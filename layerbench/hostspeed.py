"""The host's speed, timed next to every measured interval.

A shared host can run the same instructions at very different speeds from
one minute to the next: on a 2-vCPU Intel Xeon (2.0 GHz nominal) guest the
simulator's cycles per second moved by up to 2x with no steal time and CPU
time equal to wall time, and the drift was correlated over tens of
seconds, so a median over one run cannot remove it.  A fixed pure-Python
loop doing what the simulator's inner loops do (method calls, slot
attribute reads and writes, small dict lookups) slows down with it.  The
loop is timed before and after each interval, and the interval's wall time
is scaled by ``REFERENCE_S`` over the loop's mean time: the time the
interval would have taken on a host running the loop in ``REFERENCE_S``.
A change to the simulator scales the result by its own factor; the loop
does not run any simulator code.
"""

from __future__ import annotations

import time

#: Iterations of the calibration loop.
STEPS = 300_000
#: Seconds the loop takes on the reference host: close to its median on
#: the 2-vCPU Xeon guest above, so that scaled times read near raw ones.
REFERENCE_S = 0.06


class _Cell:
    __slots__ = ("value", "next", "inputs")

    def __init__(self, index: int):
        self.value = index
        self.next = None
        self.inputs = {"a": index}

    def step(self):
        self.value = (self.value * 3 + self.inputs["a"]) & 1023
        return self.next


_RING = [_Cell(index) for index in range(5_000)]
for _cell, _next in zip(_RING, _RING[1:] + _RING[:1]):
    _cell.next = _next


def loop_seconds() -> float:
    """Wall seconds of one pass of the calibration loop."""
    cell = _RING[0]
    start = time.perf_counter()
    for _ in range(STEPS):
        cell = cell.step()
    return time.perf_counter() - start


def speed(before_s: float, after_s: float) -> float:
    """Host speed relative to the reference during an interval bracketed
    by loop timings ``before_s`` and ``after_s``: below 1 when slower."""
    return 2 * REFERENCE_S / (before_s + after_s)
