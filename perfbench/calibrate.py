"""Fixed reference work that gauges how fast the CPU runs at the moment.

The machine this benchmark was defined on is a shared 2-vCPU VM. Each
vCPU switches between a fast and a slow state about 1.5x apart. A state
lasts from a few milliseconds to seconds, and the share of slow time
drifts over minutes, so the medians of identical 25 s runs spread by 8
to 35% (IQR/median over ten runs). The two vCPUs switch independently
of each other.

So every timed call is bracketed by slots of this fixed reference work,
run in the same process on the same pinned CPU. A call's wall time is
scaled by ``REFERENCE_REP_S`` over the mean repetition time of the slot
before and the slot after it: the result reads in seconds of a CPU on
which one repetition takes ``REFERENCE_REP_S``, about the typical time
on the defining machine. One repetition mixes the two kinds of work
``graphsi explain`` does: a pure-Python signed subset sum over a dict,
like the Moebius transform, and a chain of small dense NumPy products,
like a GNN forward. It never calls the package, so a change to the
package cannot move it.

Scaling does not remove every difference: the program and the reference
work slow down by somewhat different factors in the slow state. Over
ten 25 s runs (seeds 1-10) on the defining machine, the IQR/median of
the run medians of ``pass_s`` was 0.048, 0.033, 0.019 and 0.022 on
sparse64, hub, truncated and molecules; unscaled, the same runs gave
0.167, 0.171, 0.075 and 0.156.
"""

from __future__ import annotations

import os
import time

import numpy as np

REFERENCE_REP_S = 6e-4
# A slot lasts this share of the operation before it (at least one repetition).
SLOT_SHARE = 0.1
FIRST_SLOT_S = 0.02

_VALUES = {mask: (mask * 0.618) % 1.0 for mask in range(1 << 10)}
_MASKS = (0x3FF, 0x2DB, 0x1F7)
_RNG = np.random.Generator(np.random.Philox(key=12345))
_ADJ = _RNG.standard_normal((24, 24))
_X = _RNG.standard_normal((24, 16))
_W = _RNG.standard_normal((16, 16))


def repetition() -> float:
    """One unit of reference work, about 0.6 ms on the defining machine."""
    total = 0.0
    for mask in _MASKS:
        size = mask.bit_count()
        sub = mask
        while True:
            value = _VALUES[sub]
            total += value if (size - sub.bit_count()) % 2 == 0 else -value
            if sub == 0:
                break
            sub = (sub - 1) & mask
    h = _X
    for _ in range(40):
        h = np.maximum(_ADJ @ h @ _W * 0.1, 0.0) + _X
    return total + float(h.sum())


def pin_to_one_cpu() -> int:
    """Pin this process to one CPU, so the reference slots gauge the CPU
    that runs the work."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Calibrator:
    """Runs reference slots and scales wall times by them.

    Use: ``before = cal.before()``; time the operation;
    ``after = cal.slot(elapsed)``; ``cal.scale(elapsed, before, after)``.
    """

    def __init__(self):
        self.last: float | None = None
        self.rep_times: list[float] = []

    def before(self) -> float:
        """Mean repetition time of the latest slot, or of a new first slot."""
        return self.last if self.last is not None else self._run(FIRST_SLOT_S)

    def slot(self, after_s: float) -> float:
        """Slot after an operation of ``after_s`` seconds; returns the mean
        repetition time."""
        return self._run(SLOT_SHARE * after_s)

    def _run(self, seconds: float) -> float:
        clock = time.perf_counter
        start = clock()
        reps = 0
        while True:
            repetition()
            reps += 1
            spent = clock() - start
            if spent >= seconds:
                break
        self.last = spent / reps
        self.rep_times.append(self.last)
        return self.last

    @staticmethod
    def scale(elapsed: float, before: float, after: float) -> float:
        """Wall seconds in reference-speed seconds."""
        return elapsed * REFERENCE_REP_S / ((before + after) / 2)
