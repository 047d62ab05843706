"""The machine's speed, read from a fixed reference kernel run between ops.

The benchmark runs on shared virtual machines whose speed drifts with their
neighbours' load: the same round of inputs, repeated in one process, ran
up to 1.8x slower from one minute to the next, in CPU time as much as in
wall time.  So each op is followed by a few runs of ``kernel``, a fixed
exact-rational elimination that imports nothing from wfdim, and the times
of a phase (set-up, or the timed loop) are rescaled by how long the kernel
took in it:

    rescaled = seconds * REF_S / (mean of the phase's kernel times)

A rescaled time is what the op would have taken on a machine running the
kernel in REF_S seconds.  A change to wfdim moves it as it moves the wall
time; a change in the machine's speed from one run to the next moves the
kernel too, and cancels out.  The speed also flickers within tenths of a
second, by up to 2x: the kernel's times fall in two clusters whose shares
change from run to run.  A plain mean over a whole phase weighs each
cluster by its share, as the ops' own times do.  Kernel runs right after
one op would not follow the flicker, and a trimmed mean or a median weighs
the slow cluster less than its share, which overcorrects fast runs.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# The kernel's mean time on the machine in baseline.json: the speed that
# rescaled times are expressed at.
REF_S = 0.002
# After each op the kernel runs until it has taken this share of the op's
# time, at least once.
SHARE = 0.1

_rng = random.Random("wfbench:speed")
_ROWS, _COLS = 7, 8
_MATRIX = tuple(tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(_COLS))
                for _ in range(_ROWS))


def kernel() -> list:
    """Reduced row echelon form of a fixed 7 x 8 rational matrix."""
    m = [list(row) for row in _MATRIX]
    r = 0
    for c in range(_COLS):
        p = next((i for i in range(r, _ROWS) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(_ROWS):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == _ROWS:
            break
    return m


class Speed:
    """Kernel samples in time order: the midpoint and duration of each."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.times: list[float] = []

    def sample(self, seconds: float) -> None:
        """Run the kernel until it has taken ``seconds``, at least once."""
        clock = time.perf_counter
        spent = 0.0
        while True:
            t0 = clock()
            kernel()
            t1 = clock()
            self.stamps.append((t0 + t1) / 2)
            self.times.append(t1 - t0)
            spent += t1 - t0
            if spent >= seconds:
                return

    def after(self, start: float, end: float) -> None:
        """Sample after an op that ran from ``start`` to ``end``."""
        self.sample(SHARE * (end - start))

    def factor(self, start: float, end: float) -> float:
        """REF_S over the mean kernel time from ``start`` to ``end``."""
        return REF_S / statistics.fmean(
            t for stamp, t in zip(self.stamps, self.times) if start <= stamp <= end)
