"""Machine-speed normalization of measured times.

On a shared machine the speed of this process drifts by up to 1.8x in
phases of tens of seconds (another tenant on the sibling hyperthread), in
wall time and in CPU time alike, so raw timings of two runs of the same code
can differ by more than any useful regression bound.  The benchmark
therefore times a fixed reference kernel of exact rational arithmetic
(independent of cdalg, and the same kind of work) between ops, and scales
each raw time by ``REFERENCE_S / t_ref``, where ``t_ref`` is the kernel's time
measured around it.  The scaled values are the times the ops would take on a
machine where the kernel takes ``REFERENCE_S``; the raw values are kept in
the provenance.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.010
# Calibrate again once this much raw op time has passed since the last one.
RECALIBRATE_AFTER_S = 0.25

_X = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(64)]
_Y = [Fraction(i % 9 - 4, i % 4 + 1) for i in range(64)]


def reference_kernel() -> Fraction:
    total = Fraction(0)
    for _ in range(40):
        s = Fraction(0)
        for a, b in zip(_X, _Y):
            s += a * b
        total += s
    return total


def reference_time(repeats: int = 3) -> float:
    """Fastest of a few kernel runs: the local speed with interrupts filtered out."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Normalizer:
    """Scales each op's raw time by the reference speed measured before and
    after it; ``add`` returns the scaled times of the ops it settled."""

    def __init__(self) -> None:
        self.last = reference_time()
        self.pending: list[float] = []
        self.factors: list[float] = []

    def add(self, raw: float) -> list[float]:
        self.pending.append(raw)
        if sum(self.pending) < RECALIBRATE_AFTER_S:
            return []
        return self.flush()

    def flush(self) -> list[float]:
        if not self.pending:
            return []
        now = reference_time()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        scaled = [raw * factor for raw in self.pending]
        self.pending = []
        return scaled
