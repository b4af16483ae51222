"""Machine speed reference: a fixed exact-rational kernel timed during each run.

The shared virtual machines this benchmark runs on change speed by tens of
percent over minutes, for every process alike, so two runs of the same code
a few minutes apart read differently. Each run therefore also times a fixed
kernel that does the package's kind of work (Gauss-Jordan elimination over
`Fraction`s, in plain Python, calling nothing of the package) between its
ops and set-up builds, outside every timed region. The end-to-end timings are
reported in reference seconds: each measured time is scaled by REFERENCE_S
over the median kernel time sampled around it, so a spell of the machine
falls on the kernel samples of that spell. On a machine that runs the kernel
in REFERENCE_S they are plain seconds; on one that is slower for a while, they
are the seconds the same work takes at reference speed. The raw seconds and
the run's median factor are printed on the lines above the result.

A change to the package cannot move the kernel, so it moves the reference
seconds exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median kernel time on the machine the benchmark was built on
# (2-vCPU virtual machine, CPython 3.11).
REFERENCE_S = 0.0029
SIZE = 8


def kernel() -> Fraction:
    """Solve one fixed nonsingular SIZE x SIZE rational system by Gauss-Jordan."""
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(SIZE + 1)]
            for i in range(SIZE)]
    for i in range(SIZE):
        rows[i][i] += 7
    for col in range(SIZE):
        pivot = next(r for r in range(col, SIZE) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(SIZE):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return rows[0][SIZE]


class Speed:
    """Kernel times sampled through one run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> int:
        """Time the kernel `count` times; the index of the first of these samples."""
        first = len(self.samples)
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - start)
        return first

    def factor(self, mark: int, reach: int) -> float:
        """Reference seconds per measured second around samples[mark]:
        REFERENCE_S over the median of the samples at most `reach` before
        and `reach - 1` after it."""
        return REFERENCE_S / statistics.median(self.samples[max(0, mark - reach):mark + reach])

    def run_factor(self) -> float:
        """The factor over every sample of the run."""
        return REFERENCE_S / statistics.median(self.samples)
