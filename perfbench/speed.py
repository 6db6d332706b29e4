"""Machine-speed reference for normalizing the benchmark's timings.

The machines this benchmark runs on change speed by tens of percent from
minute to minute (shared cores), while the ratio between two pure-Python
computations run back to back stays within about 1.5%.  So every timed
operation is followed by a reference sample: repetitions of a fixed exact
elimination, written here and never imported from the package, that take
at least a tenth of the operation's time.  A duration ``t`` normalizes to

    t * REFERENCE_MS / (median repetition time of the adjacent sample)

that is, to what ``t`` would be on a machine where one repetition takes
``REFERENCE_MS``: about the speed of the 2-core Xeon the benchmark was
defined on.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_MS = 0.75
REFERENCE_DET = -51998079  # determinant of REFERENCE_MATRIX
MIN_REPS = 3
MIN_SAMPLE_S = 0.002

REFERENCE_MATRIX = [[(7 * i * i + 3 * j ** 3 + i * j + 2 * i + 1) % 19 - 9
                     for j in range(8)] for i in range(8)]


def reference_work() -> Fraction:
    """Determinant of REFERENCE_MATRIX by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in REFERENCE_MATRIX]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def reference_ms(cover_s: float) -> float:
    """Median repetition time of a sample lasting about a tenth of cover_s."""
    budget = max(MIN_SAMPLE_S, cover_s / 10) * 1e9
    reps = []
    spent = 0
    while len(reps) < MIN_REPS or spent < budget:
        start = perf_counter_ns()
        reference_work()
        reps.append(perf_counter_ns() - start)
        spent += reps[-1]
    return statistics.median(reps) / 1e6


def normalized(seconds: float, ref_ms: float) -> float:
    return seconds * REFERENCE_MS / ref_ms
