"""Machine-speed calibration for the benchmark's timings.

On a shared host the CPU speed available to one process swings by up to half
within seconds, which swamps any code change.  So the benchmark times this
fixed pure-Python kernel (dict updates, Fraction and float arithmetic, like
dicbound's own inner loops) between consecutive operations and reports each
operation's wall time at the reference speed:

    reference seconds = wall seconds * REFERENCE_S / kernel seconds,

with the kernel time taken as the mean of the runs just before and just
after the operation.  On a steady machine running at the reference speed the
two are equal; raw wall times are kept in the run's record line.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

# the kernel's time at full speed on an Intel Xeon virtual machine (2 vCPUs),
# Python 3.11; it only fixes the scale, comparisons do not depend on it
REFERENCE_S = 0.0015


def kernel_seconds() -> float:
    start = perf_counter()
    table: dict = {}
    acc = Fraction(0)
    for i in range(600):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0.0) + math.log2(i + 2)
        acc += Fraction(i % 7, 3)
    return perf_counter() - start
