"""Reference speed: a fixed exact computation that times the host.

On a shared machine the same process can run at half or twice its usual
speed from one second to the next, so raw seconds from two runs are not
comparable.  Every timed block of the benchmark is bracketed by this
reference computation (an exact ``Fraction`` solve of a fixed seeded matrix,
the same kind of work the package does), and its times are reported as
raw time x NOMINAL_S / (reference time measured around the block).

Nothing here imports ``logsurf``.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from oracle import solve

# Reference time of one solve on the host the benchmark was calibrated on
# (2-core x86-64 VM, CPython 3.11).  Only a unit: changing it rescales every
# reported time by the same factor.
NOMINAL_S = 0.0018
_REPEATS = 3

_rng = random.Random(20240211)
_MATRIX = [[_rng.randint(-9, 9) for _ in range(8)] for _ in range(8)]
_RHS = [Fraction(_rng.randint(-9, 9)) for _ in range(8)]


def reference_s() -> float:
    """Median wall time of a few runs of the reference solve."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        solve(_MATRIX, _RHS)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Bracket:
    """Times a stretch of work between two reference measurements.

    ``split`` closes the current stretch and opens the next one with the same
    reference measurement, so back-to-back blocks cost one bracket each.
    """

    def __init__(self) -> None:
        self.before = reference_s()

    def split(self) -> float:
        """Close the stretch; return its factor from raw to reference seconds."""
        after = reference_s()
        factor = NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return factor
