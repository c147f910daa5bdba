"""The machine's speed, timed by a fixed reference kernel between operations.

On a shared 2-core virtual machine the host shifts the guest's speed from
minute to minute: a `param_scan` pass takes 0.25 s in one stretch and
0.65 s in another, with CPU time equal to wall time and next to no steal.
A time measured in one pass is therefore scaled to a reference speed: the
pass also times a kernel of its own (pure-Python integer arithmetic, not
pqosc's code) between operations, and its times are multiplied by

    REFERENCE_S / median kernel time in the pass.

A metric then reads seconds at the reference speed and moves with the
program, not with the host.  The kernel follows interpreter-bound work:
over 164 `param_scan` passes in one process the log of the pass time and
the log of the kernel time correlate at r = 0.92, and scaling cut the
pass-to-pass deviation from 17% to 7%.  It does not follow the dense
products of `hopf_closure` (r = 0.0 over 9 passes), which stay unscaled.

REFERENCE_S is fixed, between the kernel's 1.1 ms in the host's fast
stretches and 1.8 ms in its slow ones, so that every run scales to the
same speed.
"""

from __future__ import annotations

import statistics
import time

ITERATIONS = 20_000
REFERENCE_S = 1.3e-3
# At most one kernel sample per interval past a pass's first: enough to
# follow the host, few enough that the kernel takes under a tenth of the run.
INTERVAL_S = 0.02


def time_kernel() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def scale(samples: list) -> float:
    """Reference time over the median of the kernel times."""
    return REFERENCE_S / statistics.median(samples)


class Speed:
    """Samples the kernel through a run: at least once a pass, and otherwise
    at most once per INTERVAL_S."""

    def __init__(self):
        self._last = float("-inf")

    def sample(self, due: bool = False) -> float | None:
        """The kernel's time; None if not `due` and the last sample is under
        INTERVAL_S old."""
        if not due and time.perf_counter() - self._last < INTERVAL_S:
            return None
        seconds = time_kernel()
        self._last = time.perf_counter()
        return seconds


class NoSpeed:
    """Samples nothing: for passes whose times are not scaled."""

    def sample(self, due: bool = False) -> None:
        return None


NO_SPEED = NoSpeed()
