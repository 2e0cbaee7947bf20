"""Reference clock: rescales measured times by how fast the host runs right then.

On a shared 2-vCPU VM the same code runs up to about 1.5x slower for stretches
of seconds to minutes while neighbours load the host, so a 20-second run's
wall throughput depends on when it ran.  A fixed kernel that never touches
qgrad13 slows down with the host.  `ReferenceClock` times a burst of that
kernel before and after each stretch of measured work, and scales the stretch
by REF_KERNEL_S over the bursts' mean kernel time.  The result is seconds on a
machine where the kernel takes REF_KERNEL_S: the host's slow phases largely
cancel, a change in the program's own speed does not.

The kernel is an arithmetic loop, small LAPACK eigensolves and a sort.
Workloads do not all slow alike under a loaded host: measured against this
kernel, the array-heavy solver slows about as much, while the object-heavy
per-state path and the scans slow somewhat more (about 1.3x as much in log
terms), so their slow phases cancel only in part.  A kernel of object
allocation and method calls tracks the per-state path but overcorrects the
solver by more than it helps.

A burst lasts BURST_SHARE of the stretch before it, and at least MIN_KERNELS
kernels, so a long stretch gets a long, steady sample.  Bursts run between
the workload's calls, never beside them, so the workload's own threads cannot
slow the kernel down.
"""
from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: mean kernel time in a burst on the reference machine (this 2-vCPU Xeon VM
#: in a quiet spell)
REF_KERNEL_S = 0.00135
BURST_SHARE = 0.03
MIN_KERNELS = 30

_MATRICES = np.random.default_rng(0).random((4, 13, 13))
_VALUES = np.random.default_rng(1).random(20000)


def kernel() -> float:
    """Wall time of one fixed run of the probe kernel."""
    t0 = time.perf_counter()
    x = 0
    for i in range(18000):
        x += i * i
    np.linalg.eigvals(_MATRICES)
    np.sort(_VALUES)
    return time.perf_counter() - t0


def burst(n: int) -> float:
    """Mean time of `n` kernels run back to back."""
    return statistics.fmean(kernel() for _ in range(n))


class ReferenceClock:
    """Scales wall seconds of work done since the last call to reference
    seconds, from the bursts just before and just after that work."""

    def __init__(self) -> None:
        self.bursts: List[float] = [burst(MIN_KERNELS)]

    def scale(self, wall_s: float) -> float:
        """Reference seconds per wall second over the `wall_s` just done."""
        n = max(MIN_KERNELS, round(BURST_SHARE * wall_s / REF_KERNEL_S))
        self.bursts.append(burst(n))
        return REF_KERNEL_S / statistics.fmean(self.bursts[-2:])

    def slowdown(self) -> float:
        """Mean burst time over REF_KERNEL_S: 1.5 while the host runs 1.5x slow."""
        return statistics.fmean(self.bursts) / REF_KERNEL_S
