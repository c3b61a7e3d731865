"""Host-speed reference kernel and the clock that rescales timings by it.

A shared virtual machine can change speed by up to 2x within tens of
milliseconds (other tenants, frequency steps), and CPU time is just as
noisy as wall time. So every timed block is bracketed by short runs of a
fixed pure-Python kernel, and the block's duration is rescaled by the
kernel's speed around it: a block that took ``t`` ns while the kernel
took ``r`` ns per call is reported as ``t * REF_NOMINAL_NS / r``, the time
it would take on a host where one kernel call takes ``REF_NOMINAL_NS``.

The kernel imitates the shape of the library's hot loops (small
named-tuple points, attribute reads, float arithmetic, comparisons and
function calls) but shares no code with ``gjk2d``, so no change to the
library can move it. It must never change: its speed is the unit every
recorded timing is expressed in.
"""

from __future__ import annotations

import math
import time
from typing import List, NamedTuple

# Nominal cost of one reference_kernel() call. Timings are reported as
# if the kernel ran at this speed. It is close to the kernel's cost under
# CPython 3.11 on an unloaded 2-vCPU Xeon guest, so normalized numbers
# read like ordinary microseconds there.
REF_NOMINAL_NS = 30_000.0
REF_CALLS = 2  # kernel calls per sample


class _Pt(NamedTuple):
    x: float
    y: float


_RING = tuple(
    _Pt(math.cos(2.0 * math.pi * k / 12.0), math.sin(2.0 * math.pi * k / 12.0))
    for k in range(12)
)


def _nearest(ring, px: float, py: float):
    best = 0
    best_d = math.inf
    for i in range(len(ring)):
        p = ring[i]
        dx = p.x - px
        dy = p.y - py
        d = dx * dx + dy * dy
        if d < best_d:
            best_d = d
            best = i
    return best, best_d


def reference_kernel() -> float:
    """Fixed work: nearest-vertex scans of a 12-gon from 15 pseudo-random points."""
    state = 12345
    acc = 0.0
    for _ in range(15):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        px = (state & 0xFFFF) / 65536.0 - 0.5
        py = (state >> 16) / 32768.0 - 0.5
        i, d = _nearest(_RING, px, py)
        q = _Pt(px + d, py - d)
        acc += q.x * q.y + i
    return acc


class HostClock:
    """Rescales timed blocks by the reference kernel's speed around them.

    Call ``scale()`` right after each timed block. It runs the kernel
    ``REF_CALLS`` times and returns ``REF_NOMINAL_NS`` over the mean kernel
    cost before and after the block; multiply the block's duration by it.
    ``raw_ref_ns`` keeps every kernel sample (ns per call) for reporting.
    """

    def __init__(self) -> None:
        self.raw_ref_ns: List[float] = []
        self._last = self._sample()

    def _sample(self) -> float:
        clock = time.perf_counter_ns
        t0 = clock()
        for _ in range(REF_CALLS):
            reference_kernel()
        return (clock() - t0) / REF_CALLS

    def scale(self) -> float:
        before = self._last
        after = self._last = self._sample()
        self.raw_ref_ns.append(after)
        return 2.0 * REF_NOMINAL_NS / (before + after)

    def resync(self) -> None:
        """Re-measure the kernel after untimed work, before the next block."""
        self._last = self._sample()
